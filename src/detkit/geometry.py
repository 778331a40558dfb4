"""Axis-aligned box geometry: IOU with analytic derivatives and SSD-style
offset encoding/decoding.

Boxes are stored in corner form (x1, y1, x2, y2) with center-form accessors;
encode/decode work in center form, overlap tests in corner form. Only
``iou_terms`` applies ``iou_value``'s rule to arrays; only the row kernels
``iou_rows``, ``encode_rows`` and ``decode_jacobian_rows`` compute the IOU
gradient, offset encoding and decode Jacobian, wrapped by ``iou``,
``encode``, ``decode`` and ``decode_jacobian``. All are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# SSD prior-box variances (cx, cy, w, h).
DEFAULT_VARIANCES = (0.1, 0.1, 0.2, 0.2)


def math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` applied to each element of a float array. numpy's
    vectorized exp and log differ from ``math``'s in the last bit on a few
    percent of inputs; ``math`` also raises where they would warn."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in corner form. Zero area is allowed,
    negative extent is not."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 >= self.x1 and self.y2 >= self.y1):
            raise extent_error(self.as_tuple())

    @property
    def cx(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def cy(self) -> float:
        return 0.5 * (self.y1 + self.y2)

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.w * self.h

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "Box":
        return cls(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)

    def translated(self, tx: float, ty: float) -> "Box":
        return Box(self.x1 + tx, self.y1 + ty, self.x2 + tx, self.y2 + ty)

    def scaled(self, s: float) -> "Box":
        return Box(self.x1 * s, self.y1 * s, self.x2 * s, self.y2 * s)

    def clipped(self, width: float, height: float) -> "Box":
        return Box(
            min(max(self.x1, 0.0), width),
            min(max(self.y1, 0.0), height),
            min(max(self.x2, 0.0), width),
            min(max(self.y2, 0.0), height),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def extent_error(row) -> ValueError:
    """The ValueError ``Box(*row)`` raises for corners of negative extent or NaN."""
    return ValueError("negative box extent: Box(%s)" % ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(Box), row)))


@dataclass(frozen=True)
class IouValue:
    """Intersection-over-union plus its 8 partial derivatives.

    ``grad_a``/``grad_b`` hold d(iou)/d(x1, y1, x2, y2) of each input box.
    Subgradient conventions: at touching edges (zero-width overlap) the
    gradient is 0, matching the zero branch of max(0, .); when an
    intersection edge is defined by coincident coordinates of both boxes,
    the derivative is split evenly between them, which makes identical
    boxes a stationary point.
    """

    value: float
    grad_a: tuple[float, float, float, float]
    grad_b: tuple[float, float, float, float]


def iou_value(a: Box, b: Box) -> float:
    """IOU value only: the scalar rule that :func:`iou_terms` applies to arrays."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou(a: Box, b: Box) -> IouValue:
    """IOU of two boxes with analytic derivatives: :func:`iou_rows` on the
    rows (a, b) for ``grad_a`` and (b, a) for ``grad_b``.

    Two degenerate (zero-area) boxes yield IOU 0 with zero gradient.
    """
    ab = np.array([a.as_tuple(), b.as_tuple()])
    value, grad = iou_rows(ab, ab[::-1], np.array([b.area, a.area]))
    return IouValue(float(value[0]), tuple(grad[0].tolist()), tuple(grad[1].tolist()))


def iou_terms(a, a_area, b, b_area):
    """:func:`iou_value` step by step on broadcast corner columns ``a``, ``b`` and their areas: ``iw, ih, inter,
    union`` and the mask ``zero`` where the IOU is 0; callers silence the warnings of what they mask out."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = a_area + b_area - inter
    return iw, ih, inter, union, (iw <= 0.0) | (ih <= 0.0) | (union <= 0.0)


def iou_rows(a: np.ndarray, b: np.ndarray, b_area: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IOU of each corner row of ``a`` (P, 4) against the same row of ``b``, given ``b``'s areas: values (P,),
    :func:`iou_value`'s bit for bit, and ``grad_a`` (P, 4) under the conventions of :class:`IouValue`."""
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    aw, ah = ax2 - ax1, ay2 - ay1

    def share(own, other, above):
        return np.where(own == other, 0.5, np.where(own > other if above else own < other, 1.0, 0.0))

    d_area = (-ah, -aw, ah, aw)
    # rows on the zero branch, and huge boxes whose area or squared union
    # overflows (a diverging fit, which the loss then reports)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        iw, ih, inter, union, zero = iou_terms(a.T, aw * ah, b.T, b_area)
        d_inter = (-ih * share(ax1, bx1, True), -iw * share(ay1, by1, True),
                   ih * share(ax2, bx2, False), iw * share(ay2, by2, False))
        inv_u2 = 1.0 / (union * union)
        grad = np.stack([(di * union - inter * (da - di)) * inv_u2 for di, da in zip(d_inter, d_area)], axis=1)
        value = inter / union
    return np.where(zero, 0.0, value), np.where(zero[:, None], 0.0, grad)


def box_areas(rows: np.ndarray) -> np.ndarray:
    """Area of each corner row, computed as ``Box.area`` is."""
    return (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])


def iou_matrix(a, b) -> np.ndarray:
    """:func:`iou_value` of each pair of (N, 4) and (M, 4) corner rows, arrays or nested lists."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _, _, inter, union, zero = iou_terms(a.T[:, :, None], box_areas(a)[:, None], b.T[:, None, :], box_areas(b))
    return np.divide(inter, union, out=np.zeros_like(inter), where=~zero)


@dataclass(frozen=True)
class OffsetEncoding:
    """SSD regression targets (t_cx, t_cy, t_w, t_h) under the fixed
    ``DEFAULT_VARIANCES``."""

    t_cx: float
    t_cy: float
    t_w: float
    t_h: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.t_cx, self.t_cy, self.t_w, self.t_h)


def _require_positive_extent(box: Box, what: str) -> None:
    if box.w <= 0.0 or box.h <= 0.0:
        raise ValueError(f"{what} must have strictly positive width and height: {box}")


def encode(anchor: Box, gt: Box) -> OffsetEncoding:
    """Encode a ground-truth box as offsets relative to an anchor:
    :func:`encode_rows` on one row."""
    _require_positive_extent(anchor, "anchor")
    _require_positive_extent(gt, "encoded box")
    cwh = np.array([(anchor.cx, anchor.cy, anchor.w, anchor.h)], dtype=np.float64)
    return OffsetEncoding(*encode_rows(cwh, np.array([gt.as_tuple()], dtype=np.float64))[0].tolist())


def encode_rows(anchor_cwh: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Offset rows (P, 4) of the corner rows ``gt`` against anchor rows
    (cx, cy, w, h). log runs through ``math``, as exp does in
    :func:`decode_jacobian_rows`; rows are not checked for positive
    extent."""
    v0, v1, v2, v3 = DEFAULT_VARIANCES
    acx, acy, aw, ah = anchor_cwh.T
    gx1, gy1, gx2, gy2 = gt.T
    return np.stack((
        (0.5 * (gx1 + gx2) - acx) / (aw * v0),
        (0.5 * (gy1 + gy2) - acy) / (ah * v1),
        math_map(math.log, (gx2 - gx1) / aw) / v2,
        math_map(math.log, (gy2 - gy1) / ah) / v3,
    ), axis=1)


def decode(anchor: Box, off: OffsetEncoding) -> Box:
    """Invert :func:`encode`; differentiable in the offsets."""
    return decode_jacobian(anchor, off)[0]


def decode_jacobian(anchor: Box, off: OffsetEncoding) -> tuple[Box, np.ndarray]:
    """Decode plus the 4x4 Jacobian d(x1,y1,x2,y2)/d(t_cx,t_cy,t_w,t_h):
    :func:`decode_jacobian_rows` on one row.

    Used to chain IOU gradients back into regression outputs.
    """
    _require_positive_extent(anchor, "anchor")
    box, jac = decode_jacobian_rows(np.array([(anchor.cx, anchor.cy, anchor.w, anchor.h)]), np.array([off.as_tuple()]))
    return Box(*box[0]), jac[0]


def decode_jacobian_rows(anchor_cwh: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoded corners (P, 4) and Jacobians (P, 4, 4) from anchor rows
    (cx, cy, w, h) and offset rows. exp runs through :func:`math_map`, so
    it raises OverflowError as ``math.exp`` does; rows are not checked for
    NaN or negative extent."""
    v0, v1, v2, v3 = DEFAULT_VARIANCES
    acx, acy, aw, ah = anchor_cwh.T
    cx = acx + off[:, 0] * v0 * aw
    cy = acy + off[:, 1] * v1 * ah
    w = aw * math_map(math.exp, off[:, 2] * v2)
    h = ah * math_map(math.exp, off[:, 3] * v3)
    box = np.stack((cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h), axis=1)
    dw = v2 * (box[:, 2] - box[:, 0])
    dh = v3 * (box[:, 3] - box[:, 1])
    jac = np.zeros((len(off), 4, 4))
    jac[:, 0, 0] = jac[:, 2, 0] = v0 * aw
    jac[:, 1, 1] = jac[:, 3, 1] = v1 * ah
    jac[:, 0, 2], jac[:, 2, 2] = -0.5 * dw, 0.5 * dw
    jac[:, 1, 3], jac[:, 3, 3] = -0.5 * dh, 0.5 * dh
    return box, jac
