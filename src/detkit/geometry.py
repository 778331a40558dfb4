"""Axis-aligned box geometry: IOU with analytic derivatives and SSD-style
offset encoding/decoding.

Boxes are stored in corner form (x1, y1, x2, y2) with center-form accessors;
encode/decode work in center form, overlap tests in corner form. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# SSD prior-box variances (cx, cy, w, h).
DEFAULT_VARIANCES = (0.1, 0.1, 0.2, 0.2)


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
            raise ValueError(f"negative box extent: {self}")

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
    """IOU value only (fast path for NMS, matching, and evaluation)."""
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
    """IOU of two boxes with analytic derivatives.

    Two degenerate (zero-area) boxes yield IOU 0 with zero gradient.
    """
    ix1, iy1 = max(a.x1, b.x1), max(a.y1, b.y1)
    ix2, iy2 = min(a.x2, b.x2), min(a.y2, b.y2)
    iw, ih = ix2 - ix1, iy2 - iy1

    zero = (0.0, 0.0, 0.0, 0.0)
    if iw <= 0.0 or ih <= 0.0:
        return IouValue(0.0, zero, zero)

    inter = iw * ih
    area_a, area_b = a.area, b.area
    union = area_a + area_b - inter
    if union <= 0.0:
        # both boxes degenerate (zero area) and coincident
        return IouValue(0.0, zero, zero)

    # d(inter)/d(coordinate): a max/min edge owned by one box gets the full
    # derivative; an exactly tied edge is split between the two boxes.
    def _share(own: float, other: float, is_max: bool) -> float:
        if own == other:
            return 0.5
        if is_max:
            return 1.0 if own > other else 0.0
        return 1.0 if own < other else 0.0

    di_ax1 = -ih * _share(a.x1, b.x1, True)
    di_ay1 = -iw * _share(a.y1, b.y1, True)
    di_ax2 = ih * _share(a.x2, b.x2, False)
    di_ay2 = iw * _share(a.y2, b.y2, False)
    di_bx1 = -ih * _share(b.x1, a.x1, True)
    di_by1 = -iw * _share(b.y1, a.y1, True)
    di_bx2 = ih * _share(b.x2, a.x2, False)
    di_by2 = iw * _share(b.y2, a.y2, False)

    da = (-a.h, -a.w, a.h, a.w)  # d(area_a)/d(a coords)
    db = (-b.h, -b.w, b.h, b.w)

    inv_u2 = 1.0 / (union * union)

    def _dv(d_inter: float, d_area: float) -> float:
        # value = inter/union, union = area_a + area_b - inter
        return (d_inter * union - inter * (d_area - d_inter)) * inv_u2

    grad_a = tuple(_dv(di, dA) for di, dA in zip((di_ax1, di_ay1, di_ax2, di_ay2), da))
    grad_b = tuple(_dv(di, dB) for di, dB in zip((di_bx1, di_by1, di_bx2, di_by2), db))
    return IouValue(inter / union, grad_a, grad_b)


def iou_rows(a: np.ndarray, b: np.ndarray, b_area: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`iou` of each corner row of ``a`` (P, 4) against the same row of
    ``b``, given ``b``'s areas: values (P,) and ``grad_a`` (P, 4), bit for
    bit, with the same zero branches and tie shares."""
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    aw, ah = ax2 - ax1, ay2 - ay1
    union = aw * ah + b_area - inter
    zero = (iw <= 0.0) | (ih <= 0.0) | (union <= 0.0)

    def share(own, other, above):
        return np.where(own == other, 0.5, np.where(own > other if above else own < other, 1.0, 0.0))

    d_inter = (-ih * share(ax1, bx1, True), -iw * share(ay1, by1, True),
               ih * share(ax2, bx2, False), iw * share(ay2, by2, False))
    d_area = (-ah, -aw, ah, aw)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows on the zero branch
        inv_u2 = 1.0 / (union * union)
        grad = np.stack([(di * union - inter * (da - di)) * inv_u2 for di, da in zip(d_inter, d_area)], axis=1)
        value = inter / union
    return np.where(zero, 0.0, value), np.where(zero[:, None], 0.0, grad)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IOU values between (N, 4) and (M, 4) corner-form arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


@dataclass(frozen=True)
class OffsetEncoding:
    """SSD regression targets (t_cx, t_cy, t_w, t_h) under fixed variances."""

    t_cx: float
    t_cy: float
    t_w: float
    t_h: float
    variances: tuple[float, float, float, float] = DEFAULT_VARIANCES

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.t_cx, self.t_cy, self.t_w, self.t_h)


def _require_positive_extent(box: Box, what: str) -> None:
    if box.w <= 0.0 or box.h <= 0.0:
        raise ValueError(f"{what} must have strictly positive width and height: {box}")


def encode(anchor: Box, gt: Box, variances=DEFAULT_VARIANCES) -> OffsetEncoding:
    """Encode a ground-truth box as offsets relative to an anchor."""
    _require_positive_extent(anchor, "anchor")
    _require_positive_extent(gt, "encoded box")
    v0, v1, v2, v3 = variances
    return OffsetEncoding(
        (gt.cx - anchor.cx) / (anchor.w * v0),
        (gt.cy - anchor.cy) / (anchor.h * v1),
        math.log(gt.w / anchor.w) / v2,
        math.log(gt.h / anchor.h) / v3,
        tuple(variances),
    )


def decode(anchor: Box, off: OffsetEncoding) -> Box:
    """Invert :func:`encode`; differentiable in the offsets."""
    _require_positive_extent(anchor, "anchor")
    v0, v1, v2, v3 = off.variances
    cx = anchor.cx + off.t_cx * v0 * anchor.w
    cy = anchor.cy + off.t_cy * v1 * anchor.h
    w = anchor.w * math.exp(off.t_w * v2)
    h = anchor.h * math.exp(off.t_h * v3)
    return Box.from_center(cx, cy, w, h)


def decode_jacobian(anchor: Box, off: OffsetEncoding) -> tuple[Box, np.ndarray]:
    """Decode plus the 4x4 Jacobian d(x1,y1,x2,y2)/d(t_cx,t_cy,t_w,t_h).

    Used to chain IOU gradients back into regression outputs.
    """
    _require_positive_extent(anchor, "anchor")
    v0, v1, v2, v3 = off.variances
    box = decode(anchor, off)
    dcx = v0 * anchor.w
    dcy = v1 * anchor.h
    dw = v2 * box.w  # d(w)/d(t_w) = v2 * a_w * exp(v2 t_w)
    dh = v3 * box.h
    jac = np.array(
        [
            [dcx, 0.0, -0.5 * dw, 0.0],
            [0.0, dcy, 0.0, -0.5 * dh],
            [dcx, 0.0, 0.5 * dw, 0.0],
            [0.0, dcy, 0.0, 0.5 * dh],
        ]
    )
    return box, jac


def decode_jacobian_rows(anchor_cwh: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode_jacobian` of each row, bit for bit: decoded corners
    (P, 4) and Jacobians (P, 4, 4) from anchor rows (cx, cy, w, h) and
    offset rows under the default variances. exp runs through ``math``,
    which numpy's vectorized exp does not match in the last bit. Raises
    OverflowError as ``math.exp`` does; rows are not checked for NaN or
    negative extent."""
    v0, v1, v2, v3 = DEFAULT_VARIANCES
    acx, acy, aw, ah = anchor_cwh.T
    cx = acx + off[:, 0] * v0 * aw
    cy = acy + off[:, 1] * v1 * ah
    w = aw * np.fromiter(map(math.exp, (off[:, 2] * v2).tolist()), np.float64, len(off))
    h = ah * np.fromiter(map(math.exp, (off[:, 3] * v3).tolist()), np.float64, len(off))
    box = np.stack((cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h), axis=1)
    dw = v2 * (box[:, 2] - box[:, 0])
    dh = v3 * (box[:, 3] - box[:, 1])
    jac = np.zeros((len(off), 4, 4))
    jac[:, 0, 0] = jac[:, 2, 0] = v0 * aw
    jac[:, 1, 1] = jac[:, 3, 1] = v1 * ah
    jac[:, 0, 2], jac[:, 2, 2] = -0.5 * dw, 0.5 * dw
    jac[:, 1, 3], jac[:, 3, 3] = -0.5 * dh, 0.5 * dh
    return box, jac
