"""Axis-aligned box geometry on arrays of rows: IOU with analytic
derivatives and SSD-style offset encoding/decoding.

Boxes are corner rows (x1, y1, x2, y2); anchors for encode/decode are
center rows (cx, cy, w, h). The IOU rule is written once, in
``iou_terms``; the IOU gradient, the offset encoding and the decode
Jacobian are written once, in the row kernels ``iou_rows``,
``encode_rows`` and ``decode_jacobian_rows``. The scalar box type and the
one-box wrappers the tests call live in ``tests/``. All are pure and
thread-safe.
"""

from __future__ import annotations

import math
import numpy as np

# SSD prior-box variances (cx, cy, w, h).
DEFAULT_VARIANCES = (0.1, 0.1, 0.2, 0.2)


def math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` applied to each element of a float array. numpy's
    vectorized exp and log differ from ``math``'s in the last bit on a few
    percent of inputs; ``math`` also raises where they would warn."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def box_text(row) -> str:
    """``Box(x1=..., y1=..., x2=..., y2=...)``, the text that names one corner row in error messages; each corner
    is written as a Python float, so a NumPy scalar shows as ``nan``, not ``np.float64(nan)``."""
    return "Box(%s)" % ", ".join(f"{name}={float(v)!r}" for name, v in zip(("x1", "y1", "x2", "y2"), row))


def extent_error(row) -> ValueError:
    """The ValueError for a corner row of negative extent or NaN: ``negative box extent: Box(...)``."""
    return ValueError(f"negative box extent: {box_text(row)}")


def iou_terms(a, a_area, b, b_area):
    """The IOU rule step by step on broadcast corner columns ``a``, ``b`` and their areas: ``iw, ih, inter,
    union`` and the mask ``zero`` where the IOU is 0 (``iw <= 0``, ``ih <= 0`` or ``union <= 0``); elsewhere it is
    ``inter / union``. Callers silence the warnings of what they mask out."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = a_area + b_area - inter
    return iw, ih, inter, union, (iw <= 0.0) | (ih <= 0.0) | (union <= 0.0)


def iou_rows(a: np.ndarray, b: np.ndarray, b_area: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IOU of each corner row of ``a`` (P, 4) against the same row of ``b``, given ``b``'s areas: values (P,)
    under :func:`iou_terms`' rule, and ``grad_a`` (P, 4), d(iou)/d(x1, y1, x2, y2) of each row of ``a``.

    Subgradient conventions: on the zero branch (touching edges, zero-width
    overlap, two degenerate boxes) the gradient is 0; when an intersection
    edge is defined by coincident coordinates of both boxes, the derivative
    is split evenly between them, which makes identical boxes a stationary
    point."""
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
    """Area (x2 - x1) * (y2 - y1) of each corner row."""
    return (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])


def iou_matrix(a, b) -> np.ndarray:
    """IOU of each pair of (N, 4) and (M, 4) corner rows, arrays or nested lists, under :func:`iou_terms`' rule."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _, _, inter, union, zero = iou_terms(a.T[:, :, None], box_areas(a)[:, None], b.T[:, None, :], box_areas(b))
    return np.divide(inter, union, out=np.zeros_like(inter), where=~zero)


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
