"""The scalar API: each function runs one ``detkit`` row kernel on one box
or one anchor and returns the scalar types of ``oracles``.

``iou``, ``encode``, ``decode`` and ``decode_jacobian`` run the geometry
kernels ``iou_rows``, ``encode_rows`` and ``decode_jacobian_rows`` on one
row; the per-term losses run the ``_*_arr`` kernels on length-1 arrays and
check their inputs first. The tests compare these with the independent
scalar copies in ``oracles``, and compose them anchor by anchor as the
reference for ``total_loss``, so each comparison reaches the code the CLI
runs. They live beside ``oracles`` rather than in it because they share
the library's code.
"""

from __future__ import annotations

import math

import numpy as np

from detkit.geometry import decode_jacobian_rows, encode_rows, iou_rows
from detkit.losses import (
    CEJI_IOU_GATE, BalanceL1Params, _balance_l1_arr, _ceji_positive_arr, _cross_entropy_arr, _l2_iou_arr,
    _r_iou_arr, _smooth_l1_arr,
)
from oracles import Box, IouValue, LossTerm, OffsetEncoding, _require_positive_extent

# ---------------------------------------------------------------------------
# geometry


def iou(a: Box, b: Box) -> IouValue:
    """IOU of two boxes with analytic derivatives: :func:`iou_rows` on the
    rows (a, b) for ``grad_a`` and (b, a) for ``grad_b``.

    Two degenerate (zero-area) boxes yield IOU 0 with zero gradient.
    """
    ab = np.array([a.as_tuple(), b.as_tuple()])
    value, grad = iou_rows(ab, ab[::-1], np.array([b.area, a.area]))
    return IouValue(float(value[0]), tuple(grad[0].tolist()), tuple(grad[1].tolist()))


def encode(anchor: Box, gt: Box) -> OffsetEncoding:
    """Encode a ground-truth box as offsets relative to an anchor:
    :func:`encode_rows` on one row."""
    _require_positive_extent(anchor, "anchor")
    _require_positive_extent(gt, "encoded box")
    cwh = np.array([(anchor.cx, anchor.cy, anchor.w, anchor.h)], dtype=np.float64)
    return OffsetEncoding(*encode_rows(cwh, np.array([gt.as_tuple()], dtype=np.float64))[0].tolist())


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


# ---------------------------------------------------------------------------
# losses


def _on_one(kernel, *scalars) -> list[float]:
    """``kernel`` run on length-1 float64 arrays: element 0 of each output."""
    return [float(out[0]) for out in kernel(*(np.array([v], dtype=np.float64) for v in scalars))]


def balance_l1(x: float, params: BalanceL1Params = BalanceL1Params()) -> LossTerm:
    """Piecewise regression loss: logarithmic gradient inside |x| < 1,
    constant gradient gamma outside."""
    value, grad = _on_one(lambda arr: _balance_l1_arr(arr, params), x)
    return LossTerm(value, {"x": grad})


def smooth_l1(x: float) -> LossTerm:
    """Huber-style baseline used by the original SSD regression head."""
    value, grad = _on_one(_smooth_l1_arr, x)
    return LossTerm(value, {"x": grad})


def r_iou_loss(p_iou: float, iou_tar: float) -> LossTerm:
    """Log-ratio loss between predicted and target IOU.

    Equals |ln(p) - ln(t)|: zero iff p == t, symmetric in its arguments,
    with gradient -1/p below the target and +1/p above (0 at equality).
    The prediction is clamped to [PROB_EPS, 1] first; a NaN prediction
    (or a target outside (0, 1]) is an error.
    """
    if math.isnan(p_iou):
        raise ValueError(f"invalid predicted IOU: {p_iou!r}")
    if not 0.0 < iou_tar <= 1.0:
        raise ValueError(f"invalid target IOU: {iou_tar!r}")
    value, d_p, d_t = _on_one(_r_iou_arr, p_iou, iou_tar)
    return LossTerm(value, {"p_iou": d_p, "iou_tar": d_t})


def l2_iou_loss(p_iou: float, iou_tar: float) -> LossTerm:
    """Ablation baseline: 0.5 * (p - t)^2."""
    if not 0.0 < iou_tar <= 1.0:
        raise ValueError(f"invalid target IOU: {iou_tar!r}")
    value, d_p, d_t = _on_one(_l2_iou_arr, p_iou, iou_tar)
    return LossTerm(value, {"p_iou": d_p, "iou_tar": d_t})


def cross_entropy(p_cls: float) -> LossTerm:
    """-ln(p) on the assigned class probability, clamped at PROB_EPS."""
    value, grad = _on_one(_cross_entropy_arr, p_cls)
    return LossTerm(value, {"p_cls": grad})


def ceji_loss(
    p_cls: float,
    iou_tar,
    is_positive: bool,
    detach_iou: bool = False,
) -> LossTerm:
    """Cross-entropy joint with the measured IOU.

    Positives with iou_tar >= 0.5 contribute -ln(p_cls * iou_tar); the
    gradient flows into p_cls and, unless ``detach_iou`` is set, through
    the IOU into the four coordinates of the regressed box (keys
    "x1".."y2", chained from ``iou_tar.grad_a``). Positives below the
    gate are ignored. Negatives contribute -ln(p_cls) on the background
    probability.

    ``iou_tar`` may be an :class:`~oracles.IouValue` (gradient
    carried) or a plain float (treated as detached).
    """
    t = iou_tar.value if hasattr(iou_tar, "value") else float(iou_tar)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"target IOU outside [0, 1]: {t!r}")

    box_keys = ("x1", "y1", "x2", "y2")
    grad = dict.fromkeys(("p_cls", "iou_tar") + box_keys, 0.0)
    if not is_positive:
        value, grad["p_cls"] = _on_one(_cross_entropy_arr, p_cls)
        return LossTerm(value, grad)

    value, grad["p_cls"], grad["iou_tar"] = _on_one(_ceji_positive_arr, p_cls, t)
    if t >= CEJI_IOU_GATE and not detach_iou and hasattr(iou_tar, "grad_a"):
        for key, d in zip(box_keys, iou_tar.grad_a):
            grad[key] = grad["iou_tar"] * d
    return LossTerm(value, grad)
