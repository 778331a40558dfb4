"""IOU-aware training losses with values and analytic gradients.

Three pieces: the balance-l1 regression loss, the log-ratio IOU
regression loss, and the IOU-joint cross-entropy whose positive branch
penalizes -ln(P_cls * IOU_tar) and lets gradient flow through the
measured IOU back into the regression outputs. Plain CE, 0.5*(p-t)^2 and
smooth-l1 baselines are included for ablations, plus the aggregate used
by the toy trainer.

Each formula is written once, as an array kernel (``_*_arr``). The public
per-term functions check their inputs, run the kernel on length-1 arrays
and return a :class:`LossTerm`. ``total_loss`` runs the kernels over all
anchors of an image and gives the same bits as composing the per-term
functions anchor by anchor: exp, log and log1p go through ``math``
element by element, because numpy's vectorized versions differ in the
last bit on a few percent of inputs; the IOU gradient reaches the
offsets through a batched ``np.matmul``, which rounds as the per-row
vector-matrix product does; sums are added left to right in the
per-anchor order; and hard negatives are ordered by a stable argsort on
-loss, which keeps ties in anchor order. Mining takes the log of each
distinct background probability once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, MatchResult
from .geometry import (
    DEFAULT_VARIANCES, box_areas, decode_jacobian_rows, encode_rows, extent_error, iou_rows, math_map,
)
from .nms import GroundTruths

PROB_EPS = 1e-6  # probability clamp against log singularities
CEJI_IOU_GATE = 0.5  # positives below this measured IOU are ignored
EXP_MAX = 709.782712893384  # the largest double whose math.exp does not overflow


@dataclass(frozen=True)
class BalanceL1Params:
    """alpha/gamma pair with the derived curvature b and continuity constant C.

    gamma = alpha * ln(b + 1) fixes b; C makes the two pieces agree at
    |x| = 1.
    """

    alpha: float = 0.5
    gamma: float = 1.5

    def __post_init__(self):
        if self.alpha <= 0.0 or self.gamma <= 0.0:
            raise ValueError("alpha and gamma must be positive")

    @property
    def b(self) -> float:
        return math.exp(self.gamma / self.alpha) - 1.0

    @property
    def C(self) -> float:
        b = self.b
        return (self.alpha / b) * (b + 1.0) * math.log(b + 1.0) - self.alpha - self.gamma


@dataclass(frozen=True)
class LossTerm:
    """A loss value with named partial derivatives."""

    value: float
    grad: dict[str, float]


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

    ``iou_tar`` may be an :class:`~detkit.geometry.IouValue` (gradient
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


CLS_LOSSES = ("ceji", "ce")
IOU_LOSSES = ("r_iou", "l2")
REG_LOSSES = ("balance_l1", "smooth_l1")
NEG_POS_RATIO = 3.0  # hard negatives mined per positive


@dataclass(frozen=True)
class LossConfig:
    """Which loss goes on which head; the ``losses`` object of a scenario
    config, whose JSON keys are these field names."""

    cls: str = "ceji"
    iou: str = "r_iou"
    reg: str = "balance_l1"
    detach_iou: bool = False

    def __post_init__(self):
        for head, name, allowed in (
            ("cls", self.cls, CLS_LOSSES), ("iou", self.iou, IOU_LOSSES), ("reg", self.reg, REG_LOSSES)
        ):
            if name not in allowed:
                raise ValueError(f"unknown {head} loss {name!r}, expected one of {list(allowed)}")


@dataclass
class HeadOutputs:
    """Per-anchor predictions: offsets (N,4), class probabilities (N,K+1)
    with background in column 0, and predicted IOU (N,)."""

    offsets: np.ndarray
    class_probs: np.ndarray
    p_iou: np.ndarray


@dataclass
class TotalLoss:
    value: float
    n_pos: int
    terms: dict[str, float]
    d_offsets: np.ndarray
    d_class_probs: np.ndarray
    d_p_iou: np.ndarray


# The array kernels: one formula each, shared by the per-term functions
# above and total_loss.


def _clamp_prob(p: np.ndarray) -> np.ndarray:
    """min(max(p, PROB_EPS), 1.0); NaN passes through."""
    p = np.where(PROB_EPS > p, PROB_EPS, p)
    return np.where(1.0 < p, 1.0, p)


def _log_once_per_value(p: np.ndarray) -> np.ndarray:
    """``math.log`` of each element, taken once per distinct bit pattern."""
    bits, inverse = np.unique(p.view(np.int64), return_inverse=True)
    return math_map(math.log, bits.view(np.float64))[inverse]


def _sequential_sum(values: np.ndarray) -> float:
    """0.0 + v0 + v1 + ..., left to right: np.sum adds pairwise, which
    rounds differently."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _balance_l1_arr(x: np.ndarray, params: BalanceL1Params = BalanceL1Params()):
    """Values and gradients of :func:`balance_l1`."""
    a, g, b = params.alpha, params.gamma, params.b
    ax = np.abs(x)
    sign = np.where(x == 0.0, 0.0, np.copysign(1.0, x))
    value = g * ax + params.C
    grad = g * sign
    inside = ax < 1.0
    u = b * ax[inside]
    log1p_u = math_map(math.log1p, u)
    inner = (a / b) * ((u + 1.0) * log1p_u - u)
    # (u+1)ln(u+1) - u is ~u^2/2 near 0; guard the cancellation there
    value[inside] = np.where(0.0 > inner, 0.0, inner)
    grad[inside] = a * log1p_u * sign[inside]
    return value, grad


def _smooth_l1_arr(x: np.ndarray):
    """Values and gradients of :func:`smooth_l1`."""
    ax = np.abs(x)
    inside = ax < 1.0
    return np.where(inside, 0.5 * x * x, ax - 0.5), np.where(inside, x, np.copysign(1.0, x))


def _r_iou_arr(p_iou: np.ndarray, iou_tar: np.ndarray):
    """Values and d/d(p_iou), d/d(iou_tar) of :func:`r_iou_loss`."""
    p, t = _clamp_prob(p_iou), iou_tar
    value, d_p, d_t = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    below, above = p < t, p > t
    value[below] = -math_map(math.log, p[below] / t[below])
    d_p[below] = -1.0 / p[below]
    d_t[below] = 1.0 / t[below]
    value[above] = -math_map(math.log, t[above] / p[above])
    d_p[above] = 1.0 / p[above]
    d_t[above] = -1.0 / t[above]
    return value, d_p, d_t


def _l2_iou_arr(p_iou: np.ndarray, iou_tar: np.ndarray):
    """Values and d/d(p_iou), d/d(iou_tar) of :func:`l2_iou_loss`."""
    d = _clamp_prob(p_iou) - iou_tar
    return 0.5 * d * d, d, -d


def _cross_entropy_arr(p_cls: np.ndarray):
    """Values and gradients of :func:`cross_entropy`."""
    p = _clamp_prob(p_cls)
    return -math_map(math.log, p), -1.0 / p


def _ceji_positive_arr(p_cls: np.ndarray, iou_tar: np.ndarray):
    """Values and d/d(p_cls), d/d(iou_tar) of :func:`ceji_loss` on positives;
    all three are zero below the gate."""
    p, t = _clamp_prob(p_cls), iou_tar
    value, d_p, d_t = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    active = t >= CEJI_IOU_GATE
    value[active] = -math_map(math.log, p[active] * t[active])
    d_p[active] = -1.0 / p[active]
    d_t[active] = -1.0 / t[active]
    return value, d_p, d_t


def _chain(d_box: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Row-wise ``d_box[i] @ jac[i]``. A batched matmul rounds as the
    per-row vector-matrix product does; einsum or an explicit sum do not."""
    return np.matmul(d_box[:, None, :], jac)[:, 0, :]


def _raise_first_failure(overflows, box, iou_tar, p_iou, cfg: LossConfig) -> None:
    """Raise what the per-term functions raise for the first positive that fails them, in their per-anchor order:
    OverflowError from exp, ValueError from a NaN box, a bad ceji target or a NaN r_iou prediction past the gate."""
    fails = np.stack((  # (kind, positive), kinds in the order the per-term functions check them
        overflows,
        ~((box[:, 2] >= box[:, 0]) & (box[:, 3] >= box[:, 1])),
        ~((iou_tar >= 0.0) & (iou_tar <= 1.0)) & (cfg.cls == "ceji"),
        (iou_tar >= CEJI_IOU_GATE) & np.isnan(p_iou) & (cfg.iou == "r_iou"),
    ))
    if fails.any():
        i = int(np.argmax(fails.any(axis=0)))
        raise (OverflowError("math range error"), extent_error(box[i]),
               ValueError(f"target IOU outside [0, 1]: {float(iou_tar[i])!r}"),
               ValueError(f"invalid predicted IOU: {p_iou[i]!r}"))[int(np.argmax(fails[:, i]))]


def total_loss(
    match: MatchResult,
    preds: HeadOutputs,
    anchors: AnchorSet,
    gts: GroundTruths,
    cfg: LossConfig = LossConfig(),
) -> TotalLoss:
    """Aggregate loss over one image, normalized by the positive count.

    Classification uses the configured CE variant over positives plus
    hard-negative mining at ``NEG_POS_RATIO``:1 on the background
    probability; regression applies the configured residual loss to the
    four offset components of each positive; the IOU head is trained only
    on positives whose measured IOU passes the 0.5 gate. The measured IOU
    is a function of the predicted offsets, and its gradient chains back
    into them (from both the CEJI positive branch and the IOU-head
    target) so the aggregate is exactly the derivative of its value;
    ``detach_iou`` stop-gradients both chains. With zero positives the
    regression and IOU terms vanish and the classification term (all
    negatives) is normalized by the anchor count instead.

    Bit for bit this is the per-anchor composition of the per-term loss
    functions: one array pass over the positives and the negatives, with
    each sum added left to right (cls over the positives then the mined
    negatives, reg positive-major, iou over the gated positives). Mined
    negatives are taken in order of descending loss, ties by anchor index.
    """
    pos, neg = match.positive_indices, match.negative_indices
    pos_gt = match.gt_index[pos]
    pos_cls = gts.class_id[pos_gt]
    gt_box = gts.boxes[pos_gt]
    n_pos = len(pos)
    d_off = np.zeros_like(preds.offsets)
    d_cls = np.zeros_like(preds.class_probs)
    d_piou = np.zeros_like(preds.p_iou)
    reg_sum = iou_sum = 0.0
    pos_cls_values = np.zeros(0)

    if n_pos:
        off = preds.offsets[pos]
        p_iou = preds.p_iou[pos]
        anchor_cwh = anchors.cwh[pos]
        t_wh = off[:, 2:] * DEFAULT_VARIANCES[2:]
        overflows = ((t_wh > EXP_MAX) & (t_wh < math.inf)).any(axis=1)  # math.exp would raise
        with np.errstate(all="ignore"):  # failing rows, which raise below
            box, jac = decode_jacobian_rows(anchor_cwh, np.where(overflows[:, None], 0.0, off))
            iou_tar, d_iou_box = iou_rows(box, gt_box, box_areas(gt_box))
        _raise_first_failure(overflows, box, iou_tar, p_iou, cfg)
        p_cls = preds.class_probs[pos, pos_cls]

        if cfg.cls == "ceji":
            pos_cls_values, d_p, d_t = _ceji_positive_arr(p_cls, iou_tar)
            chained = (iou_tar >= CEJI_IOU_GATE) & (not cfg.detach_iou)
            d_off[pos] += _chain(np.where(chained[:, None], d_t[:, None] * d_iou_box, 0.0), jac)
        else:
            pos_cls_values, d_p = _cross_entropy_arr(p_cls)
        d_cls[pos, pos_cls] += d_p

        reg_fn = _balance_l1_arr if cfg.reg == "balance_l1" else _smooth_l1_arr
        reg_values, d_reg = reg_fn(off - encode_rows(anchor_cwh, gt_box))
        reg_sum = _sequential_sum(reg_values.ravel())
        d_off[pos] += d_reg

        # IOU head, gated on regression quality; the measured target also
        # depends on the offsets, so its chain flows unless detached
        gated = np.flatnonzero(iou_tar >= CEJI_IOU_GATE)
        iou_fn = _r_iou_arr if cfg.iou == "r_iou" else _l2_iou_arr
        iou_values, d_p, d_t = iou_fn(p_iou[gated], iou_tar[gated])
        iou_sum = _sequential_sum(iou_values)
        d_piou[pos[gated]] += d_p
        if not cfg.detach_iou:
            d_off[pos[gated]] += _chain(d_t[:, None] * d_iou_box[gated], jac[gated])

    # hard-negative mining on the background probability: most negatives
    # share a few clamped probabilities, so each distinct one is logged once
    p_bg = _clamp_prob(preds.class_probs[neg, 0])
    neg_values = -_log_once_per_value(p_bg)
    mined = np.arange(len(neg))
    if n_pos:
        n_mined = min(int(NEG_POS_RATIO * n_pos), len(neg))
        mined = np.argsort(-neg_values, kind="stable")[:n_mined]  # ties keep anchor order
    d_cls[neg[mined], 0] += -1.0 / p_bg[mined]
    cls_sum = _sequential_sum(np.concatenate((pos_cls_values, neg_values[mined])))

    norm = float(n_pos) if n_pos else float(max(len(anchors), 1))
    value = (cls_sum + reg_sum + iou_sum) / norm
    inv = 1.0 / norm
    return TotalLoss(
        value=value,
        n_pos=n_pos,
        terms={"cls": cls_sum / norm, "reg": reg_sum / norm, "iou": iou_sum / norm},
        d_offsets=d_off * inv,
        d_class_probs=d_cls * inv,
        d_p_iou=d_piou * inv,
    )
