"""IOU-aware training losses with values and analytic gradients.

Three pieces: the balance-l1 regression loss, the log-ratio IOU
regression loss, and the IOU-joint cross-entropy whose positive branch
penalizes -ln(P_cls * IOU_tar) and lets gradient flow through the
measured IOU back into the regression outputs. Plain CE, 0.5*(p-t)^2 and
smooth-l1 baselines are included for ablations, plus the aggregate used
by the toy trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, MatchResult
from .geometry import DEFAULT_VARIANCES, Box, OffsetEncoding, decode_jacobian, encode, iou

PROB_EPS = 1e-6  # probability clamp against log singularities
CEJI_IOU_GATE = 0.5  # positives below this measured IOU are ignored


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


def balance_l1(x: float, params: BalanceL1Params = BalanceL1Params()) -> LossTerm:
    """Piecewise regression loss: logarithmic gradient inside |x| < 1,
    constant gradient gamma outside."""
    a, g, b = params.alpha, params.gamma, params.b
    ax = abs(x)
    sign = 0.0 if x == 0.0 else math.copysign(1.0, x)
    if ax < 1.0:
        u = b * ax
        # (u+1)ln(u+1) - u is ~u^2/2 near 0; guard the cancellation there
        value = max((a / b) * ((u + 1.0) * math.log1p(u) - u), 0.0)
        grad = a * math.log1p(u) * sign
    else:
        value = g * ax + params.C
        grad = g * sign
    return LossTerm(value, {"x": grad})


def smooth_l1(x: float) -> LossTerm:
    """Huber-style baseline used by the original SSD regression head."""
    ax = abs(x)
    if ax < 1.0:
        return LossTerm(0.5 * x * x, {"x": x})
    return LossTerm(ax - 0.5, {"x": math.copysign(1.0, x)})


def r_iou_loss(p_iou: float, iou_tar: float) -> LossTerm:
    """Log-ratio loss between predicted and target IOU.

    Equals |ln(p) - ln(t)|: zero iff p == t, symmetric in its arguments,
    with gradient -1/p below the target and +1/p above (0 at equality).
    The prediction is clamped to [PROB_EPS, 1] first; a non-positive
    value surviving the clamp (or a target outside (0, 1]) is an error.
    """
    p = min(max(p_iou, PROB_EPS), 1.0)
    if not p > 0.0:
        raise ValueError(f"invalid predicted IOU: {p_iou!r}")
    if not 0.0 < iou_tar <= 1.0:
        raise ValueError(f"invalid target IOU: {iou_tar!r}")
    if p < iou_tar:
        return LossTerm(-math.log(p / iou_tar), {"p_iou": -1.0 / p, "iou_tar": 1.0 / iou_tar})
    if p > iou_tar:
        return LossTerm(-math.log(iou_tar / p), {"p_iou": 1.0 / p, "iou_tar": -1.0 / iou_tar})
    return LossTerm(0.0, {"p_iou": 0.0, "iou_tar": 0.0})


def l2_iou_loss(p_iou: float, iou_tar: float) -> LossTerm:
    """Ablation baseline: 0.5 * (p - t)^2."""
    p = min(max(p_iou, PROB_EPS), 1.0)
    if not 0.0 < iou_tar <= 1.0:
        raise ValueError(f"invalid target IOU: {iou_tar!r}")
    d = p - iou_tar
    return LossTerm(0.5 * d * d, {"p_iou": d, "iou_tar": -d})


def cross_entropy(p_cls: float) -> LossTerm:
    """-ln(p) on the assigned class probability, clamped at PROB_EPS."""
    p = min(max(p_cls, PROB_EPS), 1.0)
    return LossTerm(-math.log(p), {"p_cls": -1.0 / p})


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
    p = min(max(p_cls, PROB_EPS), 1.0)
    t = iou_tar.value if hasattr(iou_tar, "value") else float(iou_tar)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"target IOU outside [0, 1]: {t!r}")

    box_keys = ("x1", "y1", "x2", "y2")
    zeros = dict.fromkeys(("p_cls", "iou_tar") + box_keys, 0.0)

    if not is_positive:
        return LossTerm(-math.log(p), {**zeros, "p_cls": -1.0 / p})
    if t < CEJI_IOU_GATE:
        return LossTerm(0.0, zeros)

    grad = dict(zeros)
    grad["p_cls"] = -1.0 / p
    grad["iou_tar"] = -1.0 / t
    if not detach_iou and hasattr(iou_tar, "grad_a"):
        for key, d in zip(box_keys, iou_tar.grad_a):
            grad[key] = (-1.0 / t) * d
    return LossTerm(-math.log(p * t), grad)


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


def total_loss(
    match: MatchResult,
    preds: HeadOutputs,
    anchors: AnchorSet,
    gts: list[Box],
    gt_classes: list[int],
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
    """
    n = len(anchors)
    d_off = np.zeros_like(preds.offsets)
    d_cls = np.zeros_like(preds.class_probs)
    d_piou = np.zeros_like(preds.p_iou)

    reg_fn = balance_l1 if cfg.reg == "balance_l1" else smooth_l1  # balance-l1 at its default alpha, gamma
    iou_fn = r_iou_loss if cfg.iou == "r_iou" else l2_iou_loss

    pos = match.positive_indices
    cls_sum = reg_sum = iou_sum = 0.0

    for a in pos:
        g = match.gt_index[a]
        gt = gts[g]
        anchor = anchors.boxes[a]
        off = OffsetEncoding(*preds.offsets[a], variances=DEFAULT_VARIANCES)
        decoded, jac = decode_jacobian(anchor, off)
        iou_tar = iou(decoded, gt)

        # classification on the ground-truth class probability
        c = gt_classes[g]
        p_cls = preds.class_probs[a, c]
        if cfg.cls == "ceji":
            term = ceji_loss(p_cls, iou_tar, True, detach_iou=cfg.detach_iou)
            cls_sum += term.value
            d_cls[a, c] += term.grad["p_cls"]
            d_box = np.array([term.grad[k] for k in ("x1", "y1", "x2", "y2")])
            d_off[a] += d_box @ jac
        else:
            term = cross_entropy(p_cls)
            cls_sum += term.value
            d_cls[a, c] += term.grad["p_cls"]

        # regression on the four offset residuals
        target = encode(anchor, gt)
        for k, (pred_k, tar_k) in enumerate(zip(preds.offsets[a], target.as_tuple())):
            term = reg_fn(pred_k - tar_k)
            reg_sum += term.value
            d_off[a, k] += term.grad["x"]

        # IOU head, gated on regression quality; the measured target also
        # depends on the offsets, so its chain flows unless detached
        if iou_tar.value >= CEJI_IOU_GATE:
            term = iou_fn(preds.p_iou[a], iou_tar.value)
            iou_sum += term.value
            d_piou[a] += term.grad["p_iou"]
            if not cfg.detach_iou:
                d_box = term.grad["iou_tar"] * np.array(iou_tar.grad_a)
                d_off[a] += d_box @ jac

    # hard-negative mining on the background probability
    neg = match.negative_indices
    if pos:
        n_mined = min(int(NEG_POS_RATIO * len(pos)), len(neg))
        if n_mined > 0:
            neg_losses = [(-math.log(min(max(preds.class_probs[a, 0], PROB_EPS), 1.0)), a) for a in neg]
            neg_losses.sort(key=lambda t: (-t[0], t[1]))
            mined = [a for _, a in neg_losses[:n_mined]]
        else:
            mined = []
    else:
        mined = list(neg)

    for a in mined:
        term = cross_entropy(preds.class_probs[a, 0])
        cls_sum += term.value
        d_cls[a, 0] += term.grad["p_cls"]

    norm = float(len(pos)) if pos else float(max(n, 1))
    value = (cls_sum + reg_sum + iou_sum) / norm
    inv = 1.0 / norm
    return TotalLoss(
        value=value,
        n_pos=len(pos),
        terms={"cls": cls_sum / norm, "reg": reg_sum / norm, "iou": iou_sum / norm},
        d_offsets=d_off * inv,
        d_class_probs=d_cls * inv,
        d_p_iou=d_piou * inv,
    )
