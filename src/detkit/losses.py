"""IOU-aware training losses with values and analytic gradients.

Three pieces: the balance-l1 regression loss, the log-ratio IOU
regression loss, and the IOU-joint cross-entropy whose positive branch
penalizes -ln(P_cls * IOU_tar) and lets gradient flow through the
measured IOU back into the regression outputs. Plain CE, 0.5*(p-t)^2 and
smooth-l1 baselines are included for ablations, plus the aggregate used
by the toy trainer.

Each formula is written once, as an array kernel (``_*_arr``).
``total_loss`` runs the kernels over all anchors of a batch of images at
once, one image being the batch of one, and gives each image the same
bits as composing the per-term losses anchor by anchor on that image:
exp, log and log1p go through ``math`` element by element, because
numpy's vectorized versions differ in the last bit on a few percent of
inputs; the IOU gradient reaches the offsets through a batched
``np.matmul``, which rounds as the per-row vector-matrix product does;
each image's sums are added left to right in the per-anchor order; and
each image's hard negatives are ordered by a stable lexsort on (image,
-loss), which keeps ties in anchor order. Mining takes the log of each
distinct background probability of the batch once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, MatchResult
from .geometry import (
    DEFAULT_VARIANCES, box_areas, box_text, decode_jacobian_rows, encode_rows, extent_error, iou_rows, math_map,
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
    with background in column 0, and predicted IOU (N,); a batch of images
    stacks them along a leading axis."""

    offsets: np.ndarray
    class_probs: np.ndarray
    p_iou: np.ndarray


@dataclass
class TotalLoss:
    """The loss of each image of a batch of k, and its gradients."""

    value: np.ndarray  # (k,)
    n_pos: np.ndarray  # (k,) int
    terms: dict[str, np.ndarray]  # cls, reg, iou: (k,) each
    d_offsets: np.ndarray  # (k, N, 4)
    d_class_probs: np.ndarray  # (k, N, K+1)
    d_p_iou: np.ndarray  # (k, N)
    iou_tar: np.ndarray  # (P,) the measured IOU of each positive's decoded box, image-major


# The array kernels: one formula each, run by total_loss.


def _clamp_prob(p: np.ndarray) -> np.ndarray:
    """min(max(p, PROB_EPS), 1.0); NaN passes through."""
    p = np.where(PROB_EPS > p, PROB_EPS, p)
    return np.where(1.0 < p, 1.0, p)


def _log_once_per_value(p: np.ndarray) -> np.ndarray:
    """``math.log`` of each element, taken once per distinct bit pattern."""
    bits, inverse = np.unique(p.view(np.int64), return_inverse=True)
    return math_map(math.log, bits.view(np.float64))[inverse]


def _balance_l1_arr(x: np.ndarray, params: BalanceL1Params = BalanceL1Params()):
    """Values and gradients of balance-l1: logarithmic gradient inside |x| < 1, constant gamma outside."""
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
    """Values and gradients of smooth-l1, the Huber-style baseline of the original SSD regression head."""
    ax = np.abs(x)
    inside = ax < 1.0
    value = ax - 0.5
    value[inside] = 0.5 * x[inside] * x[inside]  # squared only inside, where it cannot overflow
    return value, np.where(inside, x, np.copysign(1.0, x))


def _r_iou_arr(p_iou: np.ndarray, iou_tar: np.ndarray):
    """Values and d/d(p_iou), d/d(iou_tar) of |ln(p) - ln(t)|, p clamped to [PROB_EPS, 1]."""
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
    """Values and d/d(p_iou), d/d(iou_tar) of the ablation baseline 0.5 * (p - t)^2."""
    d = _clamp_prob(p_iou) - iou_tar
    return 0.5 * d * d, d, -d


def _cross_entropy_arr(p_cls: np.ndarray):
    """Values and gradients of -ln(p), p clamped at PROB_EPS."""
    p = _clamp_prob(p_cls)
    return -math_map(math.log, p), -1.0 / p


def _ceji_positive_arr(p_cls: np.ndarray, iou_tar: np.ndarray):
    """Values and d/d(p_cls), d/d(iou_tar) of CEJI's positive branch -ln(p_cls * iou_tar); all three are zero
    below the gate."""
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


def _raise_first_failure(overflows, box, iou_tar, gt_box, p_iou, cfg: LossConfig) -> None:
    """Raise what the per-anchor composition of the loss terms raises for the first positive that fails them, in
    image and then per-anchor order: OverflowError from exp, ValueError from a NaN box, a bad ceji target, a
    matched ground truth of zero width or height, which the target encoding refuses, or a NaN r_iou prediction
    past the gate."""
    fails = np.stack((  # (kind, positive), kinds in the order the per-anchor composition checks them
        overflows,
        ~((box[:, 2] >= box[:, 0]) & (box[:, 3] >= box[:, 1])),
        ~((iou_tar >= 0.0) & (iou_tar <= 1.0)) & (cfg.cls == "ceji"),
        (gt_box[:, 2] - gt_box[:, 0] <= 0.0) | (gt_box[:, 3] - gt_box[:, 1] <= 0.0),
        (iou_tar >= CEJI_IOU_GATE) & np.isnan(p_iou) & (cfg.iou == "r_iou"),
    ))
    if fails.any():
        i = int(np.argmax(fails.any(axis=0)))
        raise (OverflowError("math range error"), extent_error(box[i]),
               ValueError(f"target IOU outside [0, 1]: {float(iou_tar[i])!r}"),
               ValueError(f"encoded box must have strictly positive width and height: {box_text(gt_box[i])}"),
               ValueError(f"invalid predicted IOU: {p_iou[i]!r}"))[int(np.argmax(fails[:, i]))]


def _segment_sums(values: np.ndarray, segment: np.ndarray, k: int) -> np.ndarray:
    """Per segment of ``k``: 0.0 + v0 + v1 + ... over its ``values`` in their order, left to right (np.sum adds
    pairwise, which rounds differently). The segments' rows are zero-padded to one length; adding 0.0 keeps
    every running sum's bits, as the sum starts at +0.0 and so is never -0.0."""
    order = np.argsort(segment, kind="stable")
    counts = np.bincount(segment, minlength=k)
    table = np.zeros((k, 1 + counts.max(initial=0)))
    table[segment[order], 1 + np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)] = values[order]
    return np.cumsum(table, axis=1)[:, -1]


def total_loss(
    match: MatchResult,
    preds: HeadOutputs,
    anchors: AnchorSet,
    gts: list[GroundTruths],
    cfg: LossConfig = LossConfig(),
) -> TotalLoss:
    """Aggregate loss over each image of a batch, normalized by the image's
    positive count.

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

    Bit for bit this is the per-anchor composition of the loss terms: one
    array pass over the positives and the negatives, with each sum added
    left to right (cls over the positives then the mined
    negatives, reg positive-major, iou over the gated positives). Mined
    negatives are taken in order of descending loss, ties by anchor index.

    The k images of a batch take one pass. ``match`` and ``preds`` hold
    them along a leading axis (``gt_index`` (k, N), ``offsets`` (k, N, 4)
    and so on), ``gts`` is the list of their ground truths, and every field
    of the result but ``iou_tar`` has that axis too; ``iou_tar`` runs over
    the batch's positives, image-major, ``n_pos`` of them per image. Each image's sums, mined count and
    normalisation are its own, so each image's result is the image's
    alone, bit for bit; one image is the batch of one. A batch raises the
    error of its first failing positive in image order, which is what the
    images one at a time raise first for matches from ``match_anchors``.
    """
    k, n = len(gts), len(anchors)
    offsets = preds.offsets.reshape(k * n, 4)
    class_probs = preds.class_probs.reshape(k * n, preds.class_probs.shape[-1])
    p_iou_all = preds.p_iou.reshape(k * n)
    pos, neg = match.positive_indices, match.negative_indices  # flat over the batch, image-major
    pos_image, neg_image = pos // max(n, 1), neg // max(n, 1)
    gt_start = np.cumsum([0] + [len(g.boxes) for g in gts])[:-1]
    pos_gt = match.gt_index.reshape(k * n)[pos] + gt_start[pos_image]
    pos_cls = np.concatenate([g.class_id for g in gts])[pos_gt]
    gt_box = np.concatenate([g.boxes for g in gts])[pos_gt]
    n_pos = np.bincount(pos_image, minlength=k)
    d_off = np.zeros_like(offsets)
    d_cls = np.zeros_like(class_probs)
    d_piou = np.zeros_like(p_iou_all)
    pos_cls_values = reg_values = iou_values = iou_tar = np.zeros(0)
    gated = np.zeros(0, dtype=np.intp)

    if len(pos):
        off = offsets[pos]
        p_iou = p_iou_all[pos]
        anchor_cwh = anchors.cwh[pos % n]
        t_wh = off[:, 2:] * DEFAULT_VARIANCES[2:]
        overflows = ((t_wh > EXP_MAX) & (t_wh < math.inf)).any(axis=1)  # math.exp would raise
        with np.errstate(all="ignore"):  # failing rows, which raise below
            box, jac = decode_jacobian_rows(anchor_cwh, np.where(overflows[:, None], 0.0, off))
            iou_tar, d_iou_box = iou_rows(box, gt_box, box_areas(gt_box))
        _raise_first_failure(overflows, box, iou_tar, gt_box, p_iou, cfg)
        p_cls = class_probs[pos, pos_cls]

        if cfg.cls == "ceji":
            pos_cls_values, d_p, d_t = _ceji_positive_arr(p_cls, iou_tar)
            chained = (iou_tar >= CEJI_IOU_GATE) & (not cfg.detach_iou)
            d_off[pos] += _chain(np.where(chained[:, None], d_t[:, None] * d_iou_box, 0.0), jac)
        else:
            pos_cls_values, d_p = _cross_entropy_arr(p_cls)
        d_cls[pos, pos_cls] += d_p

        reg_fn = _balance_l1_arr if cfg.reg == "balance_l1" else _smooth_l1_arr
        reg_values, d_reg = reg_fn(off - encode_rows(anchor_cwh, gt_box))
        d_off[pos] += d_reg

        # IOU head, gated on regression quality; the measured target also
        # depends on the offsets, so its chain flows unless detached
        gated = np.flatnonzero(iou_tar >= CEJI_IOU_GATE)
        iou_fn = _r_iou_arr if cfg.iou == "r_iou" else _l2_iou_arr
        iou_values, d_p, d_t = iou_fn(p_iou[gated], iou_tar[gated])
        d_piou[pos[gated]] += d_p
        if not cfg.detach_iou:
            d_off[pos[gated]] += _chain(d_t[:, None] * d_iou_box[gated], jac[gated])

    # hard-negative mining on the background probability: most negatives
    # share a few clamped probabilities, so each distinct one is logged once.
    # Each image's negatives in order of descending loss, ties in anchor
    # order; an image without positives mines all of them in anchor order
    p_bg = _clamp_prob(class_probs[neg, 0])
    neg_values = -_log_once_per_value(p_bg)
    n_neg = np.bincount(neg_image, minlength=k)
    n_mined = np.where(n_pos > 0, np.minimum((NEG_POS_RATIO * n_pos).astype(np.intp), n_neg), n_neg)
    order = np.lexsort((np.where(n_pos[neg_image] > 0, -neg_values, 0.0), neg_image))
    mined = np.concatenate([order[start:start + m] for start, m in zip(np.cumsum(n_neg) - n_neg, n_mined)])
    d_cls[neg[mined], 0] += -1.0 / p_bg[mined]
    # each image's three sums, one sum per (term, image): cls over the positives then the mined negatives,
    # reg positive-major, iou over the gated positives
    cls_sum, reg_sum, iou_sum = _segment_sums(
        np.concatenate((pos_cls_values, neg_values[mined], reg_values.ravel(), iou_values)),
        np.concatenate((pos_image, neg_image[mined], k + np.repeat(pos_image, 4), 2 * k + pos_image[gated])),
        3 * k).reshape(3, k)

    norm = np.where(n_pos > 0, n_pos, max(n, 1)).astype(np.float64)
    inv = 1.0 / norm
    # only the positives' and the mined negatives' rows are nonzero; 0.0 * inv is 0.0 on the others
    touched, scale = np.concatenate((pos, neg[mined])), inv[np.concatenate((pos_image, neg_image[mined]))]
    d_off[touched] *= scale[:, None]
    d_cls[touched] *= scale[:, None]
    d_piou[touched] *= scale
    return TotalLoss(
        value=(cls_sum + reg_sum + iou_sum) / norm,
        n_pos=n_pos,
        terms={"cls": cls_sum / norm, "reg": reg_sum / norm, "iou": iou_sum / norm},
        d_offsets=d_off.reshape(k, n, 4),
        d_class_probs=d_cls.reshape(k, n, class_probs.shape[1]),
        d_p_iou=d_piou.reshape(k, n),
        iou_tar=iou_tar,
    )
