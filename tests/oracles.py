"""Reference implementations the tests compare the library against.

Each is an independent, deliberately plain copy of a definition:

- the scalar loss terms and the scalar IOU, encode and decode, one Python
  float operation at a time, as they stood before the library computed
  them through its array kernels. The kernels and the public wrappers
  around them must match these bit for bit, exceptions and messages
  included;
- default-box tiling, anchor matching, ground-truth sampling and scenario
  head synthesis as the per-cell, per-anchor and per-box loops they were
  before the library built them as arrays; the arrays must match these
  bit for bit;
- brute-force greedy NMS and brute-force AP over tiny instances, on
  per-object detection records rather than the library's table;
- the COCO evaluator as it stood before it ranked each class once and
  matched against ground truths in table order: each area range moves its
  ignored ground truths last, and each threshold sorts Python records.
  The library's ``evaluate`` must match it bit for bit;
- the two-box score-flip scenario of the paper's IOU-guided NMS;
- the CSV text of rows written one at a time by a plain ``csv.writer``,
  which the column-wise writer must match byte for byte.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from detkit.anchors import POSITIVE_IOU_THRESHOLD, FeatureLevelSpec
from detkit.evaluation import (AREA_RANGES, IOU_THRESHOLDS, MAX_DETECTIONS_PER_IMAGE, RECALL_GRID, RECALL_POINTS,
                               ApReport)
from detkit.geometry import (DEFAULT_VARIANCES, Box, IouValue, OffsetEncoding, _require_positive_extent, iou_matrix,
                             iou_value)
from detkit.harness.config import ScenarioConfig
from detkit.harness.scenario import scenario_levels
from detkit.losses import CEJI_IOU_GATE, PROB_EPS, BalanceL1Params, HeadOutputs, LossTerm
from detkit.nms import DEFAULT_IOU_THRESHOLD, SCORE_FLOOR, Detections, GroundTruths, checked_areas

BRUTEFORCE_LIMIT = 12  # most boxes the brute-force oracles accept


# ---------------------------------------------------------------------------
# geometry


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


def encode(anchor: Box, gt: Box) -> OffsetEncoding:
    """Encode a ground-truth box as offsets relative to an anchor."""
    _require_positive_extent(anchor, "anchor")
    _require_positive_extent(gt, "encoded box")
    v0, v1, v2, v3 = DEFAULT_VARIANCES
    return OffsetEncoding(
        (gt.cx - anchor.cx) / (anchor.w * v0),
        (gt.cy - anchor.cy) / (anchor.h * v1),
        math.log(gt.w / anchor.w) / v2,
        math.log(gt.h / anchor.h) / v3,
    )


def decode(anchor: Box, off: OffsetEncoding) -> Box:
    """Invert ``encode``; differentiable in the offsets."""
    _require_positive_extent(anchor, "anchor")
    v0, v1, v2, v3 = DEFAULT_VARIANCES
    cx = anchor.cx + off.t_cx * v0 * anchor.w
    cy = anchor.cy + off.t_cy * v1 * anchor.h
    w = anchor.w * math.exp(off.t_w * v2)
    h = anchor.h * math.exp(off.t_h * v3)
    return Box.from_center(cx, cy, w, h)


def decode_jacobian(anchor: Box, off: OffsetEncoding) -> tuple[Box, np.ndarray]:
    """Decode plus the 4x4 Jacobian d(x1,y1,x2,y2)/d(t_cx,t_cy,t_w,t_h)."""
    _require_positive_extent(anchor, "anchor")
    v0, v1, v2, v3 = DEFAULT_VARIANCES
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


# ---------------------------------------------------------------------------
# anchors and scenario synthesis


def default_boxes(
    input_size: float, levels: list[FeatureLevelSpec], clip: bool = True
) -> tuple[list[Box], list[int], list[int], list[int]]:
    """Boxes and their level, cell and template indices, one cell and
    template at a time: level-major, row-major cells, then templates."""
    boxes: list[Box] = []
    level_index: list[int] = []
    cell_index: list[int] = []
    template_index: list[int] = []
    for lv, spec in enumerate(levels):
        base = spec.scale_ratio * input_size
        extra = (spec.scale_ratio * spec.next_scale_ratio) ** 0.5 * input_size
        templates = [(base * ar**0.5, base / ar**0.5) for ar in spec.aspect_ratios]
        templates.append((extra, extra))
        for i in range(spec.grid_h):
            cy = (i + 0.5) * spec.stride
            for j in range(spec.grid_w):
                cx = (j + 0.5) * spec.stride
                cell = i * spec.grid_w + j
                for t, (w, h) in enumerate(templates):
                    box = Box.from_center(cx, cy, w, h)
                    if clip:
                        box = box.clipped(input_size, input_size)
                    boxes.append(box)
                    level_index.append(lv)
                    cell_index.append(cell)
                    template_index.append(t)
    return boxes, level_index, cell_index, template_index


def match_anchors(anchors: list[Box], gts: list[Box]) -> tuple[list[int], list[float]]:
    """Per anchor: the matched ground-truth index (-1 for a negative) and
    the best IOU. Positive above the threshold, to the first best ground
    truth; then each overlapping ground truth in turn claims its first
    best anchor."""
    ious = [[iou_value(a, g) for g in gts] for a in anchors]
    gt_index = [-1] * len(anchors)
    best_iou = [0.0] * len(anchors)
    for a, row in enumerate(ious):
        if row:
            best_iou[a] = max(row)
            if best_iou[a] > POSITIVE_IOU_THRESHOLD:
                gt_index[a] = row.index(best_iou[a])
    for g in range(len(gts)):
        col = [row[g] for row in ious]
        a = col.index(max(col))
        if col[a] > 0.0:
            gt_index[a] = g
    return gt_index, best_iou


def sample_gt_boxes(rng: np.random.Generator, cfg: ScenarioConfig, count: int) -> list[Box]:
    """Ground truths inside the image, each the first of up to 100 draws
    whose IOU with every earlier one is below 0.25, else the draw of least
    such IOU."""
    size = cfg.image_size
    lo, hi = cfg.object_size_range
    boxes: list[Box] = []
    for _ in range(count):
        best = None
        best_overlap = None
        for _ in range(100):
            w = rng.uniform(lo, hi) * size
            h = rng.uniform(lo, hi) * size
            cx = rng.uniform(w / 2, size - w / 2)
            cy = rng.uniform(h / 2, size - h / 2)
            cand = Box.from_center(cx, cy, w, h)
            overlap = max((iou_value(cand, b) for b in boxes), default=0.0)
            if best is None or overlap < best_overlap:
                best, best_overlap = cand, overlap
            if overlap < 0.25:
                break
        boxes.append(best)
    return boxes


def scenario_images(cfg: ScenarioConfig) -> list[tuple[list[Box], list[int], list[int], np.ndarray, HeadOutputs]]:
    """Per image of ``generate_scenario(cfg)``: ground truths, their
    classes, each anchor's matched ground truth, the features and the head
    outputs, from the same random draws, the heads built one anchor at a
    time."""
    rng = np.random.default_rng(cfg.seed)
    anchors = default_boxes(cfg.image_size, scenario_levels(cfg))[0]
    n = len(anchors)
    noise = cfg.noise
    images = []
    for _ in range(cfg.n_images):
        count = int(rng.integers(cfg.object_count[0], cfg.object_count[1] + 1))
        gts = sample_gt_boxes(rng, cfg, count)
        gt_classes = [int(c) for c in rng.integers(1, cfg.n_classes + 1, count)]
        gt_index, _ = match_anchors(anchors, gts)
        features = rng.normal(0.0, 1.0, (n, cfg.fit.feature_dim)) / np.sqrt(cfg.fit.feature_dim)
        features[:, 0] = 1.0

        offsets = np.zeros((n, 4))
        probs = np.zeros((n, cfg.n_classes + 1))
        p_iou = np.zeros(n)
        neg_bg = rng.uniform(*noise.neg_background_range, n)
        pos_conf = rng.uniform(*noise.cls_confidence_range, n)
        is_distractor = rng.uniform(0.0, 1.0, n) < noise.distractor_rate
        offset_noise = rng.normal(0.0, 1.0, (n, 4))
        p_iou_noise = rng.normal(0.0, 1.0, n)
        neg_p_iou = rng.uniform(0.0, 1.0, n)

        for a in range(n):
            g = gt_index[a]
            if g < 0:
                probs[a, 0] = neg_bg[a]
                probs[a, 1:] = (1.0 - neg_bg[a]) / cfg.n_classes
                p_iou[a] = neg_p_iou[a]
                continue
            target = encode(anchors[a], gts[g])
            sigma = noise.distractor_offset_sigma if is_distractor[a] else noise.offset_sigma
            offsets[a] = np.array(target.as_tuple()) + sigma * offset_noise[a]
            conf = pos_conf[a]
            probs[a, gt_classes[g]] = conf
            rest = (1.0 - conf) / cfg.n_classes
            for c in range(cfg.n_classes + 1):
                if c != gt_classes[g]:
                    probs[a, c] = rest
            true = iou_value(decode(anchors[a], OffsetEncoding(*offsets[a])), gts[g])
            p_iou[a] = min(max(true + noise.p_iou_sigma * p_iou_noise[a], PROB_EPS), 1.0)
        images.append((gts, gt_classes, gt_index, features, HeadOutputs(offsets, probs, p_iou)))
    return images


# ---------------------------------------------------------------------------
# loss terms


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
    """Log-ratio loss |ln(p) - ln(t)| with the prediction clamped to
    [PROB_EPS, 1]."""
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


def ceji_loss(p_cls: float, iou_tar, is_positive: bool, detach_iou: bool = False) -> LossTerm:
    """Cross-entropy joint with the measured IOU: -ln(p_cls * iou_tar) on
    gated positives, with the gradient chained into the box through
    ``iou_tar.grad_a``; -ln(p_cls) on negatives."""
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


# ---------------------------------------------------------------------------
# NMS


@dataclass(frozen=True)
class Detection:
    """One detection as a record: the oracles' input, one row of the
    library's ``Detections`` table."""

    box: Box
    class_id: int
    p_cls: float
    p_iou: float


def score(d: Detection, mode: str) -> float:
    """Ranking score: p_cls, or p_cls * p_iou in iou_guided mode."""
    if mode == "standard":
        return d.p_cls
    if mode == "iou_guided":
        return d.p_cls * d.p_iou
    raise ValueError(f"unknown NMS mode {mode!r}")


def priority_order(dets: list[Detection], mode: str, floor: float) -> list[int]:
    """Indices above the floor, by descending score, then descending area,
    then ascending index."""
    idx = [i for i, d in enumerate(dets) if score(d, mode) >= floor]
    idx.sort(key=lambda i: (-score(dets[i], mode), -dets[i].box.area, i))
    return idx


def nms_bruteforce(
    dets: list[Detection],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    mode: str = "standard",
    score_floor: float = SCORE_FLOOR,
) -> list[Detection]:
    """A detection is kept iff no earlier-priority kept detection of its
    class overlaps it beyond the threshold. Refuses more than
    BRUTEFORCE_LIMIT detections."""
    if len(dets) > BRUTEFORCE_LIMIT:
        raise ValueError(f"oracle limited to {BRUTEFORCE_LIMIT} detections")
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    order = priority_order(dets, mode, score_floor)
    kept_idx: list[int] = []
    for i in order:
        suppressed = any(
            dets[k].class_id == dets[i].class_id and iou_value(dets[k].box, dets[i].box) > iou_threshold
            for k in kept_idx
        )
        if not suppressed:
            kept_idx.append(i)
    return [dets[i] for i in kept_idx]


def score_flip_pair() -> tuple[list[Detection], Detection, Detection]:
    """The two-box score-flip scenario: a confident badly localized box A
    overlapping (IOU 0.7) a better localized box B of lower confidence.

    Standard NMS keeps A; IOU-guided NMS keeps B.
    """
    a = Detection(Box(0.0, 0.0, 10.0, 10.0), 1, 0.95, 0.3)
    b = Detection(Box(0.0, 0.0, 7.0, 10.0), 1, 0.85, 0.9)
    assert abs(iou_value(a.box, b.box) - 0.7) < 1e-12
    return [a, b], a, b


# ---------------------------------------------------------------------------
# average precision

# image_id -> [(Box, class_id, score)]
DetectionsByImage = dict[str, list[tuple[Box, int, float]]]
# image_id -> [(Box, class_id)]
GroundTruthsByImage = dict[str, list[tuple[Box, int]]]


def ap_bruteforce(detections: DetectionsByImage, gts: GroundTruthsByImage, class_id: int, iou_threshold: float) -> float:
    """Enumerate every score cutoff, re-derive the PR point of each from
    scratch, and interpolate.

    Limited to BRUTEFORCE_LIMIT detections/ground truths of the class and
    to strictly distinct scores (ties make the cumulative curve finer
    than cutoff enumeration can see).
    """
    rows = [
        (img, b, s)
        for img, lst in detections.items()
        for b, cc, s in lst
        if cc == class_id
    ]
    n_gt = sum(1 for objs in gts.values() for _, cc in objs if cc == class_id)
    if len(rows) > BRUTEFORCE_LIMIT or n_gt > BRUTEFORCE_LIMIT:
        raise ValueError(f"oracle limited to {BRUTEFORCE_LIMIT} boxes")
    scores = [s for _, _, s in rows]
    if len(set(scores)) != len(scores):
        raise ValueError("oracle requires distinct scores")

    points = []  # (precision, recall) at each cutoff
    for cutoff in sorted(set(scores), reverse=True):
        tp = fp = 0
        for img in sorted(set(gts) | set(detections), key=str):
            gt_boxes = [b for b, cc in gts.get(img, []) if cc == class_id]
            taken = [False] * len(gt_boxes)
            img_dets = sorted(
                [(b, s) for im2, b, s in rows if im2 == img and s >= cutoff],
                key=lambda r: -r[1],
            )
            for box, _ in img_dets:
                cands = [
                    (iou_value(box, g), gi)
                    for gi, g in enumerate(gt_boxes)
                    if not taken[gi] and iou_value(box, g) >= iou_threshold
                ]
                if cands:
                    cands.sort(key=lambda r: (-r[0], r[1]))
                    taken[cands[0][1]] = True
                    tp += 1
                else:
                    fp += 1
        if n_gt > 0:
            points.append((tp / (tp + fp) if tp + fp else 0.0, tp / n_gt))
    if n_gt == 0:
        return 0.0

    total = 0.0
    for i in range(RECALL_POINTS):
        r = i / (RECALL_POINTS - 1)
        cands = [p for p, rec in points if rec >= r]
        total += max(cands) if cands else 0.0
    return total / RECALL_POINTS


def _reference_match_image(gt_ignored: list[bool], ious: list[list[float]], thr: float) -> list[tuple[bool, bool]]:
    """Greedy matching inside one image and class, ground truths ignored-last.

    ``ious[d][g]`` is the IOU of the d-th detection in score order with
    ground truth g; ``gt_ignored[g]`` says whether g lies outside the area
    range. Returns (is_tp, det_ignored) per detection. A detection prefers
    the highest-IOU unmatched non-ignored ground truth; failing that it
    may match an ignored one and is then ignored itself.
    """
    taken = [False] * len(gt_ignored)
    out = []
    for row in ious:
        best_g = -1
        best_iou = 0.0
        for g, g_ign in enumerate(gt_ignored):
            if taken[g]:
                continue
            if best_g >= 0 and not gt_ignored[best_g] and g_ign:
                break  # already holding a real match; don't trade for ignored
            v = row[g]
            if v >= thr and (best_g < 0 or v > best_iou):
                best_g, best_iou = g, v
        if best_g >= 0:
            taken[best_g] = True
            out.append((not gt_ignored[best_g], gt_ignored[best_g]))
        else:
            out.append((False, False))
    return out


def _reference_ap_from_records(records: list[tuple[float, bool, bool, str, int]], n_gt: int) -> float:
    """101-point interpolated AP from (score, tp, ignored, image_id, idx) rows."""
    if n_gt == 0:
        return float("nan")
    records = sorted(records, key=lambda r: (-r[0], r[3], r[4]))
    tp = np.array([r[1] for r in records if not r[2]], dtype=bool)
    if not len(tp):
        return 0.0
    tps = np.cumsum(tp)
    recall = tps / n_gt
    precision = tps / np.arange(1, len(tp) + 1)  # rows so far: tp + fp
    # envelope: running max from the right; a recall beyond the last row reads 0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    return float(np.append(envelope, 0.0)[idx].mean())


def _reference_area_ap(blocks: dict[int, list[tuple]], area: tuple[float, float]) -> list[float]:
    """Per-threshold AP averaged over classes for one area range."""
    lo, hi = area
    aps_per_thr: list[list[float]] = [[] for _ in IOU_THRESHOLDS]
    for per_image in blocks.values():
        # ground truths outside the area range are ignored, and go last
        ranged = []
        n_gt = 0
        for img, d, scores, d_areas, g_areas, ious in per_image:
            g_ign = ~((lo <= g_areas) & (g_areas < hi))
            order = np.argsort(g_ign, kind="stable")
            n_gt += int(np.count_nonzero(~g_ign))
            d_outside = ~((lo <= d_areas) & (d_areas < hi))
            ranged.append((img, d, scores, d_outside.tolist(), g_ign[order].tolist(), ious[:, order].tolist()))
        if n_gt == 0:
            continue

        for t_i, thr in enumerate(IOU_THRESHOLDS):
            records: list[tuple[float, bool, bool, str, int]] = []
            for img, d, scores, d_outside, g_ign, ious in ranged:
                matches = _reference_match_image(g_ign, ious, thr)
                for stable_i, s, out, (tp, ign) in zip(d, scores, d_outside, matches):
                    if not tp and not ign and out:
                        ign = True  # unmatched detection outside the range
                    records.append((s, tp, ign, img, stable_i))
            aps_per_thr[t_i].append(_reference_ap_from_records(records, n_gt))

    return [float(np.mean(v)) if v else 0.0 for v in aps_per_thr]


def evaluate_reference(detections: dict[str, Detections], gts: dict[str, GroundTruths], mode: str) -> ApReport:
    """The full report as the evaluator computed it: per area range, every
    IOU block reordered so that ignored ground truths come last, and per
    threshold, (score, tp, ignored, image, row) records sorted by
    (-score, image, row)."""
    blocks: dict[int, list[tuple]] = {c: [] for c in sorted({c for t in gts.values() for c in t.class_id.tolist()})}
    for img in sorted(set(gts) | set(detections), key=str):
        dets, truths = detections.get(img, Detections()), gts.get(img, GroundTruths())
        scores = dets.score(mode)
        d_areas, g_areas = (checked_areas(t.boxes, [img] * len(t.boxes)) for t in (dets, truths))
        for c in (set(truths.class_id.tolist()) | set(dets.class_id.tolist())) & blocks.keys():
            g = np.flatnonzero(truths.class_id == c)
            d = np.flatnonzero(dets.class_id == c)
            d = d[np.lexsort((d, -scores[d]))][:MAX_DETECTIONS_PER_IMAGE]
            blocks[c].append((img, d.tolist(), scores[d].tolist(), d_areas[d], g_areas[g],
                              iou_matrix(dets.boxes[d], truths.boxes[g])))

    all_t = _reference_area_ap(blocks, AREA_RANGES["all"])
    return ApReport(
        ap=float(np.mean(all_t)),
        ap50=all_t[0],
        ap75=all_t[IOU_THRESHOLDS.index(0.75)],
        ap_small=float(np.mean(_reference_area_ap(blocks, AREA_RANGES["small"]))),
        ap_medium=float(np.mean(_reference_area_ap(blocks, AREA_RANGES["medium"]))),
        ap_large=float(np.mean(_reference_area_ap(blocks, AREA_RANGES["large"]))),
    )


def csv_text(header: list[str], rows) -> str:
    """CSV text from a plain ``csv.writer``, row by row; a row holding a bare
    "\r" in a string field is written with every field quoted."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    w.writerow(header)
    for row in rows:
        (quote_all if any(isinstance(v, str) and "\r" in v for v in row) else w).writerow(row)
    return buf.getvalue()
