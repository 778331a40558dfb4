"""Synthetic scene generation: ground truths, anchor features, and noisy
head outputs, all determined by the config seed.

The noise model plants the classification/localization inconsistency the
IOU-guided score is designed for: confidence is drawn independently of
box quality, and a configurable fraction of positives become
"distractors" with heavy offset noise, i.e. confidently classified boxes
of low true IOU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..anchors import (
    AnchorLabel,
    AnchorSet,
    MatchResult,
    DEFAULT_SCALE_RATIOS,
    build_levels,
    generate_default_boxes,
    match_anchors,
)
from ..evaluation import GroundTruthsByImage
from ..geometry import Box, decode_jacobian_rows, encode, iou_value
from ..losses import HeadOutputs, PROB_EPS
from ..nms import Detection
from .config import ScenarioConfig

HIST_BINS = 10


@dataclass
class SceneImage:
    image_id: str
    gts: list[Box]
    gt_classes: list[int]
    match: MatchResult
    features: np.ndarray  # (n_anchors, feature_dim), column 0 is constant 1
    heads: HeadOutputs


@dataclass
class Scenario:
    cfg: ScenarioConfig
    anchors: AnchorSet
    images: list[SceneImage]

    def ground_truths(self) -> GroundTruthsByImage:
        """image_id -> [(box, class_id)], the evaluator's ground-truth map."""
        return {img.image_id: list(zip(img.gts, img.gt_classes)) for img in self.images}


def scenario_levels(cfg: ScenarioConfig):
    ratios = DEFAULT_SCALE_RATIOS[: len(cfg.grids) + 1]
    strides = [cfg.image_size / g for g in cfg.grids]
    return build_levels(cfg.grids, strides, ratios)


def _sample_gt_boxes(rng: np.random.Generator, cfg: ScenarioConfig, count: int) -> list[Box]:
    """Boxes inside the image, resampled (best effort) to keep mutual IOU low."""
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


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    anchors = generate_default_boxes(cfg.image_size, scenario_levels(cfg))
    n = len(anchors)

    noise = cfg.noise
    images: list[SceneImage] = []
    for img_i in range(cfg.n_images):
        count = int(rng.integers(cfg.object_count[0], cfg.object_count[1] + 1))
        gts = _sample_gt_boxes(rng, cfg, count)
        gt_classes = [int(c) for c in rng.integers(1, cfg.n_classes + 1, count)]
        match = match_anchors(anchors, gts)
        # unit-scale features: |f|^2 ~ 2 regardless of width, so the fit
        # step is width-independent and cross-anchor interference ~ 1/sqrt(F)
        features = rng.normal(0.0, 1.0, (n, cfg.fit.feature_dim)) / np.sqrt(cfg.fit.feature_dim)
        features[:, 0] = 1.0  # bias column

        offsets = np.zeros((n, 4))
        probs = np.zeros((n, cfg.n_classes + 1))
        p_iou = np.zeros(n)

        neg_bg = rng.uniform(*noise.neg_background_range, n)
        pos_conf = rng.uniform(*noise.cls_confidence_range, n)
        is_distractor = rng.uniform(0.0, 1.0, n) < noise.distractor_rate
        offset_noise = rng.normal(0.0, 1.0, (n, 4))
        p_iou_noise = rng.normal(0.0, 1.0, n)
        neg_p_iou = rng.uniform(0.0, 1.0, n)

        pos = []
        for a in range(n):
            if match.labels[a] is not AnchorLabel.POSITIVE:
                probs[a, 0] = neg_bg[a]
                probs[a, 1:] = (1.0 - neg_bg[a]) / cfg.n_classes
                p_iou[a] = neg_p_iou[a]
                continue
            pos.append(a)
            g = match.gt_index[a]
            target = encode(anchors.boxes[a], gts[g])
            sigma = noise.distractor_offset_sigma if is_distractor[a] else noise.offset_sigma
            offsets[a] = np.array(target.as_tuple()) + sigma * offset_noise[a]
            conf = pos_conf[a]
            probs[a, gt_classes[g]] = conf
            rest = (1.0 - conf) / cfg.n_classes
            for c in range(cfg.n_classes + 1):
                if c != gt_classes[g]:
                    probs[a, c] = rest
        true = _measured_ious(anchors, match, gts, offsets, pos)
        p_iou[pos] = np.clip(np.array(true) + noise.p_iou_sigma * p_iou_noise[pos], PROB_EPS, 1.0)

        images.append(
            SceneImage(str(img_i), gts, gt_classes, match, features, HeadOutputs(offsets, probs, p_iou))
        )
    return Scenario(cfg, anchors, images)


def _measured_ious(
    anchors: AnchorSet, match: MatchResult, gts: list[Box], offsets: np.ndarray, pos: list[int]
) -> list[float]:
    """IOU of each positive anchor's decoded box against its ground truth;
    the positives ``pos`` of ``match`` are decoded in one pass."""
    boxes, _ = decode_jacobian_rows(anchors.cwh[pos], offsets[pos])
    return [iou_value(Box(*row), gts[match.gt_index[a]]) for a, row in zip(pos, boxes)]


def detections_from_heads(anchors: AnchorSet, heads: HeadOutputs, floor: float = 0.01) -> list[Detection]:
    """Expand per-anchor head outputs into per-class detection records."""
    out = []
    n_cols = heads.class_probs.shape[1]
    keep = np.nonzero(heads.class_probs[:, 1:].max(axis=1) >= floor)[0]
    boxes, _ = decode_jacobian_rows(anchors.cwh[keep], heads.offsets[keep])
    p_ious = np.clip(heads.p_iou[keep], 0.0, 1.0).tolist()
    for row, p_iou, probs in zip(boxes, p_ious, heads.class_probs[keep].tolist()):
        box = Box(*row)
        for c in range(1, n_cols):
            p = probs[c]
            if p >= floor:
                out.append(Detection(box, c, min(p, 1.0), p_iou))
    return out


def iou_tar_values(scenario: Scenario, heads_by_image: list[HeadOutputs] | None = None) -> list[float]:
    """Measured IOU of each positive's decoded box against its ground truth."""
    values = []
    for i, img in enumerate(scenario.images):
        heads = heads_by_image[i] if heads_by_image is not None else img.heads
        values += _measured_ious(scenario.anchors, img.match, img.gts, heads.offsets, img.match.positive_indices)
    return values


def iou_histogram(values: list[float], bins: int = HIST_BINS) -> tuple[list[float], list[int]]:
    """Counts over [0, 1] split into equal bins; the last bin includes 1.0."""
    edges = [i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for v in values:
        k = min(int(v * bins), bins - 1)
        counts[k] += 1
    return edges, counts


def true_iou(det: Detection, gts: list[Box], gt_classes: list[int]) -> float:
    """Best IOU of a detection against the same-class ground truths."""
    best = 0.0
    for box, c in zip(gts, gt_classes):
        if c == det.class_id:
            best = max(best, iou_value(det.box, box))
    return best
