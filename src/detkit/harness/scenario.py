"""Synthetic scene generation: ground truths, anchor features, and noisy
head outputs, all determined by the config seed.

Only a fit reads the features, so synthesis keeps none: it saves the
generator state before each image's block and steps past it with
``standard_normal``, the sampler of ``normal(0, 1)``, so every later draw
is unmoved. ``scenario_features`` replays the states bit for bit.

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
    AnchorSet,
    MatchResult,
    DEFAULT_SCALE_RATIOS,
    build_levels,
    generate_default_boxes,
    match_anchors,
)
from ..geometry import box_areas, decode_jacobian_rows, encode_rows, extent_error, iou_matrix, iou_rows
from ..losses import HeadOutputs, PROB_EPS
from ..nms import Detections, GroundTruths
from .config import NumericalError, ScenarioConfig

HIST_BINS = 10


@dataclass
class SceneImage:
    image_id: str
    gts: GroundTruths
    match: MatchResult
    heads: HeadOutputs
    iou_tar: np.ndarray  # the measured IOU of each positive's decoded box, which sets its p_iou


@dataclass
class Scenario:
    cfg: ScenarioConfig
    anchors: AnchorSet
    images: list[SceneImage]
    feature_states: list[dict]  # per image, the generator state before its feature block

    @property
    def iou_tar(self) -> np.ndarray:  # every positive's measured IOU, image-major
        return np.concatenate([img.iou_tar for img in self.images])


def scenario_levels(cfg: ScenarioConfig):
    ratios = DEFAULT_SCALE_RATIOS[: len(cfg.grids) + 1]
    strides = [cfg.image_size / g for g in cfg.grids]
    return build_levels(cfg.grids, strides, ratios)


def _sample_gt_boxes(rng: np.random.Generator, cfg: ScenarioConfig, count: int) -> np.ndarray:
    """(count, 4) corner rows inside the image, resampled (best effort) to keep mutual IOU low."""
    size = cfg.image_size
    lo, hi = cfg.object_size_range
    boxes = np.zeros((0, 4))
    for _ in range(count):
        best, best_overlap = None, np.inf
        for _ in range(100):
            w = rng.uniform(lo, hi) * size
            h = rng.uniform(lo, hi) * size
            cx = rng.uniform(w / 2, size - w / 2)
            cy = rng.uniform(h / 2, size - h / 2)
            cand = [cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h]
            overlap = iou_matrix([cand], boxes).max(initial=0.0)
            if overlap < best_overlap:
                best, best_overlap = cand, overlap
            if overlap < 0.25:
                break
        boxes = np.vstack((boxes, [best]))
    return boxes


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    anchors = generate_default_boxes(cfg.image_size, scenario_levels(cfg))
    n = len(anchors)

    noise = cfg.noise
    images: list[SceneImage] = []
    feature_states: list[dict] = []
    skipped = np.empty((n, cfg.fit.feature_dim))
    for img_i in range(cfg.n_images):
        count = int(rng.integers(cfg.object_count[0], cfg.object_count[1] + 1))
        gts = GroundTruths(_sample_gt_boxes(rng, cfg, count), rng.integers(1, cfg.n_classes + 1, count))
        match = match_anchors(anchors, gts.boxes)
        feature_states.append(rng.bit_generator.state)
        rng.standard_normal(out=skipped)  # the draws of the features, see scenario_features

        offsets = np.zeros((n, 4))
        probs = np.zeros((n, cfg.n_classes + 1))
        p_iou = np.zeros(n)

        neg_bg = rng.uniform(*noise.neg_background_range, n)
        pos_conf = rng.uniform(*noise.cls_confidence_range, n)
        is_distractor = rng.uniform(0.0, 1.0, n) < noise.distractor_rate
        offset_noise = rng.normal(0.0, 1.0, (n, 4))
        p_iou_noise = rng.normal(0.0, 1.0, n)
        neg_p_iou = rng.uniform(0.0, 1.0, n)

        neg = match.negative_indices
        probs[neg, 0] = neg_bg[neg]
        probs[neg, 1:] = ((1.0 - neg_bg[neg]) / cfg.n_classes)[:, None]
        p_iou[neg] = neg_p_iou[neg]

        pos = match.positive_indices
        pos_gt = match.gt_index[pos]
        target = encode_rows(anchors.cwh[pos], gts.boxes[pos_gt])
        sigma = np.where(is_distractor[pos], noise.distractor_offset_sigma, noise.offset_sigma)
        probs[pos] = ((1.0 - pos_conf[pos]) / cfg.n_classes)[:, None]
        probs[pos, gts.class_id[pos_gt]] = pos_conf[pos]
        # a huge sigma overflows the offsets; math.exp of one raises OverflowError, reported below
        with np.errstate(over="ignore"):
            offsets[pos] = target + sigma[:, None] * offset_noise[pos]
            try:
                true = _measured_ious(anchors, match, gts, offsets, pos)
            except OverflowError as exc:
                raise NumericalError(f"image {img_i}: a noisy offset overflows its decoded box ({exc})") from exc
            # np.clip saturates an overflowed noise term to PROB_EPS or 1
            p_iou[pos] = np.clip(true + noise.p_iou_sigma * p_iou_noise[pos], PROB_EPS, 1.0)

        images.append(SceneImage(str(img_i), gts, match, HeadOutputs(offsets, probs, p_iou), true))
    return Scenario(cfg, anchors, images, feature_states)


def scenario_features(scenario: Scenario) -> np.ndarray:
    """The fit's anchor features, (images, anchors, feature_dim), column 0
    constant 1: each image's block replayed from its saved generator state."""
    n, dim = len(scenario.anchors), scenario.cfg.fit.feature_dim
    features = np.empty((len(scenario.feature_states), n, dim))
    rng = np.random.default_rng()
    for block, state in zip(features, scenario.feature_states):
        rng.bit_generator.state = state
        block[...] = rng.normal(0.0, 1.0, (n, dim))
    # unit-scale features: |f|^2 ~ 2 regardless of width, so the fit
    # step is width-independent and cross-anchor interference ~ 1/sqrt(F)
    features /= np.sqrt(dim)
    features[..., 0] = 1.0  # bias column
    return features


def _measured_ious(
    anchors: AnchorSet, match: MatchResult, gts: GroundTruths, offsets: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """IOU of each positive anchor's decoded box against its ground truth,
    by ``geometry.iou_rows``; the positives ``pos`` of ``match`` are
    decoded in one pass. A decoded box of negative extent (or NaN) raises
    ``geometry.extent_error``."""
    boxes, _ = decode_jacobian_rows(anchors.cwh[pos], offsets[pos])
    valid = (boxes[:, 2] >= boxes[:, 0]) & (boxes[:, 3] >= boxes[:, 1])
    if not valid.all():
        raise extent_error(boxes[np.argmin(valid)])
    gt = gts.boxes[match.gt_index[pos]]
    return iou_rows(boxes, gt, box_areas(gt))[0]


def detections_from_heads(
    anchors: AnchorSet, heads: HeadOutputs, floor: float, image_id: str
) -> Detections:
    """One image's detections: a row per (anchor, class) whose probability
    reaches the floor, anchors in order and classes ascending. A NaN class
    probability raises ValueError: it would drop its anchor's every class."""
    probs = heads.class_probs[:, 1:]
    nan_rows = np.isnan(probs).any(axis=1)
    if nan_rows.any():
        raise ValueError(f"image {image_id!r}: NaN class probability at anchor {int(nan_rows.argmax())}")
    keep = np.nonzero(probs.max(axis=1) >= floor)[0]
    boxes, _ = decode_jacobian_rows(anchors.cwh[keep], heads.offsets[keep])
    row, col = np.nonzero(probs[keep] >= floor)
    return Detections(
        np.full(len(row), image_id, dtype=object),
        boxes[row],
        col + 1,
        np.minimum(probs[keep[row], col], 1.0),
        np.clip(heads.p_iou[keep[row]], 0.0, 1.0),
    )


def iou_histogram(values, bins: int = HIST_BINS) -> tuple[list[float], list[int]]:
    """Counts over [0, 1] split into equal bins; the last bin includes 1.0."""
    edges = [i / bins for i in range(bins + 1)]
    k = np.minimum((np.asarray(values, dtype=np.float64) * bins).astype(np.intp), bins - 1)
    return edges, np.bincount(k, minlength=bins).tolist()


def true_iou(dets: Detections, gts: GroundTruths) -> np.ndarray:
    """Best IOU of each detection against the same-class ground truths, 0
    where none overlaps."""
    ious = iou_matrix(dets.boxes, gts.boxes)
    overlaps = (dets.class_id[:, None] == gts.class_id) & (ious > 0.0)
    return np.where(overlaps, ious, 0.0).max(axis=1, initial=0.0)
