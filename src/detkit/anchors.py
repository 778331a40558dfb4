"""Default-box generation over a feature pyramid and positive-sample matching.

An anchor is positive when its best ground-truth IOU exceeds the 0.4
threshold; whether it then contributes to classification is decided later
by the regression-quality gate in the loss module. The best-match
guarantee (each ground truth claims its argmax anchor) is retained so no
ground truth goes unmatched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import iou_matrix

# Per-level square-box size ratios for the 320-pixel pyramid; seven values
# feed six levels, level k pairing (s_k, sqrt(s_k * s_{k+1})).
DEFAULT_SCALE_RATIOS = (0.06, 0.15, 0.33, 0.51, 0.69, 0.87, 1.05)
GRIDS_320 = (40, 20, 10, 5, 3, 1)
STRIDES_320 = (8, 16, 32, 64, 107, 320)
DEFAULT_ASPECT_RATIOS = (1.0, 2.0, 0.5)
POSITIVE_IOU_THRESHOLD = 0.4


@dataclass(frozen=True)
class FeatureLevelSpec:
    """One prediction level: grid geometry plus box-template parameters.

    ``next_scale_ratio`` is the s_{k+1} used for the extra square box at
    scale sqrt(s_k * s_{k+1}); the last level consumes the trailing
    entry of the scale-ratio list.
    """

    grid_h: int
    grid_w: int
    stride: float
    scale_ratio: float
    next_scale_ratio: float
    aspect_ratios: tuple[float, ...] = DEFAULT_ASPECT_RATIOS

    def __post_init__(self):
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError("grid dims must be >= 1")
        if not (0.0 < self.scale_ratio <= 1.2 and 0.0 < self.next_scale_ratio <= 1.2):
            raise ValueError("scale ratios must lie in (0, 1.2]")
        if any(ar <= 0.0 for ar in self.aspect_ratios):
            raise ValueError("aspect ratios must be positive")


def detector_320_levels() -> list[FeatureLevelSpec]:
    """The six-level pyramid used for a 320-pixel input."""
    return build_levels(GRIDS_320, STRIDES_320, DEFAULT_SCALE_RATIOS)


def build_levels(grids, strides, scale_ratios, aspect_ratios=DEFAULT_ASPECT_RATIOS):
    """Assemble level specs from square grids, strides, and len(grids)+1 ratios."""
    if len(scale_ratios) != len(grids) + 1:
        raise ValueError("need len(grids) + 1 scale ratios")
    if len(strides) != len(grids):
        raise ValueError("one stride per grid")
    return [
        FeatureLevelSpec(g, g, float(s), scale_ratios[k], scale_ratios[k + 1], tuple(aspect_ratios))
        for k, (g, s) in enumerate(zip(grids, strides))
    ]


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Generated default boxes as (N, 4) corner rows, with (level, cell,
    template) provenance as (N,) int arrays. ``cwh`` holds the rows
    (cx, cy, w, h), the anchor form of ``geometry.decode_jacobian_rows``,
    computed once from the corners as 0.5 * (x1 + x2), 0.5 * (y1 + y2),
    x2 - x1 and y2 - y1."""

    boxes: np.ndarray
    level_index: np.ndarray
    cell_index: np.ndarray
    template_index: np.ndarray
    cwh: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x1, y1, x2, y2 = self.boxes.T
        object.__setattr__(self, "cwh", np.stack((0.5 * (x1 + x2), 0.5 * (y1 + y2), x2 - x1, y2 - y1), axis=1))

    def __len__(self) -> int:
        return len(self.boxes)

    def to_json(self) -> str:
        """Export as a JSON array of [x1, y1, x2, y2, level, cell, template]."""
        indices = np.stack((self.level_index, self.cell_index, self.template_index), axis=1)
        return json.dumps(list(map(list.__add__, self.boxes.tolist(), indices.tolist())))


def generate_default_boxes(input_size: float, levels: list[FeatureLevelSpec], clip: bool = True) -> AnchorSet:
    """Tile default boxes over every level of the pyramid.

    Per cell, one box per aspect ratio at scale s_k * input_size plus one
    extra square box at scale sqrt(s_k * s_{k+1}) * input_size. Output
    order is level-major, then row-major cells, then templates, and is
    deterministic. Corners are (cx -/+ 0.5 * w, cy -/+ 0.5 * h), each then
    clipped to [0, input_size], operation by operation as the per-cell
    loop of the test oracle builds them.
    """
    if not levels:
        raise ValueError("level list must be non-empty")
    if input_size <= 0:
        raise ValueError("input_size must be positive")

    parts = []
    for lv, spec in enumerate(levels):
        base = spec.scale_ratio * input_size
        extra = (spec.scale_ratio * spec.next_scale_ratio) ** 0.5 * input_size
        w, h = np.array([(base * ar**0.5, base / ar**0.5) for ar in spec.aspect_ratios] + [(extra, extra)]).T
        # cell centers as (cells, 1) columns in row-major order, against (templates,) sizes
        cy, cx = ((np.indices((spec.grid_h, spec.grid_w)) + 0.5) * spec.stride).reshape(2, -1, 1)
        corners = np.stack((cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h), axis=-1)
        cell, template = np.indices(corners.shape[:2]).reshape(2, -1)
        parts.append((corners.reshape(-1, 4), np.full(len(cell), lv), cell, template))
    boxes, level_index, cell_index, template_index = (np.concatenate(col) for col in zip(*parts))
    if clip:
        boxes = np.minimum(np.maximum(boxes, 0.0), input_size)
    return AnchorSet(boxes, level_index, cell_index, template_index)


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Per anchor: the matched ground-truth index, -1 for a negative, and
    the best IOU over all ground truths."""

    gt_index: np.ndarray  # (N,) intp
    best_iou: np.ndarray  # (N,) float64

    @property
    def positive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.gt_index >= 0)

    @property
    def negative_indices(self) -> np.ndarray:
        return np.flatnonzero(self.gt_index < 0)


def match_anchors(anchors: AnchorSet, gt_boxes: np.ndarray) -> MatchResult:
    """Label anchors against the (G, 4) ground-truth corner rows.

    An anchor is positive when its best IOU exceeds ``POSITIVE_IOU_THRESHOLD``,
    and each ground truth with any overlap forces its argmax anchor positive
    (ties broken by lowest anchor index; an anchor forced by several ground
    truths takes the last). With no ground truths every anchor is negative.
    """
    n = len(anchors)
    if not len(gt_boxes):
        return MatchResult(np.full(n, -1, dtype=np.intp), np.zeros(n))

    mat = iou_matrix(anchors.boxes, gt_boxes)  # (n_anchors, n_gts)
    best_gt = np.argmax(mat, axis=1)  # first max wins: lowest gt index
    best_val = mat[np.arange(n), best_gt]

    # best-match guarantee: argmax anchor per gt, lowest anchor index on ties
    best_anchor = np.argmax(mat, axis=0)
    overlaps = np.flatnonzero(mat[best_anchor, np.arange(len(gt_boxes))] > 0.0)
    forced = np.full(n, -1, dtype=np.intp)
    np.maximum.at(forced, best_anchor[overlaps], overlaps)

    gt_index = np.where(forced >= 0, forced, np.where(best_val > POSITIVE_IOU_THRESHOLD, best_gt, -1))
    return MatchResult(gt_index, best_val)
