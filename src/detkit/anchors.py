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
from enum import Enum
from functools import cached_property

import numpy as np

from .geometry import Box, iou_matrix

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

    @property
    def templates_per_cell(self) -> int:
        return len(self.aspect_ratios) + 1  # plus the extra square box


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


@dataclass
class AnchorSet:
    """Generated default boxes with (level, cell, template) provenance."""

    boxes: list[Box]
    level_index: list[int]
    cell_index: list[int]
    template_index: list[int]
    input_size: float

    def __len__(self) -> int:
        return len(self.boxes)

    def as_array(self) -> np.ndarray:
        return np.array([b.as_tuple() for b in self.boxes], dtype=np.float64)

    @cached_property
    def cwh(self) -> np.ndarray:
        """(N, 4) rows (cx, cy, w, h), the anchor form of
        ``geometry.decode_jacobian_rows``; built once, so ``boxes`` must
        not change afterwards. Computed as ``Box.cx`` .. ``Box.h`` are."""
        x1, y1, x2, y2 = self.as_array().reshape(-1, 4).T
        return np.stack((0.5 * (x1 + x2), 0.5 * (y1 + y2), x2 - x1, y2 - y1), axis=1)

    def to_json(self) -> str:
        """Export as a JSON array of [x1, y1, x2, y2, level, cell, template]."""
        rows = [
            [b.x1, b.y1, b.x2, b.y2, lv, c, t]
            for b, lv, c, t in zip(self.boxes, self.level_index, self.cell_index, self.template_index)
        ]
        return json.dumps(rows)


def generate_default_boxes(input_size: float, levels: list[FeatureLevelSpec], clip: bool = True) -> AnchorSet:
    """Tile default boxes over every level of the pyramid.

    Per cell, one box per aspect ratio at scale s_k * input_size plus one
    extra square box at scale sqrt(s_k * s_{k+1}) * input_size. Output
    order is level-major, then row-major cells, then templates, and is
    deterministic.
    """
    if not levels:
        raise ValueError("level list must be non-empty")
    if input_size <= 0:
        raise ValueError("input_size must be positive")

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
    return AnchorSet(boxes, level_index, cell_index, template_index, float(input_size))


class AnchorLabel(Enum):
    NEGATIVE = 0
    POSITIVE = 1
    IGNORED = 2


@dataclass
class MatchResult:
    """Per-anchor labels, matched ground-truth index (-1 if none), and best IOU.

    Treated as immutable once built: ``losses.total_loss`` keeps the arrays
    it derives from a match in ``loss_plan`` on its first call.
    """

    labels: list[AnchorLabel]
    gt_index: list[int]
    best_iou: list[float]
    loss_plan: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def positive_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab is AnchorLabel.POSITIVE]

    @property
    def negative_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab is AnchorLabel.NEGATIVE]


def match_anchors(anchors: AnchorSet, gts: list[Box], pos_threshold: float = POSITIVE_IOU_THRESHOLD) -> MatchResult:
    """Label anchors against ground truths.

    An anchor is positive when its best IOU exceeds ``pos_threshold``, and
    additionally each ground truth with any overlap forces its argmax
    anchor positive (ties broken by lowest anchor index). With no ground
    truths every anchor is negative.
    """
    if not (0.0 < pos_threshold < 1.0):
        raise ValueError("pos_threshold must lie in (0, 1)")
    n = len(anchors)
    if not gts:
        return MatchResult([AnchorLabel.NEGATIVE] * n, [-1] * n, [0.0] * n)

    gt_arr = np.array([g.as_tuple() for g in gts], dtype=np.float64)
    mat = iou_matrix(anchors.as_array(), gt_arr)  # (n_anchors, n_gts)

    best_gt = np.argmax(mat, axis=1)  # first max wins: lowest gt index
    best_val = mat[np.arange(n), best_gt]

    labels = [AnchorLabel.NEGATIVE] * n
    gt_index = [-1] * n
    for a in range(n):
        if best_val[a] > pos_threshold:
            labels[a] = AnchorLabel.POSITIVE
            gt_index[a] = int(best_gt[a])

    # best-match guarantee: argmax anchor per gt, lowest anchor index on ties
    for g in range(len(gts)):
        col = mat[:, g]
        a = int(np.argmax(col))
        if col[a] > 0.0:
            labels[a] = AnchorLabel.POSITIVE
            gt_index[a] = g

    return MatchResult(labels, gt_index, [float(v) for v in best_val])
