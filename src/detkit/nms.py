"""Greedy non-maximum suppression with standard or IOU-guided scoring.

Standard mode ranks by classification confidence alone; IOU-guided mode
attenuates it by the predicted IOU (score = p_cls * p_iou), so a
confidently classified but badly localized box loses to a better
localized rival. Candidates below a small score floor are dropped up
front.

``greedy_nms`` packs boxes, class ids and scores into float64 arrays
once and orders the candidates by (-score, -area, index). It then walks
each class separately, row by row: every survivor is compared with the
later candidates of its class as one 1 x M vector, and those overlapping
it beyond the threshold are struck. No pairwise matrix is built, so
memory stays O(N). Classes are kept apart by bucketing, not by the
common trick of offsetting each class's coordinates into a disjoint
region: the offset changes the IOU's float bits and can flip a kept set
at the threshold. The IOU arithmetic follows ``iou_value`` step by step,
so the kept list is the one the scalar definition gives.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .fileio import csv_text
from .geometry import Box

MODES = ("standard", "iou_guided")
DEFAULT_IOU_THRESHOLD = 0.5
SCORE_FLOOR = 0.01

DETECTIONS_CSV_HEADER = ["image_id", "class_id", "x1", "y1", "x2", "y2", "p_cls", "p_iou"]


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    p_cls: float
    p_iou: float

    def __post_init__(self):
        if not (0.0 <= self.p_cls <= 1.0 and 0.0 <= self.p_iou <= 1.0):
            raise ValueError(f"probabilities out of range: p_cls={self.p_cls}, p_iou={self.p_iou}")


def score(d: Detection, mode: str) -> float:
    """Ranking score: p_cls, or p_cls * p_iou in iou_guided mode."""
    if mode == "standard":
        return d.p_cls
    if mode == "iou_guided":
        return d.p_cls * d.p_iou
    raise ValueError(f"unknown NMS mode {mode!r}")


def scored(dets: list[Detection], mode: str) -> list[tuple[Box, int, float]]:
    """(box, class_id, score) rows, the evaluator's detection format."""
    return [(d.box, d.class_id, score(d, mode)) for d in dets]


def greedy_nms(
    dets: list[Detection],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    mode: str = "standard",
    score_floor: float = SCORE_FLOOR,
) -> list[Detection]:
    """Per-class greedy suppression; kept detections return in priority order."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    scores = np.array([score(d, mode) for d in dets], dtype=np.float64)
    boxes = np.array([d.box.as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])

    cand = np.flatnonzero(scores >= score_floor)
    order = cand[np.lexsort((cand, -areas[cand], -scores[cand]))]
    # rows x1, y1, x2, y2, area of the candidates, in priority order
    rows = np.vstack((boxes[order].T, areas[order]))
    order_classes = classes[order]
    kept = np.zeros(order.size, dtype=bool)  # by global rank
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in set(order_classes.tolist()):
            ranks = np.flatnonzero(order_classes == c)
            kept[ranks[_greedy_rows(rows[:, ranks], iou_threshold)]] = True
    return [dets[i] for i in order[kept]]


def _greedy_rows(rows: np.ndarray, iou_threshold: float) -> list[int]:
    """Positions kept by greedy suppression of one class's (5, M) rows
    (x1, y1, x2, y2, area), already in priority order. Each survivor is
    compared with the later candidates as one 1 x M vector, using
    iou_value's arithmetic in its order; IOU counts as 0 where the
    boxes do not overlap or the union is not positive. The caller
    silences the division warnings of those masked-out entries."""
    x1, y1, x2, y2, area = rows
    alive = np.ones(rows.shape[1], dtype=bool)
    kept = []
    for i in range(rows.shape[1]):
        if not alive[i]:
            continue
        kept.append(i)
        later = slice(i + 1, None)
        iw = np.minimum(x2[i], x2[later]) - np.maximum(x1[i], x1[later])
        ih = np.minimum(y2[i], y2[later]) - np.maximum(y1[i], y1[later])
        inter = iw * ih
        union = area[i] + area[later] - inter
        alive[later] &= ~((iw > 0.0) & (ih > 0.0) & (union > 0.0) & (inter / union > iou_threshold))
    return kept


def detections_to_csv(rows: list[tuple[str, Detection]]) -> str:
    """Serialize (image_id, detection) pairs under the pinned schema."""
    cells = (
        (image_id, d.class_id, float(d.box.x1), float(d.box.y1), float(d.box.x2), float(d.box.y2),
         float(d.p_cls), float(d.p_iou))
        for image_id, d in rows
    )
    return csv_text(DETECTIONS_CSV_HEADER, cells)


def detections_from_csv(text: str) -> list[tuple[str, Detection]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != DETECTIONS_CSV_HEADER:
        raise ValueError(f"bad detections CSV header: {header}")
    out = []
    for row in reader:
        if not row:
            continue
        image_id, class_id, *cells = row
        x1, y1, x2, y2, p_cls, p_iou = values = [float(v) for v in cells]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in detections CSV row {row}")
        box = Box(x1, y1, x2, y2)
        out.append((image_id, Detection(box, int(class_id), p_cls, p_iou)))
    return out
