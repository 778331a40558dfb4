"""Greedy non-maximum suppression with standard or IOU-guided scoring.

Standard mode ranks by classification confidence alone; IOU-guided mode
attenuates it by the predicted IOU (score = p_cls * p_iou), so a
confidently classified but badly localized box loses to a better
localized rival. Candidates below a small score floor are dropped up
front.

Every stage from decoding to the CSV files reads and writes one table,
``Detections``: a column per CSV field, one row per (box, class); each
image's ground truths are one ``GroundTruths`` table, synthesis to AP.
``greedy_nms`` orders the candidates by (-score, -area, index). It then
walks each class separately, row by row: every survivor is compared with
the later candidates of its class as one 1 x M vector, and those
overlapping it beyond the threshold are struck. No pairwise matrix is
built, so memory stays O(N). Classes are kept apart by bucketing, not by
the common trick of offsetting each class's coordinates into a disjoint
region: the offset changes the IOU's float bits and can flip a kept set
at the threshold. The IOU is ``geometry.iou_terms``, ``iou_value`` step by
step, so the kept rows are the ones the scalar definition gives.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .fileio import csv_text
from .geometry import box_areas, iou_terms

MODES = ("standard", "iou_guided")
DEFAULT_IOU_THRESHOLD = 0.5
SCORE_FLOOR = 0.01

DETECTIONS_CSV_HEADER = ["image_id", "class_id", "x1", "y1", "x2", "y2", "p_cls", "p_iou"]


def checked_areas(boxes: np.ndarray, image_ids) -> np.ndarray:
    """Each row's area; ValueError names ``image_ids[i]`` for an area not finite or too large to add to another."""
    with np.errstate(over="ignore", invalid="ignore"):
        areas = box_areas(boxes)
    bounded = areas <= np.finfo(np.float64).max / 2
    if not bounded.all():
        raise ValueError(f"a box area overflows float64 in image {image_ids[int(np.argmin(bounded))]!r}")
    return areas


def _set_columns(table, dtypes) -> None:
    """Each field of a frozen table as an array of its dtype, ``boxes`` as (N, 4) rows, all of one length."""
    for f, dtype in zip(fields(table), dtypes):
        try:
            column = np.asarray(getattr(table, f.name), dtype=dtype)
        except OverflowError:  # a class id beyond 64 bits stays a Python int
            column = np.asarray(getattr(table, f.name), dtype=object if dtype is np.int64 else dtype)
        object.__setattr__(table, f.name, column.reshape(-1, 4) if f.name == "boxes" else column)
    if len({getattr(table, f.name).shape[0] for f in fields(table)}) != 1:
        raise ValueError(f"{type(table).__name__} columns differ in length")


@dataclass(frozen=True, eq=False)
class Detections:
    """Detections as columns in CSV order, one row per (box, class);
    ``Detections()`` is the empty table. Sequences become arrays. A box of
    negative extent, or a probability outside [0, 1] or NaN, is rejected.
    """

    image_id: np.ndarray = ()  # (N,) str objects
    boxes: np.ndarray = ()  # (N, 4) float64 corners x1, y1, x2, y2
    class_id: np.ndarray = ()  # (N,) int64, or Python ints if one lies beyond 64 bits
    p_cls: np.ndarray = ()  # (N,) float64
    p_iou: np.ndarray = ()  # (N,) float64

    def __post_init__(self):
        _set_columns(self, (object, np.float64, np.int64, np.float64, np.float64))
        x1, y1, x2, y2 = self.boxes.T
        valid = (x2 >= x1) & (y2 >= y1) & (self.p_cls >= 0.0) & (self.p_cls <= 1.0)
        valid &= (self.p_iou >= 0.0) & (self.p_iou <= 1.0)
        if not valid.all():
            i = int(np.argmin(valid))
            raise ValueError(f"detection {i}: negative box extent in {self.boxes[i].tolist()}, or p_cls="
                             f"{self.p_cls[i]} or p_iou={self.p_iou[i]} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.p_cls)

    def score(self, mode: str) -> np.ndarray:
        """Ranking score per row: p_cls, or p_cls * p_iou in iou_guided mode."""
        if mode == "standard":
            return self.p_cls
        if mode == "iou_guided":
            return self.p_cls * self.p_iou
        raise ValueError(f"unknown NMS mode {mode!r}")

    def take(self, idx) -> Detections:
        """The rows ``idx`` selects (an index array or a boolean mask)."""
        return Detections(*(getattr(self, f.name)[idx] for f in fields(self)))

    def by_image(self) -> dict[str, Detections]:
        """Each image's rows, in row order, keyed by image id in sorted order."""
        ids = self.image_id.tolist()
        order = sorted(range(len(ids)), key=ids.__getitem__)
        return {image_id: self.take(list(rows)) for image_id, rows in itertools.groupby(order, key=ids.__getitem__)}

    @staticmethod
    def concat(parts: Iterable[Detections]) -> Detections:
        """The rows of ``parts``, one table after another."""
        parts = list(parts) or [Detections()]
        return Detections(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Detections)))


@dataclass(frozen=True, eq=False)
class GroundTruths:
    """One image's ground truths as columns; ``GroundTruths()`` is the empty table. Sequences
    become arrays. A non-finite corner or a box of negative extent is rejected."""

    boxes: np.ndarray = ()  # (G, 4) float64 corners x1, y1, x2, y2
    class_id: np.ndarray = ()  # (G,) int64, or Python ints if one lies beyond 64 bits

    def __post_init__(self):
        _set_columns(self, (np.float64, np.int64))
        valid = np.isfinite(self.boxes).all(axis=1) & (self.boxes[:, 2:] >= self.boxes[:, :2]).all(axis=1)
        if not valid.all():
            i = int(np.argmin(valid))
            raise ValueError(f"ground truth {i}: non-finite corner or negative extent in {self.boxes[i].tolist()}")


def greedy_nms(
    dets: Detections,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    mode: str = "standard",
    score_floor: float = SCORE_FLOOR,
) -> Detections:
    """Per-class greedy suppression; kept rows return in priority order."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    scores = dets.score(mode)
    areas = checked_areas(dets.boxes, dets.image_id)

    cand = np.flatnonzero(scores >= score_floor)
    order = cand[np.lexsort((cand, -areas[cand], -scores[cand]))]
    # rows x1, y1, x2, y2, area of the candidates, in priority order
    rows = np.vstack((dets.boxes[order].T, areas[order]))
    order_classes = dets.class_id[order]
    kept = np.zeros(order.size, dtype=bool)  # by global rank
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in set(order_classes.tolist()):
            ranks = np.flatnonzero(order_classes == c)
            kept[ranks[_greedy_rows(rows[:, ranks], iou_threshold)]] = True
    return dets.take(order[kept])


def _greedy_rows(rows: np.ndarray, iou_threshold: float) -> list[int]:
    """Positions kept by greedy suppression of one class's (5, M) rows
    (x1, y1, x2, y2, area), already in priority order. Each survivor is
    compared with the later candidates as one 1 x M vector of ``iou_terms``;
    the caller silences the division warnings of the entries whose IOU is 0."""
    x1, y1, x2, y2, area = rows
    alive = np.ones(rows.shape[1], dtype=bool)
    kept = []
    for i in range(rows.shape[1]):
        if not alive[i]:
            continue
        kept.append(i)
        later = slice(i + 1, None)
        _, _, inter, union, zero = iou_terms((x1[i], y1[i], x2[i], y2[i]), area[i],
                                             (x1[later], y1[later], x2[later], y2[later]), area[later])
        alive[later] &= zero | ~(inter / union > iou_threshold)
    return kept


def detections_to_csv(rows: Detections) -> str:
    """Serialize a detections table under the pinned schema."""
    columns = (rows.image_id, rows.class_id, *rows.boxes.T, rows.p_cls, rows.p_iou)
    return csv_text(DETECTIONS_CSV_HEADER, zip(*(column.tolist() for column in columns)))


def detections_from_csv(text: str) -> Detections:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != DETECTIONS_CSV_HEADER:
        raise ValueError(f"bad detections CSV header: {header}")
    rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(DETECTIONS_CSV_HEADER):
            raise ValueError(f"detections CSV row of {len(row)} fields, expected {len(DETECTIONS_CSV_HEADER)}: {row}")
    values = np.array([[float(v) for v in row[2:]] for row in rows], dtype=np.float64).reshape(-1, 6)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in detections CSV row {rows[int(np.argmin(finite))]}")
    return Detections([row[0] for row in rows], values[:, :4], [int(row[1]) for row in rows], *values[:, 4:].T)
