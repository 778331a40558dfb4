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
takes each class separately and decides its live candidates in rank
blocks of ``BLOCK_ROWS``. Within a block only the pairs whose x-intervals
overlap are formed (an argsort and ``searchsorted`` on x1), and a Python
pass in rank order keeps the block's survivors. The survivors then strike
the later live rows whose x-intervals overlap theirs, ``PAIR_BUDGET``
pairs at a time, so memory stays O(N + budget). The kept rows are the
ones the scalar definition gives: a pair left out has ``iw <= 0``, IOU 0
under ``iou_value``'s rule, and every other pair goes through
``geometry.iou_terms``, ``iou_value`` step by step, with the
higher-priority row first. Where fewer pairs overlap in y, the sweep runs
along y instead; iw and ih trade places and inter = iw * ih keeps its
bits. Classes are kept apart by bucketing, not by the common trick of
offsetting each class's coordinates into a disjoint region: the offset
changes the IOU's float bits and can flip a kept set at the threshold.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .fileio import csv_text
from .geometry import box_areas, iou_terms

MODES = ("standard", "iou_guided")
DEFAULT_IOU_THRESHOLD = 0.5
SCORE_FLOOR = 0.01
BLOCK_ROWS = 96  # live candidates decided at a time
PAIR_BUDGET = 4096  # candidate pairs compared at a time, which bounds the transient memory

DETECTIONS_CSV_HEADER = ["image_id", "class_id", "x1", "y1", "x2", "y2", "p_cls", "p_iou"]
# a number cell: ASCII digits, sign, point and exponent, or inf and nan for the finiteness check to name;
# int() and float() alone would also read "1_0", " 2 " and "\u0663"
_CSV_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
                         re.IGNORECASE | re.ASCII)


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
        """The rows ``idx`` selects (an index array or a boolean mask). A row
        subset of a valid table is valid, so only Python-int class ids, which
        a subset may bring back within 64 bits, go through the constructor."""
        columns = [getattr(self, f.name)[idx] for f in fields(self)]
        if self.class_id.dtype == object:
            return Detections(*columns)
        table = object.__new__(Detections)
        for f, column in zip(fields(self), columns):
            object.__setattr__(table, f.name, column)
        return table

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
    order_classes = dets.class_id[order]
    kept = np.zeros(order.size, dtype=bool)  # by global rank
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in set(order_classes.tolist()):
            ranks = np.flatnonzero(order_classes == c)
            # rows x1, y1, x2, y2, area of the class's candidates, in priority order
            rows = np.vstack((dets.boxes[order[ranks]].T, areas[order[ranks]]))
            kept[ranks[_greedy_rows(rows, iou_threshold)]] = True
    return dets.take(order[kept])


def _greedy_rows(rows: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Positions kept by greedy suppression of one class's (5, M) rows
    (x1, y1, x2, y2, area), already in priority order, in the rank blocks
    of the module docstring; the caller silences the division warnings of
    the pairs whose IOU is 0."""
    # one block forms only its own pairs, on either axis
    if rows.shape[1] > BLOCK_ROWS and _sweep_pairs(rows[1], rows[3]) < _sweep_pairs(rows[0], rows[2]):
        rows = rows[[1, 0, 3, 2, 4]]
    x1, x2 = rows[0], rows[2]
    live = np.ones(rows.shape[1], dtype=bool)  # neither struck nor decided
    by_x = np.argsort(x1, kind="stable")  # the live rows by x1
    kept = []
    start = 0
    while (block := np.flatnonzero(live[start:])[:BLOCK_ROWS] + start).size:
        start = block[-1] + 1
        live[block] = False
        by_x = by_x[live[by_x]]

        # each pair of block positions once, lower first: a row with every
        # row after it in x order that starts before it ends
        block_rows = rows[:, block]
        bx = np.argsort(block_rows[0], kind="stable")
        after = np.arange(1, bx.size + 1)
        pairs = _pairs(bx, after, np.searchsorted(block_rows[0][bx], block_rows[2][bx]) - after, bx)
        hits = _suppressing(block_rows, iou_threshold, ((np.minimum(p, q), np.maximum(p, q)) for p, q in pairs))
        a, b = (np.concatenate(column) for column in zip(*hits, (block[:0], block[:0])))
        order = np.argsort(a, kind="stable")
        struck = [False] * block.size
        for i, j in zip(a[order].tolist(), b[order].tolist()):
            if not struck[i]:
                struck[j] = True
        survivors = block[~np.array(struck)]
        kept.append(survivors)
        if not by_x.size:
            break

        # the survivors against the later live rows that start inside one,
        # and those that one starts inside
        sx = survivors[np.argsort(x1[survivors], kind="stable")]
        later = x1[by_x]
        lo = np.searchsorted(later, x1[sx])
        for _, b in _suppressing(rows, iou_threshold, _pairs(sx, lo, np.searchsorted(later, x2[sx]) - lo, by_x)):
            live[b] = False
        # a survivor starts inside only rows that start before the last one
        # does (the block's first row always survives)
        before = by_x[:np.searchsorted(later, x1[sx[-1]])]
        lo = np.searchsorted(x1[sx], x1[before], "right")
        pairs = _pairs(before, lo, np.searchsorted(x1[sx], x2[before]) - lo, sx)
        for _, b in _suppressing(rows, iou_threshold, ((s, r) for r, s in pairs)):
            live[b] = False
    return np.concatenate(kept or [block])


def _sweep_pairs(lo, hi) -> int:
    """How many pairs a sweep over the intervals [lo, hi) forms: those of
    each row with every row starting inside it."""
    lo_sorted = np.sort(lo)
    return int(np.searchsorted(lo_sorted, hi).sum() - np.searchsorted(lo_sorted, lo).sum())


def _pairs(owners, starts, counts, targets):
    """Index arrays of at most ``PAIR_BUDGET`` pairs each, which together
    pair ``owners[i]`` with ``targets[starts[i]:starts[i] + counts[i]]``."""
    counts = np.maximum(counts, 0)
    ends = np.cumsum(counts)
    shift = starts - ends + counts  # pair k of owner i is target k + shift[i]
    total = int(ends[-1]) if ends.size else 0
    for first in range(0, total, PAIR_BUDGET):
        last = min(first + PAIR_BUDGET, total)
        i, j = np.searchsorted(ends, (first, last - 1), "right") + (0, 1)
        n = np.minimum(ends[i:j], last) - np.maximum(ends[i:j] - counts[i:j], first)
        yield np.repeat(owners[i:j], n), targets[np.arange(first, last) + np.repeat(shift[i:j], n)]


def _suppressing(rows, iou_threshold, pairs):
    """The index pairs (a, b) of each chunk of ``pairs`` whose IOU exceeds
    the threshold; ``a``, the higher-priority row, is ``iou_terms``' first
    operand."""
    for a, b in pairs:
        (*a_corners, a_area), (*b_corners, b_area) = ([column[a] for column in rows], [column[b] for column in rows])
        _, _, inter, union, zero = iou_terms(a_corners, a_area, b_corners, b_area)
        hit = ~zero & (inter / union > iou_threshold)
        yield a[hit], b[hit]


def detections_to_csv(rows: Detections) -> str:
    """Serialize a detections table under the pinned schema."""
    return csv_text(DETECTIONS_CSV_HEADER, (rows.image_id, rows.class_id, *rows.boxes.T, rows.p_cls, rows.p_iou))


def detections_from_csv(text: str) -> Detections:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != DETECTIONS_CSV_HEADER:
        raise ValueError(f"bad detections CSV header: {header}")
    rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(DETECTIONS_CSV_HEADER):
            raise ValueError(f"detections CSV row of {len(row)} fields, expected {len(DETECTIONS_CSV_HEADER)}: {row}")
        if not all(map(_CSV_NUMBER.fullmatch, row[1:])):
            raise ValueError(f"malformed number in detections CSV row {row}")
    values = np.array([[float(v) for v in row[2:]] for row in rows], dtype=np.float64).reshape(-1, 6)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in detections CSV row {rows[int(np.argmin(finite))]}")
    return Detections([row[0] for row in rows], values[:, :4], [int(row[1]) for row in rows], *values[:, 4:].T)
