"""Greedy non-maximum suppression with standard or IOU-guided scoring.

Standard mode ranks by classification confidence alone; IOU-guided mode
attenuates it by the predicted IOU (score = p_cls * p_iou), so a
confidently classified but badly localized box loses to a better
localized rival. Candidates below a small score floor are dropped up
front.

Every stage from decoding to the CSV files reads and writes one table,
``Detections``: a column per CSV field, one row per (box, class); each
image's ground truths are one ``GroundTruths`` table, synthesis to AP.
``greedy_nms`` orders the candidates by (-score, -area, index) and gives
each a dense class rank. It then decides every class in one sweep of rank
blocks: a block is the next ``BLOCK_ROWS`` live candidates in rank order,
of any class. Within a block only the pairs of one class whose
x-intervals overlap are formed (an argsort and ``searchsorted`` on one
integer key of class rank and x rank), those that do not overlap in y are
dropped, and a Python pass in rank order keeps the block's survivors. The
survivors then strike the later live rows of their class that a grid lets
near them, ``PAIR_BUDGET`` pairs at a time, so memory stays
O(N + budget). The grid is built the first time a strike step is needed,
so a call decided in one block pays nothing. It puts the rows of positive
width and height into cells by their class and the float64 exponents of
their width and height, and a cell's rows in centre-x order. A survivor
reads only the cells of its class whose own width and height extremes
allow both ratios below, and in them only the centre-x range that its
window reaches; ``_suppressing`` drops the pairs that do not overlap in y
before their IOUs are computed.

The kept rows are the ones the scalar definition gives (``iou_value`` in
``tests/oracles.py``, which the brute-force oracle runs). A pair left out
of a block, or dropped for not overlapping in y, has ``iw <= 0`` or
``ih <= 0``, IOU 0 under the IOU rule, and every other pair that is
formed goes through ``geometry.iou_terms``, the rule step by step, with
the higher-priority row first. The grid
leaves out only pairs whose computed IOU cannot exceed the threshold t:

- Exactly, inter <= min(w) * min(h) and union >= max(area) >=
  max(w) * min(h), so IOU <= min(w) / max(w), and the same for heights.
  IOU > t also means inter * (1 + t) > t * (area_a + area_b), where
  inter <= iw * min(h) and area_a + area_b >= (w_a + w_b) * min(h); so
  iw > t * (w_a + w_b) / (1 + t), and as iw <= (w_a + w_b) / 2 - |dcx|,
  |dcx| < (1 - t) / (1 + t) * max(w).
- The computed IOU and sizes are these quantities within a few ulps, so
  the grid widens each bound: a ratio must exceed t - 2**-40, and a
  centre distance lie within ((1 - t) / (1 + t) + 2**-40) * max(w) plus
  2**-40 of the largest coordinate magnitude, which covers the rounding
  of the centres. The grid's own products and halvings can also round by
  half a subnormal step, where a relative slack vanishes (a side of 2
  steps times 0.3 rounds to 1 step), so every size and window is widened
  by 2**-1060 as well. The ratios are checked against each cell's own
  extremes. A fixed distance in levels is not safe: at t = 0.5 a box a
  few ulps under half as wide as another inside it computes an IOU above
  0.5, because the union rounds down.
- These relative bounds hold while the larger area is a normal number
  far from underflow. Below that, a product's absolute rounding can beat
  both ratios: a box of 9 subnormal steps of area and one 0.49 as wide
  inside it compute an IOU of 5/9. So the bounds apply only where one of
  the two rows lies in a cell whose areas are at least 2**-962; a
  survivor and a row both in tiny cells are always compared.
- A row of zero width or height has ``iw <= 0`` or ``ih <= 0`` against
  any row, so it neither strikes nor is struck, and the grid leaves it
  out.

No decision reads a row of another class, so the kept set is the one
that suppressing each class on its own gives, however the blocks mix the
classes. Classes are kept apart by their rank in the integer keys, not by
the common trick of offsetting each class's coordinates into a disjoint
region: the offset changes the IOU's float bits and can flip a kept set
at the threshold.

``max_per_class`` = k caps each class of a call at k kept rows. The sweep
counts each class's survivors; in the block where a class reaches k, its
survivors past the k-th are dropped and its later rows leave the live
set, so no later block or strike step reads them, and the sweep ends once
no row is live. The cap is exact: greedy suppression is decided in rank
order, so a class's first k survivors depend only on the rows ranked
before its k-th, and the capped call returns the first k rows of each
class of the uncapped one, in the same order. ``evaluate`` ranks an
image's rows of a class by (-score, row) and reads the first
``MAX_DETECTIONS_PER_IMAGE``; the kept order (-score, -area, index)
refines that rank, so NMS on one image capped at that many per class
leaves its AP unchanged to the bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .fileio import csv_text, write_csv
from .geometry import box_areas, iou_terms

MODES = ("standard", "iou_guided")
DEFAULT_IOU_THRESHOLD = 0.5
SCORE_FLOOR = 0.01
BLOCK_ROWS = 192  # live candidates decided at a time; each block pays one strike step over the grid
PAIR_BUDGET = 4096  # candidate pairs compared at a time, which bounds the transient memory

DETECTIONS_CSV_HEADER = ["image_id", "class_id", "x1", "y1", "x2", "y2", "p_cls", "p_iou"]
# a number cell: ASCII digits, sign, point and exponent, or inf and nan for the finiteness check to name;
# int() and float() alone would also read "1_0", " 2 " and "\u0663"
_CSV_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
                         re.IGNORECASE | re.ASCII)
_CSV_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)  # a class id cell


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


def check_iou_threshold(iou_threshold: float) -> None:
    """The rule on an NMS IOU threshold: it lies in (0, 1), which NaN does not."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")


def greedy_nms(
    dets: Detections,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    mode: str = "standard",
    score_floor: float = SCORE_FLOOR,
    max_per_class: int | None = None,
) -> Detections:
    """Per-class greedy suppression; kept rows return in priority order.
    With ``max_per_class``, each class keeps only its first that many
    survivors, the rows the uncapped call keeps first (module docstring)."""
    check_iou_threshold(iou_threshold)
    if max_per_class is not None and max_per_class < 1:
        raise ValueError("max_per_class must be at least 1")
    scores = dets.score(mode)
    areas = checked_areas(dets.boxes, dets.image_id)

    cand = np.flatnonzero(scores >= score_floor)
    order = cand[np.lexsort((cand, -areas[cand], -scores[cand]))]
    # rows x1, y1, x2, y2, area of the candidates in priority order, and each one's dense class rank
    rows = np.vstack((dets.boxes[order].T, areas[order]))
    classes = np.unique(dets.class_id[order], return_inverse=True)[1]
    # a pair whose IOU is 0 may divide by zero or overflow, and a grid window past the largest double
    # is inf, which keeps its order
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return dets.take(order[_greedy_rows(rows, classes, iou_threshold, max_per_class)])


def _greedy_rows(rows: np.ndarray, classes: np.ndarray, iou_threshold: float, cap: int | None) -> np.ndarray:
    """Positions kept by greedy suppression of the (5, M) rows (x1, y1,
    x2, y2, area), already in priority order, with their dense class ranks,
    in the rank blocks of the module docstring, at most ``cap`` of a class
    if it is set; the caller silences the warnings of the pairs whose IOU
    is 0 and of the grid's infinite windows."""
    live = np.ones(rows.shape[1], dtype=bool)  # neither struck nor decided
    if cap is not None:
        room = np.full(classes.max(initial=-1) + 1, min(cap, classes.size))  # survivors a class may still keep
    grid = None
    kept = []
    start = 0
    while (block := np.flatnonzero(live[start:])[:BLOCK_ROWS] + start).size:
        start = block[-1] + 1
        live[block] = False

        # each pair of block positions of one class once, lower first: a row with every row after
        # it in (class, x1) order that is of its class and starts before it ends. As the count of
        # x1 values below it, each x1 and x2 compares as it does, and one integer key holds the class
        block_rows = rows[:, block]
        x1, x2 = np.searchsorted(np.sort(block_rows[0]), block_rows[[0, 2]]) + classes[block] * (block.size + 1)
        bx = np.argsort(x1, kind="stable")
        after = np.arange(1, bx.size + 1)
        pairs = _pairs(bx, after, np.searchsorted(x1[bx], x2[bx]) - after, bx)
        hits = _suppressing(block_rows, iou_threshold, ((np.minimum(p, q), np.maximum(p, q)) for p, q in pairs))
        a, b = (np.concatenate(column) for column in zip(*hits, (block[:0], block[:0])))
        order = np.argsort(a, kind="stable")
        struck = [False] * block.size
        for i, j in zip(a[order].tolist(), b[order].tolist()):
            if not struck[i]:
                struck[j] = True
        survivors = block[~np.array(struck)]
        if cap is not None:
            # a survivor past its class's room is dropped, and a class without room leaves the sweep
            c = classes[survivors]
            by_class = np.argsort(c, kind="stable")
            nth = np.empty_like(by_class)
            nth[by_class] = np.arange(c.size) - np.searchsorted(c[by_class], c[by_class])
            survivors = survivors[nth < room[c]]
            room -= np.bincount(classes[survivors], minlength=room.size)
            if not room[c].all():
                live[start:] &= room[classes[start:]] > 0
        kept.append(survivors)

        # the survivors against the later live rows that the grid lets near
        if live[start:].any():
            grid = grid or _Grid(rows, classes, iou_threshold)
            for _, b in _suppressing(rows, iou_threshold, grid.pairs(survivors, live)):
                live[b] = False
    return np.concatenate(kept or [block])


class _Grid:
    """The rows indexed for the strike step, as the module docstring sets
    out: by (class, width level, height level) cell, then by centre-x rank.
    Rows of zero width or height overlap nothing and are left out."""

    def __init__(self, rows: np.ndarray, classes: np.ndarray, iou_threshold: float):
        self.all_rows, self.classes, self.thr = rows, classes, iou_threshold
        x1, y1, x2, y2, _ = rows
        # the slack covering the rounding of the centres
        self.x_slack = _SLACK * max(np.abs(x1).max(), np.abs(x2).max()) + _ABS_SLACK
        # built a column at a time, so that few O(M) arrays are alive at once
        members = np.flatnonzero((x2 > x1) & (y2 > y1))
        w, h = x2[members] - x1[members], y2[members] - y1[members]
        cells, cell = np.unique(classes[members] << _CLASS_SHIFT | _levels(w, h), return_inverse=True)
        self.tiny = _tiny(cells)
        # the cells of class k are cells[class_cells[k]:class_cells[k + 1]]
        self.class_cells = np.searchsorted(cells >> _CLASS_SHIFT, np.arange(classes.max(initial=-1) + 2))
        self.extremes = []  # (min, max) of each cell's widths, then of its heights
        for size in (w, h):
            lo, hi = np.full(len(cells), np.inf), np.zeros(len(cells))
            np.minimum.at(lo, cell, size)
            np.maximum.at(hi, cell, size)
            self.extremes += [lo, hi]
        del w, h
        # rows in (cell, centre-x rank) order, as one int64 key; rows of one centre-x share a rank
        cx = _centres(x1, x2, members)
        self.x_sorted = np.sort(cx)
        self.stride = len(members) + 1  # of the cells in the row keys
        cell *= self.stride
        cell += np.searchsorted(self.x_sorted, cx)
        del cx
        order = np.argsort(cell)
        self.rows, self.row_keys = members[order], cell[order]

    def pairs(self, survivors: np.ndarray, live: np.ndarray):
        """Chunks of index pairs (survivor, live row) that hold every pair
        whose computed IOU can exceed the threshold. Rows no longer live
        leave the index first; its keys stay sorted."""
        keep = live[self.rows]
        self.rows, self.row_keys = self.rows[keep], self.row_keys[keep]
        x1, y1, x2, y2, _ = self.all_rows
        survivors = survivors[(x2[survivors] > x1[survivors]) & (y2[survivors] > y1[survivors])]
        # each survivor with each cell of its class, PAIR_BUDGET at a time
        first = self.class_cells[self.classes[survivors]]
        for s, c in _pairs(survivors, first, self.class_cells[self.classes[survivors] + 1] - first,
                           np.arange(len(self.tiny))):
            yield from _pairs(*self._ranges(s, c), self.rows)

    def _ranges(self, s: np.ndarray, c: np.ndarray):
        """Of the survivors ``s`` and cells ``c`` of their class, the pairs
        in which the survivor must read the cell: the survivor, and the
        start and count in ``self.rows`` of the cell's rows inside the
        survivor's centre-x window."""
        w_lo, w_hi, h_lo, h_hi = self.extremes
        x1, y1, x2, y2, _ = self.all_rows
        w, h = x2[s] - x1[s], y2[s] - y1[s]
        tiny = _tiny(_levels(w, h)) & self.tiny[c]
        # a size v and a cell's [lo, hi] allow a ratio above t when v > t * lo and hi > t * v; the
        # absolute slack covers t * v rounding by half a subnormal step
        t = self.thr - _SLACK
        read = tiny | ((w + _ABS_SLACK > t * w_lo[c]) & (w_hi[c] + _ABS_SLACK > t * w)
                       & (h + _ABS_SLACK > t * h_lo[c]) & (h_hi[c] + _ABS_SLACK > t * h))
        s, c, w, tiny = s[read], c[read], w[read], tiny[read]
        # the centre-x windows; pairs of tiny cells are not bounded
        rx = ((1.0 - self.thr) / (1.0 + self.thr) + _SLACK) * np.where(tiny, np.inf, np.maximum(w, w_hi[c]))
        rx += self.x_slack
        cx, key = _centres(x1, x2, s), c * self.stride
        ranks = np.searchsorted(self.x_sorted, cx - rx), np.searchsorted(self.x_sorted, cx + rx, "right")
        start, end = np.searchsorted(self.row_keys, key + ranks)  # the first row at or past each end
        return s, start, end - start


_SLACK = 2.0**-40  # bounds widened by far more than the IOU's computed bits can move
_ABS_SLACK = 2.0**-1060  # and by more than a product or halving rounds below the normal range
_TINY_LEVELS = 1084  # cells whose two biased exponents sum below this hold areas below 2**-960
_CLASS_SHIFT = 22  # a cell key holds the class rank above the two 11-bit exponents


def _centres(lo: np.ndarray, hi: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """0.5 * lo + 0.5 * hi of the rows ``idx``: halved first, it does not overflow as 0.5 * (lo + hi) can."""
    out, half_hi = lo[idx], hi[idx]
    out *= 0.5
    half_hi *= 0.5
    out += half_hi
    return out


def _levels(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The cell of each (w, h): their biased float64 exponents as one key.
    Any grouping is exact, since queries read each cell's own extremes."""
    return (w.view(np.int64) >> 52 << 11) | (h.view(np.int64) >> 52)


def _tiny(cells: np.ndarray) -> np.ndarray:
    """Whether each cell's areas lie below 2**-960, where products can underflow."""
    return (cells >> 11 & 2047) + (cells & 2047) < _TINY_LEVELS


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
    x1, y1, x2, y2, area = rows
    for a, b in pairs:
        # a pair with no y-overlap has IOU 0
        near = np.minimum(y2[a], y2[b]) > np.maximum(y1[a], y1[b])
        a, b = a[near], b[near]
        _, _, inter, union, zero = iou_terms((x1[a], y1[a], x2[a], y2[a]), area[a], (x1[b], y1[b], x2[b], y2[b]), area[b])
        hit = ~zero & (inter / union > iou_threshold)
        yield a[hit], b[hit]


def _csv_columns(rows: Detections) -> tuple:
    return rows.image_id, rows.class_id, *rows.boxes.T, rows.p_cls, rows.p_iou


def detections_to_csv(rows: Detections) -> str:
    """Serialize a detections table under the pinned schema."""
    return csv_text(DETECTIONS_CSV_HEADER, _csv_columns(rows))


def write_detections_csv(path, rows: Detections) -> None:
    """Write ``detections_to_csv(rows)`` to ``path`` one chunk of rows at a time."""
    write_csv(path, DETECTIONS_CSV_HEADER, _csv_columns(rows))


def detections_from_csv(text: str) -> Detections:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != DETECTIONS_CSV_HEADER:
        raise ValueError(f"bad detections CSV header: {header}")
    rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(DETECTIONS_CSV_HEADER):
            raise ValueError(f"detections CSV row of {len(row)} fields, expected {len(DETECTIONS_CSV_HEADER)}: {row}")
        if not (_CSV_INTEGER.fullmatch(row[1]) and all(map(_CSV_NUMBER.fullmatch, row[2:]))):
            raise ValueError(f"malformed number in detections CSV row {row}")
    values = np.array([[float(v) for v in row[2:]] for row in rows], dtype=np.float64).reshape(-1, 6)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in detections CSV row {rows[int(np.argmin(finite))]}")
    return Detections([row[0] for row in rows], values[:, :4], [int(row[1]) for row in rows], *values[:, 4:].T)
