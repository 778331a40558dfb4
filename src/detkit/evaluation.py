"""COCO-protocol average precision over IOU thresholds and area splits.

Follows the standard conventions: thresholds 0.50 to 0.95 in steps of
0.05, 101-point interpolated precision, area boundaries at 32^2 and 96^2
pixels, and at most 100 detections per image and class. Per image and
class, each detection in score order takes the untaken ground truth with
IOU at or above the threshold that is highest under the key (not ignored,
IOU), the first in table order on a tie. Ground truths outside an area
range are ignored rather than counted, as are detections matched to them
or falling outside the range unmatched. A class's detections are ranked
once, by (-score, image, row). A field with no qualifying ground truths
reports 0.0, keeping every component inside [0, 1].

``evaluate`` decides all 4 area ranges x 10 thresholds, the 40 states, in
one pass of each kind:

- Matching. Only the pairs of one image and class whose IOU reaches the
  lowest threshold can match; one ``iou_matrix`` per image finds them, and
  a detection without one is unmatched, ignored where it lies outside the
  area range and counted elsewhere. The others are taken in score order
  inside each (image, class), the k-th of every (image, class) in step k,
  and each decides its 40 states at once against a ``taken`` array of
  (ground truth, area, threshold) by a masked argmax over its own pairs
  under the key above.
- Scoring. Each class is scored once, as one row per (area, threshold)
  over its detections in rank order. Cumulative sums of the counted true
  positives and of the counted rows give the precision at each counted
  rank, 0 at the others, and its running max from the right the
  envelope, which the uncounted ranks leave as it is. fl(k / n_gt) rises
  with k, so a recall point r is first reached at the least count k with
  fl(k / n_gt) >= r, one ``searchsorted`` per distinct n_gt: the point
  reads the envelope at the row's k-th true positive, and no float
  recall is compared.

Memory follows the detections, the pairs that can match and the largest
class and image, not their products with the number of classes or images.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fileio import json_text
from .geometry import iou_matrix
from .nms import Detections, GroundTruths, checked_areas
from .schema import check

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = 101
RECALL_GRID = np.linspace(0.0, 1.0, RECALL_POINTS)
AREA_RANGES = {
    "all": (0.0, math.inf),
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, math.inf),
}
MAX_DETECTIONS_PER_IMAGE = 100
GROUND_TRUTHS_SCHEMA = json.loads((Path(__file__).parent / "ground_truths_schema.json").read_text())

_THRESHOLDS = np.array(IOU_THRESHOLDS)
_AREA_BOUNDS = np.array(list(AREA_RANGES.values()))


@dataclass(frozen=True)
class ApReport:
    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def evaluate(detections: dict[str, Detections], gts: dict[str, GroundTruths], mode: str) -> ApReport:
    """Full report: AP(0.5:0.95), AP50, AP75, and the three area splits,
    ranking each image's detections by their ``mode`` score; ``nms.checked_areas`` guards the box areas."""
    images = sorted(set(gts) | set(detections), key=str)
    truths = [gts[img] if img in gts else GroundTruths() for img in images]
    class_ids, g_cls = np.unique(np.concatenate([t.class_id for t in truths] + [np.zeros(0, np.int64)]),
                                 return_inverse=True)
    classes = {c: rank for rank, c in enumerate(class_ids.tolist())}
    # the ground truths of all images in one table: image i's are rows g_start[i]:g_start[i + 1]
    g_start = np.cumsum([0] + [len(t.class_id) for t in truths])
    g_areas = [np.zeros(0)]
    # per image, the top detections of each class that has a ground truth, in (class, -score, row)
    # order: their class rank, -score, image and area; and, in (detection, ground truth) order, the
    # pairs of one class whose IOU reaches the lowest threshold, the only ones that can match
    columns = [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64), np.zeros(0))]
    pairs = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    n_dets = 0
    for i, (img, t) in enumerate(zip(images, truths)):
        dets = detections[img] if img in detections else Detections()
        scores = dets.score(mode)
        areas = checked_areas(dets.boxes, [img] * len(dets))
        g_areas.append(checked_areas(t.boxes, [img] * len(t.class_id)))
        values, inverse = np.unique(dets.class_id, return_inverse=True)
        ranks = np.array([classes.get(c, -1) for c in values.tolist()], dtype=np.int64)[inverse]  # -1: no ground truth
        d = np.flatnonzero(ranks >= 0)
        d = d[np.lexsort((d, -scores[d], ranks[d]))]
        d = d[np.arange(d.size) - np.searchsorted(ranks[d], ranks[d]) < MAX_DETECTIONS_PER_IMAGE]
        # a pair far apart can overflow its overlap, and its IOU is 0 all the same
        with np.errstate(over="ignore", invalid="ignore"):
            ious = iou_matrix(dets.boxes[d], t.boxes)
        p, g = np.nonzero((ious >= IOU_THRESHOLDS[0]) & (ranks[d, None] == g_cls[g_start[i]:g_start[i + 1]]))
        pairs.append((p + n_dets, g + g_start[i], ious[p, g]))
        columns.append((ranks[d], -scores[d], np.full(d.size, i), areas[d]))
        n_dets += d.size
    d_cls, neg_scores, image, d_areas = map(np.concatenate, zip(*columns))
    g_in = _in_ranges(np.concatenate(g_areas))  # (area, ground truth)
    hits, counted = _match(*map(np.concatenate, zip(*pairs)), image * len(classes) + d_cls, g_in,
                           _in_ranges(d_areas))

    # each class's detections in rank order, (-score, image, row): the rows come in (image, class,
    # -score, row) order, which a stable sort on (class, -score) keeps for ties
    order = np.lexsort((neg_scores, d_cls))
    bounds = np.searchsorted(d_cls[order], np.arange(len(classes) + 1))
    n_gt = np.stack([np.bincount(g_cls[inside], minlength=len(classes)) for inside in g_in])  # (area, class)
    # per (area, class), the least true-positive count whose recall reaches each recall point
    least = {n: np.searchsorted(np.arange(n + 1) / n, RECALL_GRID) for n in set(n_gt.ravel().tolist()) - {0}}
    least[0] = np.zeros(RECALL_POINTS, dtype=np.int64)
    aps = np.zeros((len(AREA_RANGES), len(IOU_THRESHOLDS), len(classes)))
    for c in range(len(classes)):
        rows = order[bounds[c]:bounds[c + 1]]
        aps[..., c] = _aps(hits[..., rows], counted[..., rows], np.array([least[n] for n in n_gt[:, c].tolist()]))
    # per area range and threshold, the mean over the classes with a ground truth in the range,
    # taken on a contiguous row, which numpy sums as it sums a list
    all_t, small, medium, large = (np.ascontiguousarray(area_aps[:, n > 0]).mean(axis=1).tolist() if n.any()
                                   else [0.0] * len(IOU_THRESHOLDS) for area_aps, n in zip(aps, n_gt))
    return ApReport(
        ap=float(np.mean(all_t)),
        ap50=all_t[0],
        ap75=all_t[IOU_THRESHOLDS.index(0.75)],
        ap_small=float(np.mean(small)),
        ap_medium=float(np.mean(medium)),
        ap_large=float(np.mean(large)),
    )


def _in_ranges(areas: np.ndarray) -> np.ndarray:
    """Whether each area lies inside each area range, along a new leading axis."""
    lo, hi = _AREA_BOUNDS.T.reshape((2, -1) + (1,) * areas.ndim)
    return (lo <= areas) & (areas < hi)


def _match(p_det, p_gt, p_iou, block, g_in, d_in):
    """Per area range, threshold and detection (A, T, M): whether the
    detection is a true positive, and whether it is counted.

    The pairs (``p_det``, ``p_gt``, ``p_iou``) in (detection, ground truth)
    order are the only ones that can match; ``block`` numbers the (image,
    class) of each detection, and a block's detections come in score
    order. ``g_in`` (A, G) and ``d_in`` (A, M) say which ground truths and
    detections lie inside each area range.
    """
    n_thr = len(IOU_THRESHOLDS)
    hits = np.zeros((len(d_in), n_thr, len(block)), dtype=bool)
    counted = np.repeat(d_in[:, None], n_thr, axis=1)  # unmatched: counted inside the range
    g_in = g_in.T  # (G, A)
    taken = np.zeros(g_in.shape + (n_thr,), dtype=bool)
    cand, first, width = np.unique(p_det, return_index=True, return_counts=True)
    step = np.arange(cand.size) - np.searchsorted(block[cand], block[cand])  # the k-th of its block goes in step k
    for k in range(step.max(initial=-1) + 1):
        now = step == k
        d, n = cand[now], width[now]
        heads = np.cumsum(n) - n  # where each detection's pairs start among the step's
        p = np.arange(n.sum()) + np.repeat(first[now] - heads, n)
        g, iou = p_gt[p], p_iou[p]
        free = (iou[:, None] >= _THRESHOLDS)[:, None] & ~taken[g]  # (pair, A, T)
        inside = free & g_in[g, :, None]
        pick = np.where(np.repeat(np.logical_or.reduceat(inside, heads), n, axis=0), inside, free)
        # per detection and state, the highest picked IOU, and the first pair that reaches it
        key = np.where(pick, iou[:, None, None], -1.0)
        best = np.maximum.reduceat(key, heads)
        reach = pick & (key == np.repeat(best, n, axis=0))
        q = np.minimum.reduceat(np.where(reach, np.arange(p.size)[:, None, None], p.size), heads)
        j, a, t = np.nonzero(best >= 0)
        g = g[q[j, a, t]]  # the ground truth that detection j takes in state (a, t)
        taken[g, a, t] = True
        hits[a, t, d[j]] = counted[a, t, d[j]] = g_in[g, a]
    return hits, counted


def _aps(hits: np.ndarray, counted: np.ndarray, need: np.ndarray) -> np.ndarray:
    """101-point interpolated AP of one class's (area, threshold) rows of
    true-positive and counted flags (A, T, N) in rank order, given per area
    range the least true-positive count that reaches each recall point
    (A, points); (A, T)."""
    tps = np.cumsum(hits, axis=-1, dtype=np.int32)
    # the precision at each counted rank, 0 at the others and in a last column that a recall past
    # the last rank reads; then, in place, its running max from the right
    n_ranks = hits.shape[-1]
    envelope = np.zeros(hits.shape[:-1] + (n_ranks + 1,))
    np.divide(tps, np.cumsum(counted, axis=-1, dtype=np.int32), out=envelope[..., :-1], where=counted)
    np.maximum.accumulate(envelope[..., ::-1], axis=-1, out=envelope[..., ::-1])
    # a point reads the envelope at the rank of the row's need-th true positive, at the first rank if it
    # needs none, and in the last column if the row has fewer
    need = need[:, None]
    ranks = np.append(np.nonzero(hits)[-1], n_ranks)  # the true positives' ranks, row by row
    count = hits.sum(axis=-1, keepdims=True)
    start = (np.cumsum(count) - count.ravel()).reshape(count.shape)
    first = np.where(need > 0, ranks[np.where(need <= count, start + need - 1, -1)], 0)
    row = np.arange(count.size).reshape(count.shape)
    return envelope.ravel()[row * (n_ranks + 1) + first].mean(axis=-1)


def ground_truths_to_json(gts: dict[str, GroundTruths]) -> str:
    doc = {
        "images": [
            {
                "image_id": img,
                "objects": [{"class_id": c, "box": b} for b, c in zip(t.boxes.tolist(), t.class_id.tolist())],
            }
            for img, t in sorted(gts.items(), key=lambda kv: str(kv[0]))
        ]
    }
    return json_text(doc)


def ground_truths_from_json(text: str) -> dict[str, GroundTruths]:
    """Each image's table from a document that meets ``ground_truths_schema.json``, coordinates
    read as float64."""
    doc = json.loads(text)
    check(doc, GROUND_TRUTHS_SCHEMA, "ground_truths")
    out: dict[str, GroundTruths] = {}
    for entry in doc["images"]:
        img = entry["image_id"]
        if img in out:
            raise ValueError(f"duplicate image entry {img!r} in ground-truth document")
        try:
            out[img] = GroundTruths([o["box"] for o in entry["objects"]], [o["class_id"] for o in entry["objects"]])
        except (OverflowError, ValueError) as exc:  # OverflowError: an integer beyond float64
            raise ValueError(f"bad ground truths in image {img!r}: {exc}") from exc
    return out
