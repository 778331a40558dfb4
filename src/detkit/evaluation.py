"""COCO-protocol average precision over IOU thresholds and area splits.

Follows the standard conventions: greedy score-ordered matching of
detections to unmatched ground truths per image and class, thresholds
0.50 to 0.95 in steps of 0.05, 101-point interpolated precision, area
boundaries at 32^2 and 96^2 pixels, and at most 100 detections per image
and class. Ground truths outside an area range are ignored rather than
counted, as are detections matched to them or falling outside the range
unmatched. A field with no qualifying ground truths reports 0.0, keeping
every component inside [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, iou_matrix
from .nms import Detections

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = 101
AREA_RANGES = {
    "all": (0.0, math.inf),
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, math.inf),
}
MAX_DETECTIONS_PER_IMAGE = 100

GroundTruthsByImage = dict[str, list[tuple[Box, int]]]


@dataclass(frozen=True)
class ApReport:
    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float

    def as_dict(self) -> dict[str, float]:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_small": self.ap_small,
            "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
        }


def _match_image(gt_ignored: list[bool], ious: list[list[float]], thr: float) -> list[tuple[bool, bool]]:
    """Greedy matching inside one image and class.

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


def _ap_from_records(records: list[tuple[float, bool, bool, str, int]], n_gt: int) -> float:
    """101-point interpolated AP from (score, tp, ignored, image_id, idx) rows."""
    if n_gt == 0:
        return float("nan")
    records = sorted(records, key=lambda r: (-r[0], r[3], r[4]))
    kept = [(tp,) for score, tp, ignored, _, _ in records if not ignored]
    if not kept:
        return 0.0
    tps = np.cumsum([1 if tp else 0 for (tp,) in kept])
    fps = np.cumsum([0 if tp else 1 for (tp,) in kept])
    recall = tps / n_gt
    precision = tps / (tps + fps)
    # envelope: running max from the right
    for i in range(len(precision) - 1, 0, -1):
        precision[i - 1] = max(precision[i - 1], precision[i])
    grid = np.linspace(0.0, 1.0, RECALL_POINTS)
    idx = np.searchsorted(recall, grid, side="left")
    interp = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(interp.mean())


def _areas(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _area_ap(blocks: dict[int, list[tuple]], area: tuple[float, float]) -> list[float]:
    """Per-threshold AP averaged over classes for one area range, from the
    (image, class) blocks that ``evaluate`` builds."""
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
                for stable_i, s, out, (tp, ign) in zip(d, scores, d_outside, _match_image(g_ign, ious, thr)):
                    if not tp and not ign and out:
                        ign = True  # unmatched detection outside the range
                    records.append((s, tp, ign, img, stable_i))
            aps_per_thr[t_i].append(_ap_from_records(records, n_gt))

    return [float(np.mean(v)) if v else 0.0 for v in aps_per_thr]


def evaluate(detections: dict[str, Detections], gts: GroundTruthsByImage, mode: str) -> ApReport:
    """Full report: AP(0.5:0.95), AP50, AP75, and the three area splits,
    ranking each image's detections by their ``mode`` score."""
    # per (image, class) with a detection or a ground truth, for all area ranges and
    # thresholds: the top detections in score order, and one IOU block against the ground truths
    blocks: dict[int, list[tuple]] = {c: [] for c in sorted({c for objs in gts.values() for _, c in objs})}
    for img in sorted(set(gts) | set(detections), key=str):
        dets = detections.get(img, Detections())
        scores = dets.score(mode)
        gt_boxes = np.array([b.as_tuple() for b, _ in gts.get(img, [])], dtype=np.float64).reshape(-1, 4)
        gt_classes = np.array([c for _, c in gts.get(img, [])], dtype=object)  # any integers
        for c in (set(gt_classes.tolist()) | set(dets.class_id.tolist())) & blocks.keys():
            g = np.flatnonzero(gt_classes == c)
            d = np.flatnonzero(dets.class_id == c)
            d = d[np.lexsort((d, -scores[d]))][:MAX_DETECTIONS_PER_IMAGE]
            blocks[c].append((img, d.tolist(), scores[d].tolist(), _areas(dets.boxes[d]), _areas(gt_boxes[g]),
                              iou_matrix(dets.boxes[d], gt_boxes[g])))

    all_t = _area_ap(blocks, AREA_RANGES["all"])
    return ApReport(
        ap=float(np.mean(all_t)),
        ap50=all_t[0],
        ap75=all_t[IOU_THRESHOLDS.index(0.75)],
        ap_small=float(np.mean(_area_ap(blocks, AREA_RANGES["small"]))),
        ap_medium=float(np.mean(_area_ap(blocks, AREA_RANGES["medium"]))),
        ap_large=float(np.mean(_area_ap(blocks, AREA_RANGES["large"]))),
    )


def ground_truths_to_json(gts: GroundTruthsByImage) -> str:
    doc = {
        "images": [
            {
                "image_id": img,
                "objects": [{"class_id": c, "box": list(b.as_tuple())} for b, c in objs],
            }
            for img, objs in sorted(gts.items(), key=lambda kv: str(kv[0]))
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def ground_truths_from_json(text: str) -> GroundTruthsByImage:
    doc = json.loads(text)
    out: GroundTruthsByImage = {}
    for entry in doc["images"]:
        img = str(entry["image_id"])
        if img in out:
            raise ValueError(f"duplicate image entry {img!r} in ground-truth document")
        objects = []
        for obj in entry["objects"]:
            coords = obj["box"]
            if not isinstance(coords, list) or len(coords) != 4:
                raise ValueError(f"ground-truth box must be a list of 4 numbers, got {coords!r} in image {img!r}")
            # json.loads parses Infinity and NaN; a box at infinity falls
            # outside every area range and would be ignored silently
            if not all(
                (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v))
                for v in coords
            ):
                raise ValueError(f"non-numeric or non-finite ground-truth box {coords} in image {img!r}")
            class_id = obj["class_id"]
            # int() would read 1.7 or true as class 1
            if isinstance(class_id, bool) or not isinstance(class_id, int):
                raise ValueError(f"ground-truth class_id must be an integer, got {class_id!r} in image {img!r}")
            objects.append((Box(*coords), class_id))
        out[img] = objects
    return out
