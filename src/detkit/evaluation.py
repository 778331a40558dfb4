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

from .geometry import Box, iou_value

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = 101
AREA_RANGES = {
    "all": (0.0, math.inf),
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, math.inf),
}
MAX_DETECTIONS_PER_IMAGE = 100

# detections: image_id -> [(Box, class_id, score)]; gts: image_id -> [(Box, class_id)]
DetectionsByImage = dict[str, list[tuple[Box, int, float]]]
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


def _match_image(
    dets: list[tuple[int, Box, float]],
    gts: list[tuple[Box, bool]],
    ious: list[list[float]],
    thr: float,
) -> list[tuple[float, bool, bool]]:
    """Greedy matching inside one image and class.

    ``dets`` rows are (stable_index, box, score) already in score order;
    ``gts`` rows are (box, ignored); ``ious[d][g]`` is the IOU of
    detection d with ground truth g. Returns (score, is_tp, det_ignored)
    per detection. A detection prefers the highest-IOU unmatched
    non-ignored ground truth; failing that it may match an ignored one
    and is then ignored itself.
    """
    taken = [False] * len(gts)
    out = []
    for (_, _, sc), row in zip(dets, ious):
        best_g = -1
        best_iou = 0.0
        for g, (_, g_ign) in enumerate(gts):
            if taken[g]:
                continue
            if best_g >= 0 and not gts[best_g][1] and g_ign:
                break  # already holding a real match; don't trade for ignored
            v = row[g]
            if v >= thr and (best_g < 0 or v > best_iou):
                best_g, best_iou = g, v
        if best_g >= 0:
            taken[best_g] = True
            out.append((sc, not gts[best_g][1], gts[best_g][1]))
        else:
            out.append((sc, False, False))
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


def _area_ap(detections: DetectionsByImage, gts: GroundTruthsByImage, area: tuple[float, float]) -> list[float]:
    """Per-threshold AP averaged over classes for one area range."""
    lo, hi = area
    classes = sorted({c for objs in gts.values() for _, c in objs})
    image_ids = sorted(set(gts) | set(detections), key=str)

    aps_per_thr: list[list[float]] = [[] for _ in IOU_THRESHOLDS]
    for c in classes:
        # gts per image: non-ignored first; ignored = outside the area range
        gt_by_img: dict[str, list[tuple[Box, bool]]] = {}
        n_gt = 0
        for img in image_ids:
            rows = [(b, not (lo <= b.area < hi)) for b, cc in gts.get(img, []) if cc == c]
            rows.sort(key=lambda r: r[1])
            gt_by_img[img] = rows
            n_gt += sum(1 for _, ign in rows if not ign)
        if n_gt == 0:
            continue

        # per image, built once for all thresholds: the top detections in
        # score order and their IOUs against the ground truths
        per_image = []
        for img in image_ids:
            dets = [
                (i, b, s)
                for i, (b, cc, s) in enumerate(detections.get(img, []))
                if cc == c
            ]
            dets.sort(key=lambda r: (-r[2], r[0]))
            dets = dets[:MAX_DETECTIONS_PER_IMAGE]
            ious = [[iou_value(b, gbox) for gbox, _ in gt_by_img[img]] for _, b, _ in dets]
            per_image.append((img, dets, ious))

        for t_i, thr in enumerate(IOU_THRESHOLDS):
            records: list[tuple[float, bool, bool, str, int]] = []
            for img, dets, ious in per_image:
                matched = _match_image(dets, gt_by_img[img], ious, thr)
                for (stable_i, box, _), (sc, tp, ign) in zip(dets, matched):
                    if not tp and not ign and not (lo <= box.area < hi):
                        ign = True  # unmatched detection outside the range
                    records.append((sc, tp, ign, str(img), stable_i))
            aps_per_thr[t_i].append(_ap_from_records(records, n_gt))

    return [float(np.mean(v)) if v else 0.0 for v in aps_per_thr]


def evaluate(detections: DetectionsByImage, gts: GroundTruthsByImage) -> ApReport:
    """Full report: AP(0.5:0.95), AP50, AP75, and the three area splits."""
    all_t = _area_ap(detections, gts, AREA_RANGES["all"])
    return ApReport(
        ap=float(np.mean(all_t)),
        ap50=all_t[0],
        ap75=all_t[IOU_THRESHOLDS.index(0.75)],
        ap_small=float(np.mean(_area_ap(detections, gts, AREA_RANGES["small"]))),
        ap_medium=float(np.mean(_area_ap(detections, gts, AREA_RANGES["medium"]))),
        ap_large=float(np.mean(_area_ap(detections, gts, AREA_RANGES["large"]))),
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
