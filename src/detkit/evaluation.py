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
from dataclasses import asdict, dataclass

import numpy as np

from .fileio import json_text
from .geometry import iou_matrix
from .nms import Detections, GroundTruths, checked_areas

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
    tp = np.array([r[1] for r in records if not r[2]], dtype=bool)
    if not len(tp):
        return 0.0
    tps = np.cumsum(tp)
    recall = tps / n_gt
    precision = tps / np.arange(1, len(tp) + 1)  # rows so far: tp + fp
    # envelope: running max from the right; a recall beyond the last row reads 0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    return float(np.append(envelope, 0.0)[idx].mean())


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


def evaluate(detections: dict[str, Detections], gts: dict[str, GroundTruths], mode: str) -> ApReport:
    """Full report: AP(0.5:0.95), AP50, AP75, and the three area splits,
    ranking each image's detections by their ``mode`` score; ``nms.checked_areas`` guards the box areas."""
    # per (image, class) with a detection or a ground truth, for all area ranges and
    # thresholds: the top detections in score order, and one IOU block against the ground truths
    blocks: dict[int, list[tuple]] = {c: [] for c in sorted({c for t in gts.values() for c in t.class_id.tolist()})}
    for img in sorted(set(gts) | set(detections), key=str):
        dets, truths = detections.get(img, Detections()), gts.get(img, GroundTruths())
        scores = dets.score(mode)
        d_areas, g_areas = (checked_areas(t.boxes, [img] * len(t.boxes)) for t in (dets, truths))
        for c in (set(truths.class_id.tolist()) | set(dets.class_id.tolist())) & blocks.keys():
            g = np.flatnonzero(truths.class_id == c)
            d = np.flatnonzero(dets.class_id == c)
            d = d[np.lexsort((d, -scores[d]))][:MAX_DETECTIONS_PER_IMAGE]
            blocks[c].append((img, d.tolist(), scores[d].tolist(), d_areas[d], g_areas[g],
                              iou_matrix(dets.boxes[d], truths.boxes[g])))

    all_t = _area_ap(blocks, AREA_RANGES["all"])
    return ApReport(
        ap=float(np.mean(all_t)),
        ap50=all_t[0],
        ap75=all_t[IOU_THRESHOLDS.index(0.75)],
        ap_small=float(np.mean(_area_ap(blocks, AREA_RANGES["small"]))),
        ap_medium=float(np.mean(_area_ap(blocks, AREA_RANGES["medium"]))),
        ap_large=float(np.mean(_area_ap(blocks, AREA_RANGES["large"]))),
    )


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
    """Each image's table, coordinates read as float64 (the table rejects the Infinity json.loads parses)."""
    doc = json.loads(text)
    images = doc.get("images") if isinstance(doc, dict) else None
    if not (isinstance(images, list) and all(isinstance(e, dict) and isinstance(e.get("objects"), list)
                                             and all(isinstance(o, dict) for o in e["objects"]) for e in images)):
        raise ValueError('ground-truth document must be {"images": [{"image_id", "objects": [{"box", "class_id"}]}]}')
    out: dict[str, GroundTruths] = {}
    for entry in images:
        img = str(entry["image_id"])
        if img in out:
            raise ValueError(f"duplicate image entry {img!r} in ground-truth document")
        boxes, class_ids = [o["box"] for o in entry["objects"]], [o["class_id"] for o in entry["objects"]]
        for coords in boxes:
            if not isinstance(coords, list) or len(coords) != 4:
                raise ValueError(f"ground-truth box must be a list of 4 numbers, got {coords!r} in image {img!r}")
        # float64 would read true or "1" as 1.0, and int() 1.7 or true as class 1
        if not {type(v) for coords in boxes for v in coords} <= {int, float}:
            raise ValueError(f"non-numeric ground-truth box coordinate in image {img!r}")
        for class_id in class_ids:
            if type(class_id) is not int:
                raise ValueError(f"ground-truth class_id must be an integer, got {class_id!r} in image {img!r}")
        try:
            out[img] = GroundTruths(boxes, class_ids)
        except (OverflowError, ValueError) as exc:  # OverflowError: an integer beyond float64
            raise ValueError(f"bad ground truths in image {img!r}: {exc}") from exc
    return out
