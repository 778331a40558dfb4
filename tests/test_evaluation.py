import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.evaluation import (
    MAX_DETECTIONS_PER_IMAGE, ApReport, evaluate, ground_truths_from_json, ground_truths_to_json,
)
from detkit.nms import MODES, Detections, GroundTruths, greedy_nms

from conftest import any_boxes, awkward_text, bits, gt_tables, records, tables
from oracles import Box, ap_bruteforce, evaluate_reference, iou_value, score

# one small, one medium, one large object (areas 400, 3600, 14400)
PERFECT_GTS = {
    "0": [(Box(0, 0, 20, 20), 1), (Box(40, 40, 100, 100), 1)],
    "1": [(Box(10, 10, 130, 130), 2)],
}


def crafted_instance():
    """3 gts / 4 dets, single class, distinct scores; the TP pattern at
    IOU 0.5 is [1, 0, 1, 0], giving AP50 = 56/101 (rational enumeration)."""
    gts = {
        "0": [
            (Box(0.0, 0.0, 10.0, 10.0), 1),
            (Box(20.0, 0.0, 30.0, 10.0), 1),
            (Box(50.0, 50.0, 60.0, 60.0), 1),
        ]
    }
    dets = {
        "0": [
            (Box(0.0, 0.0, 8.0, 10.0), 1, 0.9),    # IOU 0.8 vs gt1 -> TP
            (Box(20.0, 0.0, 23.0, 10.0), 1, 0.8),  # IOU 0.3 vs gt2 -> FP
            (Box(20.0, 0.0, 26.0, 10.0), 1, 0.7),  # IOU 0.6 vs gt2 -> TP
            (Box(0.0, 0.0, 9.0, 10.0), 1, 0.6),    # gt1 already matched -> FP
        ]
    }
    return dets, gts

AP50_CRAFTED = 56.0 / 101.0


class TestEvaluate:
    def test_perfect_detections_score_one_everywhere(self):
        dets = {
            img: [(b, c, 1.0) for b, c in objs] for img, objs in PERFECT_GTS.items()
        }
        report = evaluate(tables(dets), gt_tables(PERFECT_GTS), "standard")
        assert report == ApReport(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_zero_detections_score_zero(self):
        report = evaluate({}, gt_tables(PERFECT_GTS), "standard")
        assert report == ApReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_crafted_instance_matches_rational_oracle(self):
        dets, gts = crafted_instance()
        assert evaluate(tables(dets), gt_tables(gts), "standard").ap50 == pytest.approx(AP50_CRAFTED, abs=1e-12)

    def test_crafted_instance_matches_bruteforce_oracle(self):
        dets, gts = crafted_instance()
        want = ap_bruteforce(dets, gts, class_id=1, iou_threshold=0.5)
        assert evaluate(tables(dets), gt_tables(gts), "standard").ap50 == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(AP50_CRAFTED, abs=1e-12)

    def test_ap_nonincreasing_in_threshold(self):
        dets, gts = crafted_instance()
        thresholds = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
        aps = [ap_bruteforce(dets, gts, 1, t) for t in thresholds]
        assert all(a >= b for a, b in zip(aps, aps[1:]))
        report = evaluate(tables(dets), gt_tables(gts), "standard")
        assert report.ap50 >= report.ap75

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        dets, gts = _random_instance(rng, n_images=5)
        want = evaluate(tables(dets), gt_tables(gts), "standard")
        for _ in range(50):
            order = list(gts)
            rng.shuffle(order)
            dets_shuffled = {k: dets[k] for k in order if k in dets}
            gts_shuffled = {k: gts[k] for k in order}
            assert evaluate(tables(dets_shuffled), gt_tables(gts_shuffled), "standard") == want

    def test_adding_perfect_match_never_decreases(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 10:
            dets, gts = _random_instance(rng, n_images=2)
            found = _an_unmatched_gt(dets, gts)
            if found is None:
                continue
            img, (gt_box, gt_cls) = found
            before = evaluate(tables(dets), gt_tables(gts), "standard")
            top = max((s for lst in dets.values() for _, _, s in lst), default=0.5)
            dets.setdefault(img, []).append((gt_box, gt_cls, min(top + 0.01, 1.0)))
            after = evaluate(tables(dets), gt_tables(gts), "standard")
            for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
                assert getattr(after, field) >= getattr(before, field) - 1e-12
            checked += 1

    def test_range_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dets, gts = _random_instance(rng, n_images=3)
            report = evaluate(tables(dets), gt_tables(gts), "standard")
            for v in report.as_dict().values():
                assert 0.0 <= v <= 1.0
            assert report.ap <= max(report.ap50, report.ap75) + 1e-12


    @pytest.mark.parametrize("mode", ["standard", "iou_guided"])
    def test_mode_ranks_by_its_score(self, mode):
        # a confident bad box and a better localized one on each ground
        # truth: the ranking, and with it AP50, depends on the mode
        gts = {"0": [(Box(0.0, 0.0, 10.0, 10.0), 1), (Box(50.0, 0.0, 60.0, 10.0), 1)]}
        dets = Detections(
            ["0"] * 4,
            [(0.0, 0.0, 4.0, 10.0), (0.0, 0.0, 9.0, 10.0), (50.0, 0.0, 54.0, 10.0), (50.0, 0.0, 59.0, 10.0)],
            [1, 1, 1, 1],
            [0.95, 0.85, 0.9, 0.8],
            [0.3, 0.9, 0.35, 0.95],
        )
        oracle_rows = [(d.box, d.class_id, score(d, mode)) for d in records(dets)]
        want = ap_bruteforce({"0": oracle_rows}, gts, class_id=1, iou_threshold=0.5)
        assert evaluate({"0": dets}, gt_tables(gts), mode).ap50 == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx({"standard": 0.5, "iou_guided": 1.0}[mode], abs=1e-12)


# sides whose products fall in every area range (64 to 16,900); corners on a
# 4-pixel grid, so ground truths repeat and overlap and one detection clears
# the threshold with several of them
GRID_SIDES = (8.0, 24.0, 40.0, 64.0, 100.0, 130.0)
grid_boxes = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), st.sampled_from((0.0, 4.0, 8.0)),
                       st.sampled_from((0.0, 4.0, 8.0)), st.sampled_from(GRID_SIDES), st.sampled_from(GRID_SIDES))
jitters = st.tuples(*[st.sampled_from((-4.0, -2.0, 0.0, 2.0, 4.0))] * 4)
# few distinct scores, so they tie within and across images
tied_probs = st.one_of(st.sampled_from((0.25, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def coco_instances(draw):
    """Detections and ground truths per image, and a ranking mode. Images
    may hold no rows, or appear on one side only; one class id lies beyond
    64 bits; one image may hold a crowd of more than 100 detections of one
    class, which the per-image cap cuts."""
    classes = draw(st.lists(st.sampled_from((1, 2, 2**70)), min_size=1, max_size=3, unique=True))
    images = draw(st.lists(st.sampled_from(("a", "b", "10", "9", "")), min_size=1, max_size=4, unique=True))
    gts, dets = {}, {}
    for img in images:
        objs = draw(st.lists(st.tuples(grid_boxes, st.sampled_from(classes)), max_size=5))
        rows = []  # box, class_id, p_cls, p_iou
        for _ in range(draw(st.integers(0, 6))):
            if objs and draw(st.booleans()):  # near a ground truth, maybe of another class
                box, c = draw(st.sampled_from(objs))
                dx1, dy1, dx2, dy2 = draw(jitters)
                box = Box(box.x1 + dx1, box.y1 + dy1, box.x2 + dx2, box.y2 + dy2)
            else:
                box = draw(grid_boxes)
            rows.append((box, draw(st.sampled_from(classes)), draw(tied_probs), draw(tied_probs)))
        crowd = draw(st.sampled_from((0, 0, 101, 130)))
        rows += [(Box(k % 5, k % 3, 40.0 + k % 7, 40.0), classes[0], (0.25, 0.5, 1.0)[k % 3], 1.0 - k / 200.0)
                 for k in range(crowd)]
        side = draw(st.sampled_from(("both", "gts", "dets")))
        if side != "dets":
            gts[img] = objs
        if side != "gts":
            dets[img] = Detections([img] * len(rows), [r[0].as_tuple() for r in rows], [r[1] for r in rows],
                                   [r[2] for r in rows], [r[3] for r in rows])
    return dets, gt_tables(gts), draw(st.sampled_from(MODES))


class TestMatchesReference:
    """``evaluate`` against the evaluator that reordered ground truths per
    area range and sorted records per threshold, on all six fields."""

    @settings(deadline=None, max_examples=150)
    @given(coco_instances())
    def test_same_bits(self, instance):
        dets, gts, mode = instance
        assert bits(evaluate(dets, gts, mode)) == bits(evaluate_reference(dets, gts, mode))


@st.composite
def many_class_instances(draw):
    """Detections and ground truths of up to 10 classes, so that a mean over
    classes can take numpy's 8-way pairwise sum, and up to 12 ground truths
    per image and class, which detections near them contend for."""
    n_classes = draw(st.sampled_from((1, 3, 9, 10)))
    classes = draw(st.lists(st.integers(-3, 12), min_size=n_classes, max_size=n_classes, unique=True))
    gts, dets = {}, {}
    for img in draw(st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=3, unique=True)):
        objs, rows = [], []
        for c in classes:
            size = draw(st.sampled_from((0, 1, 1, 3, 12)))
            objs += [(box, c) for box in draw(st.lists(grid_boxes, min_size=size, max_size=size))]
        for _ in range(draw(st.integers(0, 3 * len(objs) + 2))):
            if objs and draw(st.booleans()):  # near a ground truth, of its class or another
                box, c = draw(st.sampled_from(objs))
                dx1, dy1, dx2, dy2 = draw(jitters)
                box = Box(box.x1 + dx1, box.y1 + dy1, box.x2 + dx2, box.y2 + dy2)
                c = draw(st.sampled_from((c, c, draw(st.sampled_from(classes)))))
            else:
                box, c = draw(grid_boxes), draw(st.sampled_from(classes))
            rows.append((box, c, draw(tied_probs), draw(tied_probs)))
        gts[img] = objs
        dets[img] = Detections([img] * len(rows), [r[0].as_tuple() for r in rows], [r[1] for r in rows],
                               [r[2] for r in rows], [r[3] for r in rows])
    return dets, gt_tables(gts), draw(st.sampled_from(MODES))


class TestManyClassesMatchReference:
    """``evaluate`` against the reference on instances of many classes and
    crowded ground truths, on all six fields."""

    @settings(deadline=None, max_examples=60)
    @given(many_class_instances())
    def test_same_bits(self, instance):
        dets, gts, mode = instance
        assert bits(evaluate(dets, gts, mode)) == bits(evaluate_reference(dets, gts, mode))

    def test_pairs_far_apart_overflow_silently(self):
        # the IOU matrix of an image pairs every detection with every ground truth, of any class;
        # 1.4e308 apart, the overlap width overflows to -inf, and the IOU is 0 without a warning
        far, near = Box(-1.5e308, 0.0, -1.4e308, 1.0), Box(1.4e308, 0.0, 1.5e308, 1.0)
        gts = {"0": [(far, 1), (near, 2)]}
        dets = {"0": [(near, 2, 0.9)]}
        report = evaluate(tables(dets), gt_tables(gts), "standard")
        assert report.ap50 == 0.5
        assert bits(report) == bits(evaluate_reference(tables(dets), gt_tables(gts), "standard"))

    def test_range_without_counted_detection_at_high_thresholds(self):
        # a small ground truth S, a medium one M and one medium detection D with IOU 0.75 against S
        # and 0.9 against M. Small range: D takes S up to the 0.75 threshold; above it D can take
        # only the ignored M, or nothing and lies outside the range, so no detection counts at 0.8
        # to 0.95 while S does. Medium range: D takes M up to 0.9, and at 0.95 counts unmatched
        gts = {"0": [(Box(0.0, 0.0, 30.0, 30.0), 1), (Box(0.0, 0.0, 30.0, 36.0), 1)]}
        dets = {"0": [(Box(0.0, 0.0, 30.0, 40.0), 1, 0.9)]}
        report = evaluate(tables(dets), gt_tables(gts), "standard")
        assert (report.ap_small, report.ap_medium) == (pytest.approx(0.6, abs=1e-12), pytest.approx(0.9, abs=1e-12))
        assert bits(report) == bits(evaluate_reference(tables(dets), gt_tables(gts), "standard"))


def skewed_instance():
    """40 images of 60 classes: class 0 has 100 detections per image, the
    others one, and image 0 holds 1,500 ground truths of class 0 where the
    others hold one per class. Each detection lies near a ground truth of its
    class."""
    rng = np.random.default_rng(0)
    dets, gts = {}, {}
    for i in range(40):
        n_big = 1_500 if i == 0 else 1
        g_cls = np.r_[np.zeros(n_big, np.int64), np.arange(1, 60)]
        lo = rng.uniform(0, 400, (g_cls.size, 2))
        g_boxes = np.hstack((lo, lo + rng.uniform(5, 150, (g_cls.size, 2))))
        d_cls = np.r_[np.zeros(100, np.int64), np.arange(1, 60)]
        near = np.where(d_cls == 0, rng.integers(0, n_big, d_cls.size), n_big + d_cls - 1)
        d_boxes = g_boxes[near] + rng.uniform(-3, 3, (d_cls.size, 4))
        d_boxes[:, 2:] = np.maximum(d_boxes[:, 2:], d_boxes[:, :2] + 1)
        img = str(i)
        gts[img] = GroundTruths(g_boxes, g_cls)
        dets[img] = Detections([img] * d_cls.size, d_boxes, d_cls, rng.uniform(0, 1, d_cls.size),
                               rng.uniform(0, 1, d_cls.size))
    return dets, gts


class TestMemory:
    """Matching holds the pairs that can match, and scoring one class at a
    time, so memory follows the detections and the fullest image rather than
    the classes times the largest class or the images times the fullest
    image: padded that way, this instance needs over 1 GiB."""

    def test_peak_on_skewed_instance(self):
        dets, gts = skewed_instance()
        tracemalloc.start()
        try:
            report = evaluate(dets, gts, "standard")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert 0.9 < report.ap50 <= 1.0


def test_area_error_names_the_first_image():
    # image a's detection and image b's ground truth both overflow their area; the images are
    # checked in order, each one's detections and then its ground truths
    big, ok = [0.0, 0.0, 1.5e154, 1.5e154], [0.0, 0.0, 10.0, 10.0]
    dets = {"a": Detections(["a"], [big], [1], [0.5], [0.5])}
    gts = {"a": GroundTruths([ok], [1]), "b": GroundTruths([big], [1])}
    with pytest.raises(ValueError, match="in image 'a'"):
        evaluate(dets, gts, "standard")


# One instance per clause of the matching rule. In each, the first detection
# clears the threshold with two ground truths, and the second detection, of
# lower score, reaches only one of them: which one the first takes decides AP.
MATCHING_CASES = {
    # IOU 0.8 with A and 0.625 with B; the second reaches only A (0.83 vs 0.42).
    # Taking the lowest IOU would let both match, AP50 1.0.
    "highest_iou": (
        {"0": [(Box(0.0, 0.0, 10.0, 8.0), 1, 0.9), (Box(0.0, 0.0, 10.0, 12.0), 1, 0.8)]},
        {"0": [(Box(0.0, 0.0, 10.0, 10.0), 1), (Box(0.0, 0.0, 10.0, 5.0), 1)]},
        {"ap50": 51.0 / 101.0},
    ),
    # IOU 0.81 with a medium ground truth and 0.69 with a small one, and the
    # detection is medium. Small range: it takes the small one up to the 0.65
    # threshold (AP 1 at 4 of 10 thresholds). Medium range: it takes the
    # medium one up to 0.8 (7 of 10). Preferring ignored ones gives 0.0 and 0.3.
    "not_ignored_first": (
        {"0": [(Box(0.0, 0.0, 36.0, 36.0), 1, 0.9)]},
        {"0": [(Box(0.0, 0.0, 40.0, 40.0), 1), (Box(0.0, 0.0, 30.0, 30.0), 1)]},
        {"ap_small": 0.4, "ap_medium": 0.7},
    ),
    # IOU 0.818 with both, bit for bit; the second reaches only the first
    # (0.67 vs 0.43). Taking the last on the tie would let both match.
    "first_on_tie": (
        {"0": [(Box(1.0, 0.0, 11.0, 10.0), 1, 0.9), (Box(-2.0, 0.0, 8.0, 10.0), 1, 0.8)]},
        {"0": [(Box(0.0, 0.0, 10.0, 10.0), 1), (Box(2.0, 0.0, 12.0, 10.0), 1)]},
        {"ap50": 51.0 / 101.0},
    ),
}


class TestMatchingRule:
    @pytest.mark.parametrize("case", MATCHING_CASES)
    def test_crafted_case(self, case):
        dets, gts, want = MATCHING_CASES[case]
        report = evaluate(tables(dets), gt_tables(gts), "standard")
        assert {field: getattr(report, field) for field in want} == pytest.approx(want, abs=1e-12)
        assert bits(report) == bits(evaluate_reference(tables(dets), gt_tables(gts), "standard"))
        if "ap50" in want:
            assert ap_bruteforce(dets, gts, class_id=1, iou_threshold=0.5) == pytest.approx(want["ap50"], abs=1e-12)

    def test_tie_is_exact(self):
        dets, gts, _ = MATCHING_CASES["first_on_tie"]
        (d, _, _), _ = dets["0"]
        assert iou_value(d, gts["0"][0][0]) == iou_value(d, gts["0"][1][0]) > 0.8


class TestOracleGuards:
    def test_refuses_large_instances(self):
        gts = {"0": [(Box(0, 0, 5, 5), 1)]}
        dets = {"0": [(Box(0, 0, 5, 5), 1, i / 20.0) for i in range(13)]}
        with pytest.raises(ValueError):
            ap_bruteforce(dets, gts, 1, 0.5)

    def test_refuses_tied_scores(self):
        gts = {"0": [(Box(0, 0, 5, 5), 1)]}
        dets = {"0": [(Box(0, 0, 5, 5), 1, 0.5), (Box(1, 1, 6, 6), 1, 0.5)]}
        with pytest.raises(ValueError):
            ap_bruteforce(dets, gts, 1, 0.5)


class TestCappedNms:
    """NMS capped at ``MAX_DETECTIONS_PER_IMAGE`` rows per class keeps the
    rows ``evaluate`` reads: the kept order (-score, -area, index) refines
    its rank (-score, row)."""

    @staticmethod
    def tie_at_the_cap():
        """One class of 115 disjoint boxes: 95 at score 0.9, then 20 tied at
        0.5 whose areas grow with the row, so the area order inside the tie
        is the reverse of the row order. Ground truths sit on the 5 largest
        of the tied boxes, the ones the 100th place reaches in kept order."""
        top = [(20.0 * i, 0.0, 20.0 * i + 10.0, 10.0) for i in range(95)]
        tied = [(20.0 * j, 100.0, 20.0 * j + 1.0 + j, 110.0) for j in range(20)]
        dets = Detections(["0"] * 115, top + tied, [1] * 115, [0.9] * 95 + [0.5] * 20, [1.0] * 115)
        return dets, {"0": GroundTruths(tied[15:], [1] * 5)}

    @pytest.mark.parametrize("mode", MODES)
    def test_tie_at_the_cap_keeps_every_bit(self, mode):
        dets, gts = self.tie_at_the_cap()
        full = greedy_nms(dets, mode=mode)
        capped = greedy_nms(dets, mode=mode, max_per_class=MAX_DETECTIONS_PER_IMAGE)
        assert len(full) == 115 and len(capped) == MAX_DETECTIONS_PER_IMAGE
        report = evaluate({"0": capped}, gts, mode)
        assert bits(report) == bits(evaluate({"0": full}, gts, mode))
        assert report.ap50 > 0.0  # each tied box in the top 100 takes its ground truth
        # the first 100 rows by (-score, row) of the input leave the tie's largest boxes out
        assert evaluate({"0": dets.take(np.arange(MAX_DETECTIONS_PER_IMAGE))}, gts, mode).ap50 == 0.0


class TestGroundTruthJson:
    def test_roundtrip(self):
        text = ground_truths_to_json(gt_tables(PERFECT_GTS))
        back = ground_truths_from_json(text)
        assert {k: bits(v) for k, v in back.items()} == {k: bits(v) for k, v in gt_tables(PERFECT_GTS).items()}

    @settings(deadline=None)
    @given(st.dictionaries(awkward_text, st.lists(st.tuples(any_boxes(), st.integers()), max_size=4), max_size=5))
    def test_roundtrip_any_values(self, gts):
        back = ground_truths_from_json(ground_truths_to_json(gt_tables(gts)))
        assert {k: bits(v) for k, v in back.items()} == {k: bits(v) for k, v in gt_tables(gts).items()}

    def test_duplicate_image_rejected(self):
        doc = '{"images": [{"image_id": "0", "objects": []}, {"image_id": "0", "objects": []}]}'
        with pytest.raises(ValueError):
            ground_truths_from_json(doc)


def _random_instance(rng, n_images=3, n_classes=2):
    gts = {}
    dets = {}
    for i in range(n_images):
        img = str(i)
        objs = []
        for _ in range(int(rng.integers(1, 4))):
            x1, y1 = rng.uniform(0, 60, 2)
            w, h = rng.uniform(8, 60, 2)
            objs.append((Box(x1, y1, x1 + w, y1 + h), int(rng.integers(1, n_classes + 1))))
        gts[img] = objs
        rows = []
        for b, c in objs:
            if rng.uniform() < 0.7:  # noisy near-match
                dx, dy = rng.uniform(-4, 4, 2)
                rows.append((b.translated(dx, dy), c, float(rng.uniform(0.05, 1.0))))
        for _ in range(int(rng.integers(0, 3))):  # background noise
            x1, y1 = rng.uniform(0, 100, 2)
            rows.append((Box(x1, y1, x1 + 10, y1 + 10), int(rng.integers(1, n_classes + 1)), float(rng.uniform(0.05, 1.0))))
        dets[img] = rows
    return dets, gts


def _an_unmatched_gt(dets, gts):
    """A gt no same-class detection reaches at the lowest threshold, so it
    stays unmatched at every threshold; None if the instance has no such gt."""
    for img, objs in gts.items():
        for b, c in objs:
            close = any(
                cc == c and iou_value(b, db) >= 0.5 for db, cc, _ in dets.get(img, [])
            )
            if not close:
                return img, (b, c)
    return None
