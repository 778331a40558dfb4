import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.evaluation import ApReport, evaluate, ground_truths_from_json, ground_truths_to_json
from detkit.geometry import Box, iou_value
from detkit.nms import Detections

from conftest import any_boxes, awkward_text, bits, gt_tables, records, tables
from oracles import ap_bruteforce, score

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
