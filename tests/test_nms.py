import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.geometry import Box, iou_value
from detkit.harness import ScenarioConfig, detections_from_heads, generate_scenario, init_toy_model
from detkit.nms import Detection, detections_from_csv, detections_to_csv, greedy_nms, score

from conftest import any_boxes, awkward_text, bits
from oracles import nms_bruteforce, priority_order

# any probability, -0.0 and subnormals included
probability = st.one_of(st.sampled_from((-0.0, 5e-324)), st.floats(min_value=0.0, max_value=1.0))


def det(x1, y1, x2, y2, cls=1, p_cls=0.9, p_iou=0.8):
    return Detection(Box(x1, y1, x2, y2), cls, p_cls, p_iou)


def greedy_nms_scalar(dets, iou_threshold=0.5, mode="standard", score_floor=0.01):
    """Reference: the original scalar greedy loop, one iou_value call per
    (survivor, alive candidate) pair."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("iou_threshold must lie in (0, 1)")
    kept: list[Detection] = []
    order = priority_order(dets, mode, score_floor)
    alive = set(order)
    for i in order:
        if i not in alive:
            continue
        d = dets[i]
        kept.append(d)
        alive.discard(i)
        for j in list(alive):
            other = dets[j]
            if other.class_id == d.class_id and iou_value(d.box, other.box) > iou_threshold:
                alive.discard(j)
    return kept


def assert_same_objects(got, want):
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


# Five scores, so score ties are common; 0.005 sits below the default floor.
TIE_SCORES = (0.005, 0.25, 0.5, 0.75, 1.0)
# Thresholds that integer-grid IOUs hit exactly, e.g. (0,0,10,10) vs (0,0,5,10) is 0.5.
EXACT_THRESHOLDS = (0.25, 1 / 3, 0.5, 0.6, 0.75)


@st.composite
def tie_heavy_detections(draw):
    """50-2,000 detections on a small integer grid: duplicate and zero-area
    boxes, tied scores and areas, 1-4 classes, planted exact-IOU pairs."""
    n = draw(st.integers(50, 2000))
    n_classes = draw(st.integers(1, 4))
    side = draw(st.integers(4, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x1 = rng.integers(0, side, n)
    y1 = rng.integers(0, side, n)
    w = rng.integers(0, 11, n)  # 0 gives zero-area boxes
    h = rng.integers(0, 11, n)
    dets = [
        Detection(
            Box(float(x1[i]), float(y1[i]), float(x1[i] + w[i]), float(y1[i] + h[i])),
            int(rng.integers(1, n_classes + 1)),
            float(rng.choice(TIE_SCORES)),
            float(rng.choice([0.5, 1.0])),
        )
        for i in range(n)
    ]
    for k in range(0, n - 2, 25):  # exact-IOU pairs: IOU 0.5 and 0.25 with the 10x10 box
        ox, oy = (float(v) for v in rng.integers(0, side, 2))
        cls = dets[k].class_id
        dets[k] = Detection(Box(ox, oy, ox + 10, oy + 10), cls, dets[k].p_cls, dets[k].p_iou)
        dets[k + 1] = Detection(Box(ox, oy, ox + 5, oy + 10), cls, dets[k + 1].p_cls, dets[k + 1].p_iou)
        dets[k + 2] = Detection(Box(ox, oy, ox + 5, oy + 5), cls, dets[k + 2].p_cls, dets[k + 2].p_iou)
    for k in rng.integers(0, n, n // 10):  # duplicates: another detection's box and class
        src = dets[int(rng.integers(0, n))]
        dets[k] = Detection(src.box, src.class_id, dets[k].p_cls, dets[k].p_iou)
    return dets


def random_detections(rng, n, n_classes=2):
    out = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 8, 2)
        w, h = rng.uniform(1, 6, 2)
        out.append(
            Detection(
                Box(x1, y1, x1 + w, y1 + h),
                int(rng.integers(1, n_classes + 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
            )
        )
    return out


class TestScore:
    def test_equal_when_p_iou_one(self):
        d = det(0, 0, 1, 1, p_cls=0.7, p_iou=1.0)
        assert score(d, "standard") == score(d, "iou_guided") == 0.7

    def test_guided_products(self):
        assert score(det(0, 0, 1, 1, p_cls=0.95, p_iou=0.3), "iou_guided") == pytest.approx(0.285)
        assert score(det(0, 0, 1, 1, p_cls=0.85, p_iou=0.9), "iou_guided") == pytest.approx(0.765)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            score(det(0, 0, 1, 1), "softnms")

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            Detection(Box(0, 0, 1, 1), 1, 1.2, 0.5)


class TestGreedy:
    def test_single_detection_kept(self):
        d = det(0, 0, 4, 4)
        assert greedy_nms([d]) == [d]

    def test_empty_input(self):
        assert greedy_nms([]) == []

    def test_identical_boxes_keep_higher_score(self):
        a = det(0, 0, 4, 4, p_cls=0.9)
        b = det(0, 0, 4, 4, p_cls=0.8)
        assert greedy_nms([b, a]) == [a]

    def test_survivor_flips_with_mode(self):
        # overlapping pair with IOU 0.7: confident bad box vs better box
        a = det(0, 0, 10, 10, p_cls=0.95, p_iou=0.3)
        b = det(0, 0, 7, 10, p_cls=0.85, p_iou=0.9)
        assert iou_value(a.box, b.box) == pytest.approx(0.7, abs=1e-12)
        assert greedy_nms([a, b], 0.5, "standard") == [a]
        assert greedy_nms([a, b], 0.5, "iou_guided") == [b]

    def test_different_classes_do_not_suppress(self):
        a = det(0, 0, 4, 4, cls=1, p_cls=0.9)
        b = det(0, 0, 4, 4, cls=2, p_cls=0.8)
        assert greedy_nms([a, b]) == [a, b]

    def test_score_floor_drops_noise(self):
        a = det(0, 0, 4, 4, p_cls=0.9)
        b = det(20, 20, 24, 24, p_cls=0.005)
        assert greedy_nms([a, b]) == [a]

    def test_suppression_is_strict_inequality(self):
        # IOU exactly at the threshold survives
        a = det(0, 0, 10, 10, p_cls=0.9)
        b = det(0, 0, 5, 10, p_cls=0.8)  # IOU 0.5
        assert greedy_nms([a, b], 0.5) == [a, b]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            greedy_nms([], 1.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.7]), st.sampled_from(["standard", "iou_guided"]))
    @settings(max_examples=150, deadline=None)
    def test_kept_set_is_antichain(self, seed, thr, mode):
        rng = np.random.default_rng(seed)
        kept = greedy_nms(random_detections(rng, 8), thr, mode)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou_value(a.box, b.box) <= thr

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_uniform_p_iou_reduces_to_standard(self, seed):
        rng = np.random.default_rng(seed)
        dets = [
            Detection(d.box, d.class_id, d.p_cls, 0.6) for d in random_detections(rng, 8)
        ]
        # uniform positive attenuation rescales all scores: same argsort
        kept_std = greedy_nms(dets, 0.5, "standard", score_floor=0.0)
        kept_gui = greedy_nms(dets, 0.5, "iou_guided", score_floor=0.0)
        assert kept_std == kept_gui


class TestScalarEquivalence:
    """The array pass returns the very objects, in the very order, of the
    scalar greedy loop, on inputs full of ties at every level."""

    @given(
        tie_heavy_detections(),
        st.sampled_from(EXACT_THRESHOLDS),
        st.sampled_from(["standard", "iou_guided"]),
        st.sampled_from([0.0, 0.01, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_loop(self, dets, thr, mode, floor):
        assert_same_objects(greedy_nms(dets, thr, mode, floor), greedy_nms_scalar(dets, thr, mode, floor))

    def test_seeded_scenario_image(self):
        cfg = ScenarioConfig(seed=0)
        scenario = generate_scenario(cfg)
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed)
        heads, _, _ = model.forward(scenario.images[0].features)
        dets = detections_from_heads(scenario.anchors, heads, cfg.nms.score_floor)
        assert len(dets) == 6408
        args = (cfg.nms.iou_threshold, cfg.nms.mode, cfg.nms.score_floor)
        assert_same_objects(greedy_nms(dets, *args), greedy_nms_scalar(dets, *args))


class TestOracle:
    def test_refuses_large_instances(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            nms_bruteforce(random_detections(rng, 13))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_greedy(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, int(rng.integers(0, 11)))
        for mode in ("standard", "iou_guided"):
            for thr in (0.3, 0.5, 0.7):
                assert greedy_nms(dets, thr, mode) == nms_bruteforce(dets, thr, mode)

    def test_score_flip_pair_matches(self):
        a = det(0, 0, 10, 10, p_cls=0.95, p_iou=0.3)
        b = det(0, 0, 7, 10, p_cls=0.85, p_iou=0.9)
        for mode in ("standard", "iou_guided"):
            assert greedy_nms([a, b], 0.5, mode) == nms_bruteforce([a, b], 0.5, mode)


class TestCsv:
    def test_roundtrip(self):
        rows = [("img0", det(0, 0, 4, 4)), ("img1", det(1, 1, 3, 5, cls=2, p_cls=0.25, p_iou=0.125))]
        text = detections_to_csv(rows)
        back = detections_from_csv(text)
        assert back == rows

    @settings(deadline=None)
    @given(st.lists(st.tuples(awkward_text, any_boxes(), st.integers(), probability, probability), max_size=8))
    def test_roundtrip_any_values(self, cells):
        rows = [(image_id, Detection(box, c, p_cls, p_iou)) for image_id, box, c, p_cls, p_iou in cells]
        assert bits(detections_from_csv(detections_to_csv(rows))) == bits(rows)

    def test_header_validated(self):
        with pytest.raises(ValueError):
            detections_from_csv("a,b,c\n1,2,3\n")
