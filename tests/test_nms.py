import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit import fileio, nms
from detkit.geometry import iou_terms
from detkit.harness import (
    ScenarioConfig, detections_from_heads, fit_detections, fit_toy, generate_scenario, init_toy_model,
    scenario_features,
)
from detkit.nms import (
    DETECTIONS_CSV_HEADER, Detections, GroundTruths, detections_from_csv, detections_to_csv, greedy_nms,
    write_detections_csv,
)

from conftest import any_boxes, awkward_text, bits, kept_records, records, table
import oracles
from oracles import Box, Detection, iou_value, nms_bruteforce, priority_order, score

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


def shape_boxes(shape: str, n: int, rng) -> np.ndarray:
    """(n, 4) corner rows of one layout that a sweep over x or y meets."""
    k = np.arange(n, dtype=np.float64)[:, None]
    if shape == "identical":
        return np.tile([2.0, 3.0, 7.0, 9.0], (n, 1))
    if shape == "touching":  # 4 x 4 cells meeting edge to edge, and the cells half a cell right: IOU 1/3
        cells = np.hstack([k % 6 * 4, k // 6 % 6 * 4, k % 6 * 4 + 4, k // 6 % 6 * 4 + 4])
        return cells + np.where(k % 72 < 36, 0.0, [2.0, 0.0, 2.0, 0.0])
    if shape == "zero_width":  # x1 == x2 on every other row, on the edges of the others
        x = rng.integers(0, 8, (n, 1)).astype(np.float64)
        return np.hstack([x, k % 5, np.where(k % 2 == 0, x, x + 4), k % 5 + 5])
    if shape == "stacked":  # every pair overlaps in x; neighbours overlap in y at IOU 1/4
        return np.hstack([np.zeros((n, 1)), 3 * k, np.full((n, 1), 10.0), 3 * k + 5])
    if shape == "crossing":  # bars across each other: every pair overlaps in x or y, most in both
        bars = np.hstack([2 * k, np.zeros((n, 1)), 2 * k + 1, np.full((n, 1), 4.0 * n)])
        return np.where(k % 2 == 0, bars, bars[:, [1, 0, 3, 2]])
    if shape == "clustered":  # jittered boxes around a few centres
        centres = rng.uniform(0, 60, (8, 2)).repeat(-(-n // 8), axis=0)[:n] + rng.normal(0, 1.5, (n, 2))
        half = rng.uniform(3, 6, (n, 2))
        return np.hstack([centres - half, centres + half])
    raise ValueError(shape)


SHAPES = ("identical", "touching", "zero_width", "stacked", "crossing", "clustered")


class TestScore:
    def test_equal_when_p_iou_one(self):
        t = table([det(0, 0, 1, 1, p_cls=0.7, p_iou=1.0)])
        assert t.score("standard")[0] == t.score("iou_guided")[0] == 0.7

    def test_guided_products(self):
        t = table([det(0, 0, 1, 1, p_cls=0.95, p_iou=0.3), det(0, 0, 1, 1, p_cls=0.85, p_iou=0.9)])
        assert t.score("iou_guided").tolist() == pytest.approx([0.285, 0.765])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            table([det(0, 0, 1, 1)]).score("softnms")

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            table([Detection(Box(0, 0, 1, 1), 1, 1.2, 0.5)])


class TestTable:
    """One array check stands in for the per-object checks of a record
    and its box."""

    @pytest.mark.parametrize(
        "box,p_cls,p_iou",
        [
            ((0, 0, 1, 1), -0.1, 0.5),
            ((0, 0, 1, 1), 0.5, 1.5),
            ((0, 0, 1, 1), float("nan"), 0.5),
            ((0, 0, 1, 1), 0.5, float("nan")),
            ((1, 0, 0, 1), 0.5, 0.5),
            ((0, 1, 1, 0), 0.5, 0.5),
            ((0, 0, float("nan"), 1), 0.5, 0.5),
        ],
        ids=["p_cls-negative", "p_iou-above-1", "p_cls-nan", "p_iou-nan", "x-reversed", "y-reversed", "box-nan"],
    )
    def test_invalid_row_rejected(self, box, p_cls, p_iou):
        with pytest.raises(ValueError, match="detection 1"):
            Detections(["a", "b"], [(0, 0, 1, 1), box], [1, 1], [0.5, p_cls], [0.5, p_iou])

    def test_edge_values_accepted(self):
        t = Detections(["a"], [(2.0, 2.0, 2.0, 2.0)], [1], [0.0], [1.0])  # zero area, probability bounds
        assert len(t) == 1

    def test_columns_of_different_length_rejected(self):
        with pytest.raises(ValueError):
            Detections(["a", "b"], [(0, 0, 1, 1)], [1], [0.5], [0.5])

    def test_take_and_concat(self):
        t = table([det(0, 0, 1, 1, cls=1), det(1, 1, 2, 2, cls=2), det(2, 2, 3, 3, cls=3)])
        assert t.take([2, 0]).class_id.tolist() == [3, 1]
        assert t.take(t.class_id > 1).image_id.tolist() == ["1", "2"]
        both = Detections.concat([t.take([1]), Detections(), t.take([0])])
        assert bits(both) == bits(t.take([1, 0]))
        assert len(Detections.concat([])) == 0 and Detections.concat([]).boxes.shape == (0, 4)

    def test_take_keeps_column_dtypes(self):
        t = table([det(0, 0, 1, 1, cls=1), det(1, 1, 2, 3, cls=2**70), det(2, 2, 3, 3, cls=3)])
        for idx in ([2, 1], [], np.array([True, True, False]), np.zeros(3, dtype=bool), np.zeros(0, dtype=np.intp)):
            sub = t.take(idx)
            assert sub.image_id.dtype == object and sub.boxes.dtype == np.float64 and sub.boxes.shape == (len(sub), 4)
            assert sub.p_cls.dtype == sub.p_iou.dtype == np.float64
            assert bits(sub) == bits(Detections(*(np.asarray(getattr(t, f))[idx] for f in
                                                  ("image_id", "boxes", "class_id", "p_cls", "p_iou"))))
        assert t.take([1]).class_id.dtype == object and type(t.take([1]).class_id[0]) is int
        small = t.take([0, 2])
        assert small.class_id.dtype == np.int64 and small.take([]).class_id.dtype == np.int64
        assert small.take([]).boxes.shape == (0, 4) and small.take([]).image_id.dtype == object

    def test_take_does_not_validate_again(self, monkeypatch):
        t = table([det(0, 0, 1, 1, cls=1), det(1, 1, 2, 2, cls=2)])
        want = bits(Detections(t.image_id[::-1], t.boxes[::-1], t.class_id[::-1], t.p_cls[::-1], t.p_iou[::-1]))

        def refuse(self):
            raise AssertionError("validated again")

        monkeypatch.setattr(Detections, "__post_init__", refuse)
        assert bits(t.take([1, 0])) == want

    def test_class_ids_beyond_64_bits(self):
        t = table([det(0, 0, 1, 1, cls=2**64), det(0, 0, 1, 1, cls=1), det(0, 0, 1, 1, cls=-(2**70))])
        assert t.class_id.tolist() == [2**64, 1, -(2**70)]
        assert t.take([1]).class_id.dtype == np.int64
        assert Detections.concat([t.take([1]), t.take([0])]).class_id.tolist() == [1, 2**64]
        assert greedy_nms(t).class_id.tolist() == [2**64, 1, -(2**70)]  # one per class, ties in row order
        with pytest.raises(OverflowError):
            Detections(["a"], [(0, 0, 1, 2**1100)], [1], [0.5], [0.5])  # float columns keep no Python ints

    def test_by_image_sorts_ids_and_keeps_row_order(self):
        t = table([det(0, 0, 1, 1, cls=c) for c in range(1, 7)])
        t = Detections(["b", "a", "b", "c", "a", "b"], t.boxes, t.class_id, t.p_cls, t.p_iou)
        groups = t.by_image()
        assert list(groups) == ["a", "b", "c"]
        assert {k: v.class_id.tolist() for k, v in groups.items()} == {"a": [2, 5], "b": [1, 3, 6], "c": [4]}
        assert Detections().by_image() == {}


class TestGroundTruthsTable:
    def test_columns_and_empty_table(self):
        t = GroundTruths([(0, 0, 4, 4), (1, 2, 3, 5)], [2, 1])
        assert t.boxes.dtype == np.float64 and t.boxes.shape == (2, 4)
        assert t.class_id.dtype == np.int64 and t.class_id.tolist() == [2, 1]
        empty = GroundTruths()
        assert empty.boxes.shape == (0, 4) and empty.class_id.shape == (0,) and empty.class_id.dtype == np.int64

    def test_class_ids_beyond_64_bits_stay_python_ints(self):
        t = GroundTruths([(0, 0, 1, 1)] * 3, [2**64, 1, -(2**70)])
        assert t.class_id.dtype == object and t.class_id.tolist() == [2**64, 1, -(2**70)]
        assert all(type(c) is int for c in t.class_id)

    def test_columns_of_different_length_rejected(self):
        with pytest.raises(ValueError, match="GroundTruths columns differ in length"):
            GroundTruths([(0, 0, 1, 1)], [1, 2])

    @pytest.mark.parametrize(
        "box",
        [(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, float("inf"), 1), (float("-inf"), 0, 1, 1), (0, float("nan"), 1, 1)],
        ids=["x-reversed", "y-reversed", "inf", "-inf", "nan"],
    )
    def test_negative_extent_or_non_finite_corner_rejected(self, box):
        with pytest.raises(ValueError, match=r"ground truth 1: non-finite corner or negative extent"):
            GroundTruths([(0, 0, 1, 1), box], [1, 1])


class TestGreedy:
    def test_single_detection_kept(self):
        d = det(0, 0, 4, 4)
        assert kept_records([d]) == [d]

    def test_empty_input(self):
        assert len(greedy_nms(Detections())) == 0

    def test_identical_boxes_keep_higher_score(self):
        a = det(0, 0, 4, 4, p_cls=0.9)
        b = det(0, 0, 4, 4, p_cls=0.8)
        assert kept_records([b, a]) == [a]

    def test_survivor_flips_with_mode(self):
        # overlapping pair with IOU 0.7: confident bad box vs better box
        a = det(0, 0, 10, 10, p_cls=0.95, p_iou=0.3)
        b = det(0, 0, 7, 10, p_cls=0.85, p_iou=0.9)
        assert iou_value(a.box, b.box) == pytest.approx(0.7, abs=1e-12)
        assert kept_records([a, b], 0.5, "standard") == [a]
        assert kept_records([a, b], 0.5, "iou_guided") == [b]

    def test_different_classes_do_not_suppress(self):
        a = det(0, 0, 4, 4, cls=1, p_cls=0.9)
        b = det(0, 0, 4, 4, cls=2, p_cls=0.8)
        assert kept_records([a, b]) == [a, b]

    def test_score_floor_drops_noise(self):
        a = det(0, 0, 4, 4, p_cls=0.9)
        b = det(20, 20, 24, 24, p_cls=0.005)
        assert kept_records([a, b]) == [a]

    def test_suppression_is_strict_inequality(self):
        # IOU exactly at the threshold survives
        a = det(0, 0, 10, 10, p_cls=0.9)
        b = det(0, 0, 5, 10, p_cls=0.8)  # IOU 0.5
        assert kept_records([a, b], 0.5) == [a, b]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            greedy_nms(Detections(), 1.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.7]), st.sampled_from(["standard", "iou_guided"]))
    @settings(max_examples=150, deadline=None)
    def test_kept_set_is_antichain(self, seed, thr, mode):
        rng = np.random.default_rng(seed)
        kept = kept_records(random_detections(rng, 8), thr, mode)
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
        kept_std = kept_records(dets, 0.5, "standard", score_floor=0.0)
        kept_gui = kept_records(dets, 0.5, "iou_guided", score_floor=0.0)
        assert kept_std == kept_gui


class TestScalarEquivalence:
    """The array pass keeps the very rows, in the very order, of the
    scalar greedy loop, on inputs full of ties at every level."""

    @given(
        tie_heavy_detections(),
        st.sampled_from(EXACT_THRESHOLDS),
        st.sampled_from(["standard", "iou_guided"]),
        st.sampled_from([0.0, 0.01, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_loop(self, dets, thr, mode, floor):
        assert_same_objects(kept_records(dets, thr, mode, floor), greedy_nms_scalar(dets, thr, mode, floor))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_scalar_loop_on_shapes(self, shape):
        rng = np.random.default_rng(SHAPES.index(shape))
        dets = [
            Detection(Box(*box), int(rng.integers(1, 3)), float(rng.choice(TIE_SCORES)), float(rng.choice([0.5, 1.0])))
            for box in shape_boxes(shape, 144, rng).tolist()
        ]
        for thr in (0.25, 1 / 3, 0.5):
            for mode in ("standard", "iou_guided"):
                assert_same_objects(kept_records(dets, thr, mode), greedy_nms_scalar(dets, thr, mode))

    def test_seeded_scenario_image(self):
        cfg = ScenarioConfig(seed=0)
        scenario = generate_scenario(cfg)
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed)
        heads, _, _ = model.forward(scenario_features(scenario)[0])
        decoded = detections_from_heads(scenario.anchors, heads, cfg.nms.score_floor, scenario.images[0].image_id)
        assert len(decoded) == 6408
        dets = records(decoded)
        args = (cfg.nms.iou_threshold, cfg.nms.mode, cfg.nms.score_floor)
        want = greedy_nms_scalar(dets, *args)
        assert_same_objects(kept_records(dets, *args), want)
        assert bits(records(greedy_nms(decoded, *args))) == bits(want)


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
                assert kept_records(dets, thr, mode) == nms_bruteforce(dets, thr, mode)

    def test_score_flip_pair_matches(self):
        a = det(0, 0, 10, 10, p_cls=0.95, p_iou=0.3)
        b = det(0, 0, 7, 10, p_cls=0.85, p_iou=0.9)
        for mode in ("standard", "iou_guided"):
            assert kept_records([a, b], 0.5, mode) == nms_bruteforce([a, b], 0.5, mode)


@pytest.fixture(scope="class")
def small_blocks(request):
    """``greedy_nms`` in blocks of ``request.param`` = (rows, pairs per chunk),
    so that block boundaries and chunk splits fall everywhere."""
    saved = nms.BLOCK_ROWS, nms.PAIR_BUDGET
    nms.BLOCK_ROWS, nms.PAIR_BUDGET = request.param
    yield
    nms.BLOCK_ROWS, nms.PAIR_BUDGET = saved


def block_ids(sizes):
    return f"block{sizes[0]}-budget{sizes[1]}"


# Budgets of 5 and 7 pairs split chunks inside and across rows' ranges;
# a budget of 1 here would take 12 s per block size.
@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("small_blocks", [(2, 5), (3, 7)], ids=block_ids, indirect=True)
class TestScalarEquivalenceInSmallBlocks(TestScalarEquivalence):
    test_seeded_scenario_image = None  # 6,408 rows a few pairs at a time: minutes


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("small_blocks", [(1, 1), (2, 1), (3, 1)], ids=block_ids, indirect=True)
class TestOracleInSmallBlocks(TestOracle):
    pass


# class id sets: one class; two classes, one of them negative; and ids beyond 64 bits beside 0 and -1
CLASS_SETS = ((7,), (-3, 5), (2**70, 0, -1))


@st.composite
def interleaved_classes(draw, min_rows=0, max_rows=400):
    """Detection records on a small integer grid whose classes alternate
    along the rank order: each row's class is drawn at random from one of
    ``CLASS_SETS``, and the scores tie across classes."""
    classes = draw(st.sampled_from(CLASS_SETS))
    n = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(2, 20))
    x1, y1 = rng.integers(0, side, (2, n))
    w, h = rng.integers(0, 9, (2, n))
    return [Detection(Box(float(x1[i]), float(y1[i]), float(x1[i] + w[i]), float(y1[i] + h[i])),
                      classes[int(rng.integers(0, len(classes)))], float(rng.choice(TIE_SCORES)),
                      float(rng.choice([0.5, 1.0])))
            for i in range(n)]


class TestClassSweep:
    """One sweep decides every class: blocks mix the classes in rank order,
    and the kept rows are the scalar loop's, class by class."""

    @given(interleaved_classes(min_rows=100), st.sampled_from(EXACT_THRESHOLDS), st.sampled_from(nms.MODES))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_loop(self, dets, thr, mode):
        assert_same_objects(kept_records(dets, thr, mode), greedy_nms_scalar(dets, thr, mode))

    @given(interleaved_classes(min_rows=100, max_rows=300), st.sampled_from(EXACT_THRESHOLDS),
           st.sampled_from(nms.MODES))
    @settings(max_examples=40, deadline=None)
    def test_identical_boxes_alternating_classes(self, dets, thr, mode):
        # every box the same: each class keeps its first row in rank order, and no other
        dets = [Detection(Box(0.0, 0.0, 4.0, 4.0), d.class_id, d.p_cls, d.p_iou) for d in dets]
        want = greedy_nms_scalar(dets, thr, mode)
        assert_same_objects(kept_records(dets, thr, mode), want)
        assert len(want) == len({d.class_id for d in dets if score(d, mode) >= nms.SCORE_FLOOR})

    @given(interleaved_classes(max_rows=oracles.BRUTEFORCE_LIMIT), st.sampled_from((0.3, 0.5, 0.7)),
           st.sampled_from(nms.MODES))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, dets, thr, mode):
        assert kept_records(dets, thr, mode) == nms_bruteforce(dets, thr, mode)

    def test_class_ids_beyond_64_bits_keep_their_type(self):
        boxes = [(0.0, 0.0, 4.0, 4.0)] * 4
        dets = Detections(["a"] * 4, boxes, [2**70, -1, 2**70, -1], [0.9, 0.8, 0.7, 0.6], [1.0] * 4)
        kept = greedy_nms(dets)
        assert kept.class_id.dtype == object and kept.class_id.tolist() == [2**70, -1]


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("small_blocks", [(2, 5), (3, 7)], ids=block_ids, indirect=True)
class TestClassSweepInSmallBlocks(TestClassSweep):
    pass


def first_of_each_class(kept: Detections, k: int) -> Detections:
    """The rows of ``kept`` that are among the first ``k`` of their class, in row order."""
    seen, rows = Counter(), []
    for i, c in enumerate(kept.class_id.tolist()):
        seen[c] += 1
        if seen[c] <= k:
            rows.append(i)
    return kept.take(np.array(rows, dtype=np.int64))


class TestClassCap:
    """``max_per_class`` = k keeps the first k rows of each class of the
    uncapped result, column for column and in the same order."""

    @given(st.one_of(interleaved_classes(max_rows=600), tie_heavy_detections()), st.sampled_from(EXACT_THRESHOLDS),
           st.sampled_from(nms.MODES), st.sampled_from((1, 2, 7, 100)))
    @settings(max_examples=80, deadline=None)
    def test_first_rows_of_each_class(self, dets, thr, mode, k):
        t = table(dets)
        want = first_of_each_class(greedy_nms(t, thr, mode), k)
        assert bits(greedy_nms(t, thr, mode, max_per_class=k)) == bits(want)

    def test_cap_past_every_row_changes_nothing(self):
        dets = [det(i, 0, i + 1, 1, cls=c) for i in range(6) for c in (2**70, -1)]
        assert bits(greedy_nms(table(dets), max_per_class=2**70)) == bits(greedy_nms(table(dets)))

    @pytest.mark.parametrize("k", [0, -1])
    def test_cap_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="max_per_class"):
            greedy_nms(table([det(0, 0, 1, 1)]), max_per_class=k)


# blocks of 2 and 3 rows put a class's k-th survivor in the middle of a block
@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("small_blocks", [(2, 5), (3, 7)], ids=block_ids, indirect=True)
class TestClassCapInSmallBlocks(TestClassCap):
    pass


class TestMemory:
    """The pairs are compared ``PAIR_BUDGET`` at a time, so memory stays
    O(N + budget) however many pairs overlap."""

    @pytest.mark.parametrize("shape, n, bound_mib", [("identical", 20_000, 3.5), ("stacked", 5_000, 1.5),
                                                     ("crossing", 2_000, 2.0)])
    def test_peak(self, shape, n, bound_mib):
        rng = np.random.default_rng(0)
        dets = Detections(["img"] * n, shape_boxes(shape, n, rng), [1] * n, rng.uniform(0.1, 1.0, n), np.ones(n))
        tracemalloc.start()
        try:
            greedy_nms(dets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


class TestCrossingBars:
    def test_few_ious_computed(self, monkeypatch):
        # every pair of crossing bars overlaps in x or y and most in both, so
        # a sweep along either axis forms most of the 1,999,000 pairs; only a
        # vertical and a horizontal bar can overlap in both, at an IOU far
        # below the threshold, and the width and height ratios rule them out
        n = 2_000
        rng = np.random.default_rng(0)
        dets = Detections(["img"] * n, shape_boxes("crossing", n, rng), [1] * n, rng.uniform(0.1, 1.0, n), np.ones(n))
        computed = []

        def counted(a, a_area, b, b_area):
            computed.append(len(a_area))
            return iou_terms(a, a_area, b, b_area)

        monkeypatch.setattr(nms, "iou_terms", counted)
        assert len(greedy_nms(dets)) == n
        assert sum(computed) < 150_000


def extreme_boxes(rng, n):
    """Clusters of near-copies around boxes at every magnitude: centres up to
    +-1e300, sides down to 1e-300 (subnormal areas, and sides lost next to a
    huge centre), zero-area rows, and areas at ``checked_areas``' bound."""
    top = np.finfo(np.float64).max / 2
    out = []
    while len(out) < n:
        centre = rng.choice((0.0, 1e-300, 1.0, 1e150, 1e300)) * rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0, 2)
        side = 10.0 ** rng.uniform(-300, 150, 2)
        kind = rng.integers(0, 4)
        if kind == 1:
            side[rng.integers(0, 2)] = 0.0  # zero area
        elif kind == 2:  # the area at the bound, and just under it
            side = np.array([2.0**512, (2.0 - 2.0**-52) * 2.0**510]) * rng.choice((1.0, 1.0 - 2.0**-52))
            centre = np.zeros(2)
        for _ in range(int(rng.integers(1, 6))):
            s = side * rng.choice((1.0, 0.5, 0.75, 1.0 + 2.0**-50, 2.0), 2)
            c = centre + side * rng.choice((0.0, 0.125, 0.25, -0.5, 1e-20), 2)
            x1, y1, x2, y2 = np.concatenate((c - 0.5 * s, c + 0.5 * s)).tolist()
            if all(map(math.isfinite, (x1, y1, x2, y2))) and x2 >= x1 and y2 >= y1 and (x2 - x1) * (y2 - y1) <= top:
                out.append((x1, y1, x2, y2))
    return out[:n]


class TestExtremeInputs:
    """The grid's bounds against the scalar loop where floats round hardest;
    any RuntimeWarning is an error."""

    @pytest.mark.parametrize("thr", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_loop(self, seed, thr):
        rng = np.random.default_rng(seed)
        boxes = extreme_boxes(rng, 400)
        dets = [Detection(Box(*box), int(rng.integers(1, 3)), float(rng.choice(TIE_SCORES)), 1.0) for box in boxes]
        for mode in ("standard", "iou_guided"):
            assert_same_objects(kept_records(dets, thr, mode), greedy_nms_scalar(dets, thr, mode))

    def test_subnormal_areas_round_past_the_ratio_bound(self):
        # a box of 9 subnormal steps of area and one 0.49 as wide inside it:
        # their computed IOU is 5/9, above 0.5, though the width ratio is not;
        # the narrow boxes come after a full block of the wide ones
        w = math.sqrt(9.4) * 2.0**-537
        wide = [Box(10 * i * w, 0.0, 10 * i * w + w, w) for i in range(2 * nms.BLOCK_ROWS)]
        narrow = [Box(b.x1, 0.0, b.x1 + 0.49 * w, w) for b in wide]
        assert iou_value(wide[0], narrow[0]) > 0.5 > narrow[0].w / wide[0].w
        dets = [Detection(b, 1, 0.9, 1.0) for b in wide] + [Detection(b, 1, 0.5, 1.0) for b in narrow]
        kept = kept_records(dets)
        assert_same_objects(kept, greedy_nms_scalar(dets))
        assert len(kept) == len(wide)

    @pytest.mark.parametrize("thr, wide_steps, narrow_steps, height",
                             [(0.3, 2, 1, 0.75), (0.6, 3, 2, 0.96875), (0.7, 7, 5, 0.984375)])
    @pytest.mark.parametrize("narrow_first", [False, True])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_subnormal_sides_round_past_the_ratio_test(self, thr, wide_steps, narrow_steps, height, narrow_first,
                                                       transpose):
        # widths of a few subnormal steps, heights near 2**1000, so the areas
        # are normal: thr times the wide side rounds to the narrow side,
        # though their ratio and their computed IOU exceed thr; each narrow
        # box lies inside a wide one, in a cell of its own, after a full block
        # of the other kind (or the same with x and y swapped)
        step = 2.0**-1074
        wide = [(20 * i * step, 0.0, (20 * i + wide_steps) * step, 2.0**1000) for i in range(2 * nms.BLOCK_ROWS)]
        narrow = [(x1, 0.0, x1 + narrow_steps * step, height * 2.0**1000) for x1, *_ in wide]
        assert iou_value(Box(*wide[0]), Box(*narrow[0])) > thr and thr * Box(*wide[0]).w == Box(*narrow[0]).w
        first, second = (narrow, wide) if narrow_first else (wide, narrow)
        boxes = [Box(*(np.array(b)[[1, 0, 3, 2]] if transpose else b)) for b in first + second]
        dets = [Detection(b, 1, 0.9 if i < len(first) else 0.5, 1.0) for i, b in enumerate(boxes)]
        kept = kept_records(dets, thr)
        assert_same_objects(kept, greedy_nms_scalar(dets, thr))
        assert len(kept) == len(first)

    def test_width_ratio_just_under_the_threshold(self):
        # a box and one a few ulps under half as wide inside it: the union
        # rounds down, so the computed IOU exceeds 0.5 though the ratio does not
        rng = np.random.default_rng(1)
        wide, narrow = [], []
        while len(wide) < 2 * nms.BLOCK_ROWS:
            y, a, b = 10.0 * len(wide), float(rng.uniform(1, 2)), float(rng.uniform(1, 2))
            w, n = Box(0.0, y, a, y + b), Box(0.0, y, math.nextafter(a / 2, 0.0), y + b)
            if iou_value(w, n) > 0.5:
                wide.append(w)
                narrow.append(n)
        assert all(n.w / w.w < 0.5 < iou_value(w, n) for w, n in zip(wide, narrow))
        dets = [Detection(b, 1, 0.9, 1.0) for b in wide] + [Detection(b, 1, 0.5, 1.0) for b in narrow]
        kept = kept_records(dets)
        assert_same_objects(kept, greedy_nms_scalar(dets))
        assert len(kept) == len(wide)

    def test_some_rows_suppressed(self):
        # the instances above are not all kept or all struck
        rng = np.random.default_rng(0)
        dets = [Detection(Box(*box), 1, 0.5, 1.0) for box in extreme_boxes(rng, 400)]
        assert 0 < len(kept_records(dets, 0.5)) < len(dets)


class TestCsv:
    def test_roundtrip(self):
        rows = Detections(
            ["img0", "img1"], [(0, 0, 4, 4), (1, 1, 3, 5)], [1, 2], [0.9, 0.25], [0.8, 0.125]
        )
        text = detections_to_csv(rows)
        back = detections_from_csv(text)
        assert bits(back) == bits(rows)

    @settings(deadline=None)
    @given(st.lists(st.tuples(awkward_text, any_boxes(), st.integers(), probability, probability), max_size=8))
    def test_roundtrip_any_values(self, cells):
        rows = Detections(
            [c[0] for c in cells], [c[1].as_tuple() for c in cells], [c[2] for c in cells],
            [c[3] for c in cells], [c[4] for c in cells],
        )
        assert bits(detections_from_csv(detections_to_csv(rows))) == bits(rows)

    @settings(deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from((",", '"', "\n", "\r", '""', "", " ", "img 0")), awkward_text),
        st.one_of(st.sampled_from((Box(-0.0, -0.0, 0.0, 0.0), Box(-1e300, -0.0, 1e300, 1e300))), any_boxes()),
        st.one_of(st.sampled_from((2**70, -(2**70))), st.integers()),
        probability, probability), max_size=8))
    def test_matches_row_writer(self, cells):
        rows = Detections(
            [c[0] for c in cells], [c[1].as_tuple() for c in cells], [c[2] for c in cells],
            [c[3] for c in cells], [c[4] for c in cells],
        )
        columns = (rows.image_id, rows.class_id, *rows.boxes.T, rows.p_cls, rows.p_iou)
        want = oracles.csv_text(DETECTIONS_CSV_HEADER, zip(*(column.tolist() for column in columns)))
        assert detections_to_csv(rows) == want

    def test_fitted_table_peak(self):
        # the default fit's 25,632 rows; each box column holds 8,544 distinct values
        cfg = ScenarioConfig()
        scenario = generate_scenario(cfg)
        features = scenario_features(scenario)
        fit = fit_toy(init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed), scenario, features, cfg)
        rows = Detections.concat(fit_detections(scenario, features, fit).values())
        assert len(rows) == 25_632
        tracemalloc.start()
        try:
            detections_to_csv(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_streamed_file_matches_text(self, tmp_path):
        rows = self.random_table(2 * fileio.CSV_CHUNK_ROWS + 5)
        write_detections_csv(tmp_path / "d.csv", rows)
        assert (tmp_path / "d.csv").read_bytes() == detections_to_csv(rows).encode()

    def test_streamed_write_peak_set_by_chunk_rows(self, tmp_path):
        """A 100,000-row table is a file of about 12 MB, and its text as one
        string held twice that; streamed, the writer holds one chunk's
        fields and lines, about 1.6 KiB a row."""
        rows = self.random_table(100_000)
        bound = fileio.CSV_CHUNK_ROWS * 2048 + 2**19
        tracemalloc.start()
        try:
            write_detections_csv(tmp_path / "d.csv", rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "d.csv").stat().st_size > 4 * bound
        assert peak < bound

    @staticmethod
    def random_table(n: int) -> Detections:
        rng = np.random.default_rng(0)
        xy = rng.uniform(0.0, 300.0, (n, 2))
        return Detections([f"img{i % 4:04d}" for i in range(n)], np.hstack([xy, xy + rng.uniform(1.0, 50.0, (n, 2))]),
                          rng.integers(1, 4, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))

    def test_header_validated(self):
        with pytest.raises(ValueError):
            detections_from_csv("a,b,c\n1,2,3\n")

    def test_class_id_beyond_64_bits_kept_exactly(self):
        header = "image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n"
        text = header + f"img0,{2**63},0,0,1,1,0.5,0.5\nimg0,{-(2**70)},0,0,1,1,0.5,0.5\nimg1,3,0,0,1,1,0.5,0.5\n"
        back = detections_from_csv(text)
        assert back.class_id.tolist() == [2**63, -(2**70), 3]
        assert bits(detections_from_csv(detections_to_csv(back))) == bits(back)
        assert back.take([2]).class_id.dtype == np.int64

    def test_row_of_wrong_length_rejected(self):
        header = "image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n"
        with pytest.raises(ValueError, match="7 fields"):
            detections_from_csv(header + "img0,1,0,0,1,1,0.5\n")
