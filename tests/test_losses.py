import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from detkit.anchors import generate_default_boxes, match_anchors, build_levels
from detkit.geometry import Box, iou
from detkit.losses import (
    BalanceL1Params,
    HeadOutputs,
    LossConfig,
    balance_l1,
    ceji_loss,
    cross_entropy,
    l2_iou_loss,
    r_iou_loss,
    smooth_l1,
    total_loss,
)

from conftest import central_diff, rel_err, random_overlapping_pair

# frozen from the mpmath continuity oracle: b = e^3 - 1, C from piece equality at |x| = 1
B_ORACLE = 19.085536923187668
C_ORACLE = -0.42140645526311604
VALUE_AT_1 = 1.078593544736884


class TestBalanceL1Params:
    def test_b_from_gamma_alpha(self):
        p = BalanceL1Params()
        assert rel_err(p.b, B_ORACLE) <= 1e-12
        assert rel_err(p.b, math.exp(p.gamma / p.alpha) - 1.0) <= 1e-12

    def test_continuity_constant(self):
        assert BalanceL1Params().C == pytest.approx(C_ORACLE, abs=1e-15)

    def test_pieces_agree_at_one(self):
        p = BalanceL1Params()
        left = (p.alpha / p.b) * (p.b + 1.0) * math.log(p.b + 1.0) - p.alpha
        right = p.gamma + p.C
        assert abs(left - right) <= 1e-9

    def test_custom_parameters_stay_continuous(self):
        p = BalanceL1Params(alpha=0.8, gamma=2.0)
        left = (p.alpha / p.b) * (p.b + 1.0) * math.log(p.b + 1.0) - p.alpha
        assert abs(left - (p.gamma + p.C)) <= 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BalanceL1Params(alpha=0.0)


class TestBalanceL1:
    def test_zero(self):
        t = balance_l1(0.0)
        assert t.value == 0.0 and t.grad["x"] == 0.0

    def test_at_one(self):
        t = balance_l1(1.0)
        assert t.value == pytest.approx(VALUE_AT_1, abs=1e-12)
        assert t.grad["x"] == pytest.approx(1.5, abs=1e-12)

    def test_at_two(self):
        assert balance_l1(2.0).value == pytest.approx(3.0 + C_ORACLE, abs=1e-12)

    def test_value_continuity_at_one(self):
        eps = 1e-12
        assert abs(balance_l1(1.0 - eps).value - balance_l1(1.0 + eps).value) <= 1e-9

    def test_gradient_continuity_at_one(self):
        eps = 1e-9
        assert abs(balance_l1(1.0 - eps).grad["x"] - balance_l1(1.0 + eps).grad["x"]) <= 1e-6

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_nonnegative_even_and_zero_at_zero(self, x):
        t = balance_l1(x)
        assert t.value >= 0.0
        assert t.value == balance_l1(-x).value
        if x == 0.0:
            assert t.value == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0)
            if min(abs(abs(x) - 1.0), abs(x)) < 1e-3:
                continue  # keep clear of the piece boundary and origin
            num = central_diff(lambda v: balance_l1(v).value, x)
            assert rel_err(balance_l1(x).grad["x"], num) <= 1e-4


class TestRIouLoss:
    def test_equality_is_zero(self):
        t = r_iou_loss(0.7, 0.7)
        assert t.value == 0.0 and t.grad["p_iou"] == 0.0

    def test_under_prediction(self):
        assert r_iou_loss(0.5, 1.0).value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_symmetric_over_prediction(self):
        assert r_iou_loss(0.9, 0.45).value == pytest.approx(math.log(2.0), abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.01, max_value=1.0))
    def test_swap_symmetry_and_nonnegative(self, p, t):
        a, b = r_iou_loss(p, t), r_iou_loss(t, p)
        assert a.value == b.value
        assert a.value >= 0.0
        if p == t:
            assert a.value == 0.0

    def test_monotone_decreasing_then_increasing(self):
        t = 0.6
        grid = np.linspace(0.01, 1.0, 200)
        vals = [r_iou_loss(float(p), t).value for p in grid]
        below = [v for p, v in zip(grid, vals) if p < t]
        above = [v for p, v in zip(grid, vals) if p > t]
        assert all(x > y for x, y in zip(below, below[1:]))
        assert all(x < y for x, y in zip(above, above[1:]))

    def test_gradient_signs(self):
        assert r_iou_loss(0.3, 0.8).grad["p_iou"] == pytest.approx(-1.0 / 0.3)
        assert r_iou_loss(0.8, 0.3).grad["p_iou"] == pytest.approx(1.0 / 0.8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p, t = rng.uniform(0.05, 0.99, 2)
            if abs(p - t) < 1e-3:
                continue
            num = central_diff(lambda v: r_iou_loss(v, t).value, p)
            assert rel_err(r_iou_loss(p, t).grad["p_iou"], num) <= 1e-4

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            r_iou_loss(0.5, 0.0)
        with pytest.raises(ValueError):
            r_iou_loss(0.5, 1.5)

    def test_prediction_clamped(self):
        assert r_iou_loss(2.0, 1.0).value == 0.0  # clamped to 1


class TestCejiLoss:
    def test_perfect_positive(self):
        assert ceji_loss(1.0, 1.0, True).value == 0.0

    def test_joint_penalty(self):
        t = ceji_loss(0.8, 0.5, True)
        assert t.value == pytest.approx(-math.log(0.4), abs=1e-12)

    def test_gate_ignores_poor_regression(self):
        t = ceji_loss(0.8, 0.45, True)
        assert t.value == 0.0
        assert all(v == 0.0 for v in t.grad.values())

    def test_negative_branch(self):
        t = ceji_loss(0.9, 0.0, False)
        assert t.value == pytest.approx(-math.log(0.9), abs=1e-12)
        assert t.grad["x1"] == 0.0

    def test_invalid_iou_rejected(self):
        with pytest.raises(ValueError):
            ceji_loss(0.5, 1.2, True)
        with pytest.raises(ValueError):
            ceji_loss(0.5, -0.1, True)

    def test_gradient_flows_into_box_coordinates(self):
        gt = Box(0.0, 0.0, 4.0, 4.0)
        box = Box(0.5, 0.4, 4.2, 3.8)
        val = iou(box, gt)
        assert val.value >= 0.5
        term = ceji_loss(0.8, val, True)
        assert any(term.grad[k] != 0.0 for k in ("x1", "y1", "x2", "y2"))

    def test_detached_iou_kills_box_gradient(self):
        gt = Box(0.0, 0.0, 4.0, 4.0)
        val = iou(Box(0.5, 0.4, 4.2, 3.8), gt)
        term = ceji_loss(0.8, val, True, detach_iou=True)
        assert all(term.grad[k] == 0.0 for k in ("x1", "y1", "x2", "y2"))
        assert term.grad["p_cls"] != 0.0

    def test_box_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1000:
            a, b = random_overlapping_pair(rng)
            if iou(a, b).value < 0.55:
                continue
            p_cls = rng.uniform(0.2, 0.95)
            term = ceji_loss(p_cls, iou(a, b), True)
            coords = list(a.as_tuple())
            for i, key in enumerate(("x1", "y1", "x2", "y2")):
                def f(x, i=i):
                    c = coords.copy()
                    c[i] = x
                    return ceji_loss(p_cls, iou(Box(*c), b), True).value

                num = central_diff(f, coords[i])
                assert rel_err(term.grad[key], num) <= 1e-4
                checked += 1

    def test_p_cls_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.55, 1.0)
            num = central_diff(lambda v: ceji_loss(v, t, True).value, p)
            assert rel_err(ceji_loss(p, t, True).grad["p_cls"], num) <= 1e-4


class TestBaselines:
    def test_smooth_l1(self):
        assert smooth_l1(0.5).value == 0.125
        assert smooth_l1(2.0).value == 1.5
        assert smooth_l1(-2.0).grad["x"] == -1.0

    def test_l2(self):
        assert l2_iou_loss(0.8, 0.5).value == pytest.approx(0.045)
        assert l2_iou_loss(0.5, 0.5).value == 0.0

    def test_cross_entropy(self):
        assert cross_entropy(1.0).value == 0.0
        assert cross_entropy(0.5).value == pytest.approx(math.log(2.0))


def _five_anchor_instance(seed=0):
    """Two gts over a tiny pyramid; generic head outputs with all
    indicator functions (gate, mining, clamps) far from their boundaries."""
    rng = np.random.default_rng(seed)
    levels = build_levels((2, 1), (8.0, 16.0), (0.3, 0.6, 0.9))
    anchors = generate_default_boxes(16, levels)
    gts = [Box(0.5, 0.5, 7.5, 7.5), Box(8.5, 8.5, 15.5, 15.5)]
    gt_classes = [1, 2]
    match = match_anchors(anchors, gts)
    n = len(anchors)
    offsets = rng.uniform(-0.3, 0.3, (n, 4))
    probs = rng.uniform(0.2, 0.9, (n, 3))
    p_iou = rng.uniform(0.2, 0.9, n)
    return match, HeadOutputs(offsets, probs, p_iou), anchors, gts, gt_classes


class TestTotalLoss:
    def test_exact_predictions_give_zero(self):
        levels = build_levels((2,), (8.0,), (0.5, 0.9))
        anchors = generate_default_boxes(16, levels)
        gts = [Box(2.0, 2.0, 10.0, 10.0)]
        match = match_anchors(anchors, gts)
        n = len(anchors)
        offsets = np.zeros((n, 4))
        probs = np.zeros((n, 2))
        p_iou = np.ones(n)
        from detkit.geometry import encode

        for a in match.positive_indices:
            offsets[a] = encode(anchors.boxes[a], gts[0]).as_tuple()
            probs[a, 1] = 1.0
        for a in match.negative_indices:
            probs[a, 0] = 1.0
        tl = total_loss(match, HeadOutputs(offsets, probs, p_iou), anchors, gts, [1])
        assert tl.value == 0.0
        assert np.all(tl.d_offsets == 0.0)
        assert np.all(tl.d_p_iou == 0.0)

    def test_single_positive_composes_per_term_oracles(self):
        # one forced positive with known residuals: the aggregate must equal
        # the independently verified per-term functions composed by hand
        levels = build_levels((1,), (16.0,), (0.5, 0.5), aspect_ratios=(1.0,))
        anchors = generate_default_boxes(16, levels)
        gt = anchors.boxes[0]  # both templates coincide; positives = {0, 1}
        gts = [gt]
        match = match_anchors(anchors, gts)
        assert match.positive_indices == [0, 1]

        from detkit.geometry import OffsetEncoding, decode, iou

        n = len(anchors)
        offsets = np.zeros((n, 4))
        offsets[:, 0] = 1.0  # t_cx residual of exactly 1
        probs = np.full((n, 2), 0.8)
        p_iou = np.full(n, 0.6)
        tl = total_loss(match, HeadOutputs(offsets, probs, p_iou), anchors, gts, [1])

        iou_tar = iou(decode(anchors.boxes[0], OffsetEncoding(1.0, 0.0, 0.0, 0.0)), gt).value
        per_anchor = (
            ceji_loss(0.8, iou_tar, True).value
            + balance_l1(1.0).value
            + (r_iou_loss(0.6, iou_tar).value if iou_tar >= 0.5 else 0.0)
        )
        # no negatives on this one-cell pyramid, two identical positives
        assert match.negative_indices == []
        assert tl.value == pytest.approx(2 * per_anchor / 2, abs=1e-12)

    def test_zero_positives_normalizes_by_anchor_count(self):
        levels = build_levels((2,), (8.0,), (0.5, 0.9))
        anchors = generate_default_boxes(16, levels)
        match = match_anchors(anchors, [])
        n = len(anchors)
        probs = np.full((n, 2), 0.5)
        tl = total_loss(match, HeadOutputs(np.zeros((n, 4)), probs, np.ones(n)), anchors, [], [])
        assert tl.n_pos == 0
        assert tl.terms["reg"] == 0.0 and tl.terms["iou"] == 0.0
        assert tl.value == pytest.approx(math.log(2.0), abs=1e-12)  # mean CE over all anchors

    def test_mining_ratio_limits_negatives(self):
        match, heads, anchors, gts, gt_classes = _five_anchor_instance()
        # crank one negative's background prob down: it must be among the mined
        neg = match.negative_indices
        pos = match.positive_indices
        mined_budget = min(3 * len(pos), len(neg))
        heads.class_probs[neg[0], 0] = 0.01
        tl = total_loss(match, heads, anchors, gts, gt_classes)
        touched = [a for a in neg if tl.d_class_probs[a, 0] != 0.0]
        assert len(touched) == mined_budget
        assert neg[0] in touched

    def test_detach_iou_keeps_value_but_cuts_box_chain(self):
        match, heads, anchors, gts, gt_classes = _five_anchor_instance(seed=4)
        # over-predict the IOU so the CEJI and R_IOU target chains do not
        # cancel (-1/t vs +1/t) and the detachment is observable
        heads.p_iou[:] = 0.99
        full = total_loss(match, heads, anchors, gts, gt_classes, LossConfig())
        detached = total_loss(match, heads, anchors, gts, gt_classes, LossConfig(detach_iou=True))
        assert detached.value == full.value
        assert not np.allclose(detached.d_offsets, full.d_offsets)
        # probability-head gradients are untouched by the detachment
        np.testing.assert_array_equal(detached.d_class_probs, full.d_class_probs)
        np.testing.assert_array_equal(detached.d_p_iou, full.d_p_iou)

    @pytest.mark.parametrize("cfg", [
        LossConfig(),
        LossConfig(cls="ce", iou="l2", reg="smooth_l1"),
    ])
    def test_gradient_matches_finite_differences(self, cfg):
        match, heads, anchors, gts, gt_classes = _five_anchor_instance(seed=4)
        base = total_loss(match, heads, anchors, gts, gt_classes, cfg)
        step = 1e-6

        def loss_of(heads2):
            return total_loss(match, heads2, anchors, gts, gt_classes, cfg).value

        rng = np.random.default_rng(9)
        for _ in range(60):
            kind = rng.integers(0, 3)
            if kind == 0:
                a, k = rng.integers(0, heads.offsets.shape[0]), rng.integers(0, 4)
                ref = heads.offsets[a, k]
                heads.offsets[a, k] = ref + step
                up = loss_of(heads)
                heads.offsets[a, k] = ref - step
                down = loss_of(heads)
                heads.offsets[a, k] = ref
                assert rel_err(base.d_offsets[a, k], (up - down) / (2 * step)) <= 1e-4
            elif kind == 1:
                a, c = rng.integers(0, heads.class_probs.shape[0]), rng.integers(0, heads.class_probs.shape[1])
                ref = heads.class_probs[a, c]
                heads.class_probs[a, c] = ref + step
                up = loss_of(heads)
                heads.class_probs[a, c] = ref - step
                down = loss_of(heads)
                heads.class_probs[a, c] = ref
                assert rel_err(base.d_class_probs[a, c], (up - down) / (2 * step)) <= 1e-4
            else:
                a = rng.integers(0, heads.p_iou.shape[0])
                ref = heads.p_iou[a]
                heads.p_iou[a] = ref + step
                up = loss_of(heads)
                heads.p_iou[a] = ref - step
                down = loss_of(heads)
                heads.p_iou[a] = ref
                assert rel_err(base.d_p_iou[a], (up - down) / (2 * step)) <= 1e-4
