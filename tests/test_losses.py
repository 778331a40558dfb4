import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.anchors import AnchorSet, MatchResult, generate_default_boxes, match_anchors, build_levels
from detkit.geometry import decode_jacobian_rows, iou_rows
from detkit.harness import FitConfig, ScenarioConfig, fit_toy, generate_scenario, init_toy_model, scenario_features
from detkit.harness import toyfit
from detkit import losses
from detkit.nms import GroundTruths
from detkit.losses import (
    CEJI_IOU_GATE,
    NEG_POS_RATIO,
    PROB_EPS,
    BalanceL1Params,
    HeadOutputs,
    LossConfig,
    TotalLoss,
    total_loss,
)

import oracles
from oracles import Box, OffsetEncoding
from scalar_api import balance_l1, ceji_loss, cross_entropy, decode, encode, iou, l2_iou_loss, r_iou_loss, smooth_l1
from conftest import anchor_box, central_diff, outcome, rel_err, random_overlapping_pair

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

    @pytest.mark.filterwarnings("error")
    def test_smooth_l1_of_a_huge_residual_warns_nothing(self):
        # the loss is finite; only the square, which the outside rows never use, overflows
        assert smooth_l1(1e200).value == 1e200
        assert smooth_l1(-1.7976931348623157e308).grad["x"] == -1.0
        value, grad = losses._smooth_l1_arr(np.array([[1e200, -1e300], [0.5, math.inf]]))
        assert value.tolist() == [[1e200, 1e300], [0.125, math.inf]]
        assert grad.tolist() == [[1.0, -1.0], [0.5, 1.0]]

    def test_l2(self):
        assert l2_iou_loss(0.8, 0.5).value == pytest.approx(0.045)
        assert l2_iou_loss(0.5, 0.5).value == 0.0

    def test_cross_entropy(self):
        assert cross_entropy(1.0).value == 0.0
        assert cross_entropy(0.5).value == pytest.approx(math.log(2.0))


EDGE_X = (0.0, -0.0, 1.0, -1.0, 1.0 - 1e-16, 0.5, -2.0, 5e-324, -5e-324, 1e308, math.inf, -math.inf, math.nan)
EDGE_PROBS = (-0.3, -0.0, 0.0, 1e-7, PROB_EPS, 0.3, 0.5, 0.7, 1.0, 1.0 + 1e-9, 1.4, math.inf, -math.inf, math.nan)
EDGE_TARGETS = (-0.0, 0.0, 1e-300, 0.3, 0.4999999999999999, 0.5, 0.7, 1.0, 1.0000000000000002, math.nan)


class TestPerTermFunctionsMatchOracles:
    """Each public loss term runs its array kernel on length-1 arrays; it
    must return what its scalar copy in oracles.py returns, bit for bit,
    and raise what the copy raises, message included."""

    def test_residual_losses(self):
        xs = EDGE_X + tuple(np.random.default_rng(20).uniform(-3.0, 3.0, 500).tolist())
        for x in xs + tuple(np.float64(v) for v in EDGE_X):
            assert outcome(balance_l1, x) == outcome(oracles.balance_l1, x), x
            assert outcome(smooth_l1, x) == outcome(oracles.smooth_l1, x), x
            params = BalanceL1Params(alpha=0.8, gamma=2.0)
            assert outcome(balance_l1, x, params) == outcome(oracles.balance_l1, x, params), x

    def test_probability_losses(self):
        rng = np.random.default_rng(21)
        probs = EDGE_PROBS + tuple(rng.uniform(0.0, 1.0, 100).tolist())
        targets = EDGE_TARGETS + tuple(rng.uniform(0.0, 1.0, 20).tolist())
        for p in probs + tuple(np.float64(v) for v in EDGE_PROBS):
            assert outcome(cross_entropy, p) == outcome(oracles.cross_entropy, p), p
            for t in targets + (p,):
                for fn, copy in ((r_iou_loss, oracles.r_iou_loss), (l2_iou_loss, oracles.l2_iou_loss)):
                    assert outcome(fn, p, t) == outcome(copy, p, t), (fn.__name__, p, t)
                for positive, detach in itertools.product((True, False), (False, True)):
                    assert outcome(ceji_loss, p, t, positive, detach) == outcome(
                        oracles.ceji_loss, p, t, positive, detach
                    ), (p, t, positive, detach)

    def test_ceji_chains_the_iou_gradient(self):
        rng = np.random.default_rng(22)
        pairs = [random_overlapping_pair(rng, margin=0.0) for _ in range(200)]
        pairs += [(Box(0.0, 0.0, 4.0, 4.0), Box(0.0, 0.0, 4.0, 4.0)), (Box(0.0, 0.0, 4.0, 4.0), Box(0.0, 2.0, 4.0, 6.0))]
        for a, b in pairs:
            val = iou(a, b)
            for p, positive, detach in itertools.product((0.0, 0.6, 1.0), (True, False), (False, True)):
                assert outcome(ceji_loss, p, val, positive, detach) == outcome(
                    oracles.ceji_loss, p, val, positive, detach
                ), (a, b, p, positive, detach)


def _five_anchor_instance(seed=0):
    """Two gts over a tiny pyramid; generic head outputs with all
    indicator functions (gate, mining, clamps) far from their boundaries."""
    rng = np.random.default_rng(seed)
    levels = build_levels((2, 1), (8.0, 16.0), (0.3, 0.6, 0.9))
    anchors = generate_default_boxes(16, levels)
    gts = GroundTruths([(0.5, 0.5, 7.5, 7.5), (8.5, 8.5, 15.5, 15.5)], [1, 2])
    match = match_anchors(anchors, gts.boxes)
    n = len(anchors)
    offsets = rng.uniform(-0.3, 0.3, (n, 4))
    probs = rng.uniform(0.2, 0.9, (n, 3))
    p_iou = rng.uniform(0.2, 0.9, n)
    return match, HeadOutputs(offsets, probs, p_iou), anchors, gts


class TestTotalLoss:
    def test_exact_predictions_give_zero(self):
        levels = build_levels((2,), (8.0,), (0.5, 0.9))
        anchors = generate_default_boxes(16, levels)
        gt = Box(2.0, 2.0, 10.0, 10.0)
        gts = GroundTruths([gt.as_tuple()], [1])
        match = match_anchors(anchors, gts.boxes)
        n = len(anchors)
        offsets = np.zeros((n, 4))
        probs = np.zeros((n, 2))
        p_iou = np.ones(n)
        from scalar_api import encode

        for a in match.positive_indices:
            offsets[a] = encode(anchor_box(anchors, a), gt).as_tuple()
            probs[a, 1] = 1.0
        for a in match.negative_indices:
            probs[a, 0] = 1.0
        tl = image_loss(match, HeadOutputs(offsets, probs, p_iou), anchors, gts)
        assert tl.value == 0.0
        assert np.all(tl.d_offsets == 0.0)
        assert np.all(tl.d_p_iou == 0.0)

    def test_single_positive_composes_per_term_oracles(self):
        # one forced positive with known residuals: the aggregate must equal
        # the independently verified per-term functions composed by hand
        levels = build_levels((1,), (16.0,), (0.5, 0.5), aspect_ratios=(1.0,))
        anchors = generate_default_boxes(16, levels)
        gt = anchor_box(anchors, 0)  # both templates coincide; positives = {0, 1}
        gts = GroundTruths([gt.as_tuple()], [1])
        match = match_anchors(anchors, gts.boxes)
        assert match.positive_indices.tolist() == [0, 1]

        from oracles import OffsetEncoding
        from scalar_api import decode, iou

        n = len(anchors)
        offsets = np.zeros((n, 4))
        offsets[:, 0] = 1.0  # t_cx residual of exactly 1
        probs = np.full((n, 2), 0.8)
        p_iou = np.full(n, 0.6)
        tl = image_loss(match, HeadOutputs(offsets, probs, p_iou), anchors, gts)

        iou_tar = iou(decode(anchor_box(anchors, 0), OffsetEncoding(1.0, 0.0, 0.0, 0.0)), gt).value
        per_anchor = (
            ceji_loss(0.8, iou_tar, True).value
            + balance_l1(1.0).value
            + (r_iou_loss(0.6, iou_tar).value if iou_tar >= 0.5 else 0.0)
        )
        # no negatives on this one-cell pyramid, two identical positives
        assert match.negative_indices.tolist() == []
        assert tl.value == pytest.approx(2 * per_anchor / 2, abs=1e-12)

    def test_zero_positives_normalizes_by_anchor_count(self):
        levels = build_levels((2,), (8.0,), (0.5, 0.9))
        anchors = generate_default_boxes(16, levels)
        match = match_anchors(anchors, [])
        n = len(anchors)
        probs = np.full((n, 2), 0.5)
        tl = image_loss(match, HeadOutputs(np.zeros((n, 4)), probs, np.ones(n)), anchors, GroundTruths())
        assert tl.n_pos == 0
        assert tl.terms["reg"] == 0.0 and tl.terms["iou"] == 0.0
        assert tl.value == pytest.approx(math.log(2.0), abs=1e-12)  # mean CE over all anchors

    def test_mining_ratio_limits_negatives(self):
        match, heads, anchors, gts = _five_anchor_instance()
        # crank one negative's background prob down: it must be among the mined
        neg = match.negative_indices.tolist()
        pos = match.positive_indices.tolist()
        mined_budget = min(3 * len(pos), len(neg))
        heads.class_probs[neg[0], 0] = 0.01
        tl = image_loss(match, heads, anchors, gts)
        touched = [a for a in neg if tl.d_class_probs[a, 0] != 0.0]
        assert len(touched) == mined_budget
        assert neg[0] in touched

    def test_detach_iou_keeps_value_but_cuts_box_chain(self):
        match, heads, anchors, gts = _five_anchor_instance(seed=4)
        # over-predict the IOU so the CEJI and R_IOU target chains do not
        # cancel (-1/t vs +1/t) and the detachment is observable
        heads.p_iou[:] = 0.99
        full = image_loss(match, heads, anchors, gts, LossConfig())
        detached = image_loss(match, heads, anchors, gts, LossConfig(detach_iou=True))
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
        match, heads, anchors, gts = _five_anchor_instance(seed=4)
        base = image_loss(match, heads, anchors, gts, cfg)
        step = 1e-6

        def loss_of(heads2):
            return image_loss(match, heads2, anchors, gts, cfg).value

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


# ---------------------------------------------------------------------------
# total_loss against the per-anchor scalar loop it replaced


def total_loss_scalar(
    match: MatchResult,
    preds: HeadOutputs,
    anchors: AnchorSet,
    gts: GroundTruths,
    cfg: LossConfig = LossConfig(),
) -> TotalLoss:
    """Reference: the original per-anchor loop, one call of the scalar
    oracles per positive, negative and offset component.

    Aggregate loss over one image, normalized by the positive count.

    Classification uses the configured CE variant over positives plus
    hard-negative mining at ``NEG_POS_RATIO``:1 on the background
    probability; regression applies the configured residual loss to the
    four offset components of each positive; the IOU head is trained only
    on positives whose measured IOU passes the 0.5 gate. The measured IOU
    is a function of the predicted offsets, and its gradient chains back
    into them (from both the CEJI positive branch and the IOU-head
    target) so the aggregate is exactly the derivative of its value;
    ``detach_iou`` stop-gradients both chains. With zero positives the
    regression and IOU terms vanish and the classification term (all
    negatives) is normalized by the anchor count instead.
    """
    n = len(anchors)
    d_off = np.zeros_like(preds.offsets)
    d_cls = np.zeros_like(preds.class_probs)
    d_piou = np.zeros_like(preds.p_iou)

    # balance-l1 at its default alpha, gamma
    reg_fn = oracles.balance_l1 if cfg.reg == "balance_l1" else oracles.smooth_l1
    iou_fn = oracles.r_iou_loss if cfg.iou == "r_iou" else oracles.l2_iou_loss

    pos = match.positive_indices.tolist()
    cls_sum = reg_sum = iou_sum = 0.0

    for a in pos:
        g = int(match.gt_index[a])
        gt = Box(*gts.boxes[g].tolist())
        anchor = anchor_box(anchors, a)
        off = OffsetEncoding(*preds.offsets[a])
        decoded, jac = oracles.decode_jacobian(anchor, off)
        iou_tar = oracles.iou(decoded, gt)

        # classification on the ground-truth class probability
        c = int(gts.class_id[g])
        p_cls = preds.class_probs[a, c]
        if cfg.cls == "ceji":
            term = oracles.ceji_loss(p_cls, iou_tar, True, detach_iou=cfg.detach_iou)
            cls_sum += term.value
            d_cls[a, c] += term.grad["p_cls"]
            d_box = np.array([term.grad[k] for k in ("x1", "y1", "x2", "y2")])
            d_off[a] += d_box @ jac
        else:
            term = oracles.cross_entropy(p_cls)
            cls_sum += term.value
            d_cls[a, c] += term.grad["p_cls"]

        # regression on the four offset residuals
        target = oracles.encode(anchor, gt)
        for k, (pred_k, tar_k) in enumerate(zip(preds.offsets[a], target.as_tuple())):
            term = reg_fn(pred_k - tar_k)
            reg_sum += term.value
            d_off[a, k] += term.grad["x"]

        # IOU head, gated on regression quality; the measured target also
        # depends on the offsets, so its chain flows unless detached
        if iou_tar.value >= CEJI_IOU_GATE:
            term = iou_fn(preds.p_iou[a], iou_tar.value)
            iou_sum += term.value
            d_piou[a] += term.grad["p_iou"]
            if not cfg.detach_iou:
                d_box = term.grad["iou_tar"] * np.array(iou_tar.grad_a)
                d_off[a] += d_box @ jac

    # hard-negative mining on the background probability
    neg = match.negative_indices.tolist()
    if pos:
        n_mined = min(int(NEG_POS_RATIO * len(pos)), len(neg))
        if n_mined > 0:
            neg_losses = [(-math.log(min(max(preds.class_probs[a, 0], PROB_EPS), 1.0)), a) for a in neg]
            neg_losses.sort(key=lambda t: (-t[0], t[1]))
            mined = [a for _, a in neg_losses[:n_mined]]
        else:
            mined = []
    else:
        mined = list(neg)

    for a in mined:
        term = oracles.cross_entropy(preds.class_probs[a, 0])
        cls_sum += term.value
        d_cls[a, 0] += term.grad["p_cls"]

    norm = float(len(pos)) if pos else float(max(n, 1))
    value = (cls_sum + reg_sum + iou_sum) / norm
    inv = 1.0 / norm
    return TotalLoss(
        value=value,
        n_pos=len(pos),
        terms={"cls": cls_sum / norm, "reg": reg_sum / norm, "iou": iou_sum / norm},
        d_offsets=d_off * inv,
        d_class_probs=d_cls * inv,
        d_p_iou=d_piou * inv,
    )



def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_same_loss(got: TotalLoss, want: TotalLoss):
    """Bit-for-bit equality, signed zeros and NaN payloads included."""
    assert float_bits(got.value) == float_bits(want.value), (got.value, want.value)
    assert got.n_pos == want.n_pos
    assert list(got.terms) == list(want.terms)
    for key in want.terms:
        assert float_bits(got.terms[key]) == float_bits(want.terms[key]), (key, got.terms[key], want.terms[key])
    for name in ("d_offsets", "d_class_probs", "d_p_iou"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes(), (name, np.argwhere(g != w)[:5])


def image_results(batch: TotalLoss) -> list[TotalLoss]:
    """A batch's result as one result per image."""
    return [
        TotalLoss(batch.value[i], batch.n_pos[i], {key: v[i] for key, v in batch.terms.items()},
                  batch.d_offsets[i], batch.d_class_probs[i], batch.d_p_iou[i])
        for i in range(len(batch.value))
    ]


def scalar_loop_by_image(match, heads, anchors, gts, cfg=LossConfig()) -> list[TotalLoss]:
    """``total_loss_scalar`` on each image of a batch alone."""
    return [
        total_loss_scalar(MatchResult(match.gt_index[i], match.best_iou[i]),
                          HeadOutputs(heads.offsets[i], heads.class_probs[i], heads.p_iou[i]), anchors, image_gts, cfg)
        for i, image_gts in enumerate(gts)
    ]


def stack_images(instances):
    """One batch of single-image instances that share their anchors: (match, heads, anchors, gts)."""
    matches, heads, anchors, gts = zip(*instances)
    return (
        MatchResult(np.stack([m.gt_index for m in matches]), np.stack([m.best_iou for m in matches])),
        HeadOutputs(*(np.stack([getattr(h, f) for h in heads]) for f in ("offsets", "class_probs", "p_iou"))),
        anchors[0],
        list(gts),
    )


def image_loss(match, heads, anchors, gts, cfg=LossConfig()) -> TotalLoss:
    """``total_loss`` on one image, the batch of one, as that image's result."""
    return image_results(total_loss(*stack_images([(match, heads, anchors, gts)]), cfg))[0]


ALL_LOSS_CONFIGS = [
    LossConfig(cls=c, iou=i, reg=r, detach_iou=d)
    for c, i, r, d in itertools.product(("ceji", "ce"), ("r_iou", "l2"), ("balance_l1", "smooth_l1"), (False, True))
]


def _config_id(cfg: LossConfig) -> str:
    return f"{cfg.cls}-{cfg.iou}-{cfg.reg}" + ("-detach" if cfg.detach_iou else "")


class TestTotalLossMatchesScalarLoop:
    @pytest.mark.parametrize("losses", ALL_LOSS_CONFIGS, ids=_config_id)
    def test_every_call_of_a_small_fit(self, losses, monkeypatch):
        cfg = ScenarioConfig(
            seed=3, image_size=96.0, n_images=2, object_count=(2, 4), grids=(12, 6, 3),
            fit=FitConfig(epochs=8, step=0.3, feature_dim=16), losses=losses,
        )
        calls = []

        def checked(*args):
            got = total_loss(*args)
            for image, want in zip(image_results(got), scalar_loop_by_image(*args)):
                assert_same_loss(image, want)
                calls.append(image.n_pos)
            return got

        monkeypatch.setattr(toyfit, "total_loss", checked)
        scenario = generate_scenario(cfg)
        fit_toy(init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed), scenario, scenario_features(scenario), cfg)
        assert len(calls) == cfg.n_images * (cfg.fit.epochs + 1)
        assert min(calls) > 0

    def test_default_scale_fit_calls(self, monkeypatch):
        # the benchmark's scale: ~2,100 negatives per image, ~25 positives
        cfg = ScenarioConfig(fit=FitConfig(epochs=2))
        calls = []

        def checked(*args):
            got = total_loss(*args)
            for image, want in zip(image_results(got), scalar_loop_by_image(*args)):
                assert_same_loss(image, want)
                calls.append(image)
            return got

        monkeypatch.setattr(toyfit, "total_loss", checked)
        scenario = generate_scenario(cfg)
        fit_toy(init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed), scenario, scenario_features(scenario), cfg)
        assert len(calls) == cfg.n_images * 3

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edge_cases(self, data):
        inst = data.draw(_loss_instances())
        cfg = data.draw(st.sampled_from(ALL_LOSS_CONFIGS))
        assert_same_loss(image_loss(*inst, cfg), total_loss_scalar(*inst, cfg))

    def test_edge_case_kinds_are_reached(self):
        # the hypothesis cases above must include each boundary they are
        # meant to cover; build one of each deterministically
        kinds = {
            "no_positives": dict(layout="pyramid", n_gts=0),
            "no_negatives": dict(layout="one_cell", n_gts=1),
            "all_below_gate": dict(layout="pyramid", n_gts=2, offsets="below_gate"),
            "p_iou_equal": dict(layout="pyramid", n_gts=2, p_iou="measured"),
            "exact_residuals": dict(layout="pyramid", n_gts=3, offsets="exact_residuals"),
            "clamped_probs": dict(layout="pyramid", n_gts=2, probs="clamped"),
            "tied_background": dict(layout="pyramid", n_gts=1, probs="tied"),
        }
        for name, kw in kinds.items():
            match, heads, anchors, gts = _loss_instance(seed=7, **kw)
            pos, neg = match.positive_indices.tolist(), match.negative_indices.tolist()
            if name == "no_positives":
                assert not pos
            if name == "no_negatives":
                assert pos and not neg
            if name == "all_below_gate":
                assert pos and all(_measured_iou(anchors, heads, gts, match, a) < CEJI_IOU_GATE for a in pos)
            if name == "p_iou_equal":
                assert all(heads.p_iou[a] == _measured_iou(anchors, heads, gts, match, a) for a in pos)
                assert any(heads.p_iou[a] >= CEJI_IOU_GATE for a in pos)
            if name == "exact_residuals":
                targets = {a: encode(anchor_box(anchors, a), Box(*gts.boxes[match.gt_index[a]].tolist())) for a in pos}
                residuals = {float(heads.offsets[a, k]) - targets[a].as_tuple()[k] for a in pos for k in range(4)}
                assert {0.0, 1.0, -1.0} <= residuals
            if name == "clamped_probs":
                assert (heads.class_probs < PROB_EPS).any() and (heads.class_probs > 1.0).any()
            if name == "tied_background":
                n_mined = min(int(NEG_POS_RATIO * len(pos)), len(neg))
                bg = np.sort(heads.class_probs[neg, 0])
                assert bg[n_mined - 1] == bg[n_mined]  # the mining cut falls inside a tie
            for cfg in ALL_LOSS_CONFIGS:
                assert_same_loss(
                    image_loss(match, heads, anchors, gts, cfg),
                    total_loss_scalar(match, heads, anchors, gts, cfg),
                )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_non_finite_inputs_raise_like_the_scalar_loop(self, data):
        match, heads, anchors, gts = data.draw(_loss_instances(min_gts=1))
        _spoil(data, match, heads)
        cfg = data.draw(st.sampled_from(ALL_LOSS_CONFIGS))
        args = (match, heads, anchors, gts, cfg)
        with np.errstate(all="ignore"):
            try:
                want = total_loss_scalar(*args)
            except (OverflowError, ValueError) as exc:
                with pytest.raises(type(exc)) as got:
                    image_loss(*args)
                assert str(got.value) == str(exc)
                return
            got = image_loss(*args)
        assert_same_loss(got, want)

    def test_array_kernels_match_scalar_twins(self):
        # element by element over many inputs, so a kernel that rounds
        # differently on a small share of them (numpy's vectorized
        # transcendentals) fails even where total_loss's sums absorb it
        rng = np.random.default_rng(12)
        n = 20_000
        x = np.concatenate((rng.uniform(-3.0, 3.0, n), [0.0, -0.0, 1.0, -1.0, 1.0 - 1e-16, math.inf, -math.inf]))
        for kernel, scalar in ((losses._balance_l1_arr, oracles.balance_l1), (losses._smooth_l1_arr, oracles.smooth_l1)):
            value, grad = kernel(x)
            want = [scalar(v) for v in x.tolist()]
            assert value.tobytes() == np.array([w.value for w in want]).tobytes()
            assert grad.tobytes() == np.array([w.grad["x"] for w in want]).tobytes()

        p = np.concatenate((rng.uniform(0.0, 1.0, n), rng.uniform(0.85, 1.0, n), CLAMPED_PROBS))
        value, grad = losses._cross_entropy_arr(p)
        want = [oracles.cross_entropy(v) for v in p.tolist()]
        assert value.tobytes() == np.array([w.value for w in want]).tobytes()
        assert grad.tobytes() == np.array([w.grad["p_cls"] for w in want]).tobytes()

        t = np.concatenate((rng.uniform(0.01, 1.0, n), rng.uniform(0.85, 1.0, n), [0.5] * len(CLAMPED_PROBS)))
        t[:100] = p[:100]  # p == t exactly
        value, d_p, d_t = losses._ceji_positive_arr(p, t)
        want = [oracles.ceji_loss(a, b, True) for a, b in zip(p.tolist(), t.tolist())]
        assert value.tobytes() == np.array([w.value for w in want]).tobytes()
        assert d_p.tobytes() == np.array([w.grad["p_cls"] for w in want]).tobytes()
        assert d_t.tobytes() == np.array([w.grad["iou_tar"] for w in want]).tobytes()
        for kernel, scalar in ((losses._r_iou_arr, oracles.r_iou_loss), (losses._l2_iou_arr, oracles.l2_iou_loss)):
            value, d_p, d_t = kernel(p, t)
            want = [scalar(a, b) for a, b in zip(p.tolist(), t.tolist())]
            assert value.tobytes() == np.array([w.value for w in want]).tobytes()
            assert d_p.tobytes() == np.array([w.grad["p_iou"] for w in want]).tobytes()
            assert d_t.tobytes() == np.array([w.grad["iou_tar"] for w in want]).tobytes()

        # integer boxes decoded at zero offsets, shifted by 0, 1 or a full
        # side: tied and touching edges; then generic float boxes
        anchors, gts = [], []
        for _ in range(300):
            x1, y1 = rng.integers(0, 10, 2)
            w, h = rng.integers(1, 6, 2)
            anchors.append(Box(float(x1), float(y1), float(x1 + w), float(y1 + h)))
            gts.append(anchors[-1].translated(*(rng.choice((0, 1, w, -w)), rng.choice((0, 1, h, -h)))))
        n_exact = len(anchors)
        corners = [(*sorted(rng.uniform(0, 20, 2)), *sorted(rng.uniform(0, 20, 2))) for _ in range(2_000)]
        for x1, x2, y1, y2 in corners:
            if x2 > x1 and y2 > y1:
                anchors.append(Box(x1, y1, x2, y2))
                gts.append(anchors[-1].translated(*rng.choice((0.0, 0.5, 3.0), 2)))
        off = rng.uniform(-1.0, 1.0, (len(anchors), 4))
        off[:n_exact] = 0.0
        cwh = np.array([(a.cx, a.cy, a.w, a.h) for a in anchors])
        box, jac = decode_jacobian_rows(cwh, off)
        gt_arr = np.array([g.as_tuple() for g in gts])
        value, grad = iou_rows(box, gt_arr, np.array([g.area for g in gts]))
        for i, (a, g) in enumerate(zip(anchors, gts)):
            want_box, want_jac = oracles.decode_jacobian(a, OffsetEncoding(*off[i]))
            assert box[i].tobytes() == np.array(want_box.as_tuple()).tobytes()
            assert jac[i].tobytes() == want_jac.tobytes()
            want = oracles.iou(want_box, g)
            assert float_bits(value[i]) == float_bits(want.value)
            assert grad[i].tobytes() == np.array(want.grad_a).tobytes()

    def test_plan_follows_its_inputs(self):
        # total_loss builds its per-image arrays from each call's inputs, so
        # the same match against moved ground truths gives the scalar loop's
        # result for those ground truths
        match, heads, anchors, gts = _five_anchor_instance(seed=2)
        image_loss(match, heads, anchors, gts)
        moved = GroundTruths(gts.boxes + [(0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 0.0)], [2, 1])
        assert_same_loss(
            image_loss(match, heads, anchors, moved),
            total_loss_scalar(match, heads, anchors, moved),
        )


def _spoil(data, match, heads) -> None:
    """Non-finite or overflowing offsets on 1-4 positives, and maybe a NaN ``p_iou`` on one."""
    pos = match.positive_indices.tolist()
    for _ in range(data.draw(st.integers(1, 4))):
        a = data.draw(st.sampled_from(pos))
        k = data.draw(st.integers(0, 3))
        # 3548.91356446692 * 0.2 is the first product past the largest double whose exp is finite
        offsets = [math.nan, math.inf, -math.inf, 4e3, -4e3, 1e308, 3548.9135644669195, 3548.91356446692]
        heads.offsets[a, k] = data.draw(st.sampled_from(offsets))
    if data.draw(st.booleans()):
        heads.p_iou[data.draw(st.sampled_from(pos))] = math.nan


class TestBatch:
    """A batch of images in one pass: each image's result is the image's
    alone, and a failing batch raises what the first failing image raises."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_images_alone_and_first_failure(self, data):
        layout = data.draw(st.sampled_from(("pyramid", "one_cell")))
        instances = [data.draw(_loss_instances(layout=layout)) for _ in range(data.draw(st.integers(1, 4)))]
        # spoiled images anywhere in the batch, on their positives
        for match, heads, _, _ in instances:
            if len(match.positive_indices) and data.draw(st.booleans()):
                _spoil(data, match, heads)
        cfg = data.draw(st.sampled_from(ALL_LOSS_CONFIGS))
        batch = stack_images(instances)
        with np.errstate(all="ignore"):
            first_failure, wants = None, []
            for match, heads, anchors, gts in instances:
                try:
                    wants.append(total_loss_scalar(match, heads, anchors, gts, cfg))
                except (OverflowError, ValueError) as exc:
                    first_failure = exc
                    break
            if first_failure is not None:
                with pytest.raises(type(first_failure)) as got:
                    total_loss(*batch, cfg)
                assert str(got.value) == str(first_failure)
                return
            got = total_loss(*batch, cfg)
            alone = [image_loss(*inst, cfg) for inst in instances]
        assert len(got.value) == len(instances)
        for image, image_alone, want in zip(image_results(got), alone, wants):
            assert_same_loss(image, want)
            assert_same_loss(image_alone, want)

    def test_zero_width_match_raises_before_a_later_overflow(self):
        # the first image matches a positive to a ground truth of zero width, which encode refuses; the
        # second overflows exp. A loop of images raises the first image's error, and so must the batch
        match, heads, anchors, gts = _five_anchor_instance()
        g = int(match.gt_index[match.positive_indices[0]])
        boxes = gts.boxes.copy()
        boxes[g, 2] = boxes[g, 0]
        first = match, heads, anchors, GroundTruths(boxes, gts.class_id)
        second = _five_anchor_instance(seed=1)
        second[1].offsets[second[0].positive_indices[0], 2] = 4e3
        for cfg in ALL_LOSS_CONFIGS:
            with pytest.raises(ValueError) as want:
                total_loss_scalar(*first, cfg)
            with pytest.raises(OverflowError):
                total_loss_scalar(*second, cfg)
            with pytest.raises(ValueError) as got:
                total_loss(*stack_images([first, second]), cfg)
            assert str(got.value) == str(want.value)
            assert str(want.value).startswith("encoded box must have strictly positive width and height: Box(")


def _measured_iou(anchors, heads, gts, match, a) -> float:
    box = decode(anchor_box(anchors, a), OffsetEncoding(*heads.offsets[a]))
    return iou(box, Box(*gts.boxes[match.gt_index[a]].tolist())).value


TIED_PROBS = (0.05, 0.5, 0.9)
CLAMPED_PROBS = (-0.3, 0.0, 1e-7, PROB_EPS, 1.0, 1.0 + 1e-9, 1.4)


def _loss_instance(seed, layout="pyramid", n_gts=2, offsets="random", p_iou="random", probs="random",
                   gt_on_anchor=True):
    """One image for total_loss: a small anchor pyramid (84 anchors) or a
    one-cell layout whose two anchors coincide (every anchor positive), and
    head outputs steered onto the loss's boundaries."""
    rng = np.random.default_rng(seed)
    if layout == "one_cell":
        anchors = generate_default_boxes(16, build_levels((1,), (16.0,), (0.5, 0.5), aspect_ratios=(1.0,)))
        gts = [anchor_box(anchors, 0)][:n_gts]
    else:
        anchors = generate_default_boxes(16, build_levels((4, 2, 1), (4.0, 8.0, 16.0), (0.2, 0.4, 0.7, 0.95)))
        gts = []
        for _ in range(n_gts):
            if gt_on_anchor:
                # a ground truth equal to an anchor box encodes to exactly 0 there
                gts.append(anchor_box(anchors, int(rng.integers(0, len(anchors)))))
            else:
                x1, y1 = rng.uniform(0.0, 10.0, 2)
                w, h = rng.uniform(2.0, 8.0, 2)
                gts.append(Box(x1, y1, x1 + w, y1 + h))
    classes = [int(c) for c in rng.integers(1, 3, len(gts))]
    match = match_anchors(anchors, [g.as_tuple() for g in gts])
    n = len(anchors)
    pos = match.positive_indices.tolist()

    off = rng.uniform(-0.4, 0.4, (n, 4))
    targets = {a: np.array(encode(anchor_box(anchors, a), gts[match.gt_index[a]]).as_tuple()) for a in pos}
    if offsets == "below_gate":
        for a in pos:
            off[a] = targets[a] + (0.0, 0.0, -4.0, -4.0)  # boxes shrunk to under half the area
    elif offsets == "exact_residuals":
        for a in pos:
            off[a] = targets[a] + rng.choice((0.0, 1.0, -1.0, 0.5), 4)
    elif offsets == "wild":
        off = rng.uniform(-6.0, 6.0, (n, 4))

    if probs == "tied":
        cls_probs = rng.choice(TIED_PROBS, (n, 3))
    elif probs == "clamped":
        cls_probs = rng.choice(CLAMPED_PROBS + (0.3, 0.7), (n, 3))
    else:
        cls_probs = rng.uniform(0.0, 1.0, (n, 3))

    heads = HeadOutputs(off, cls_probs, rng.uniform(0.0, 1.0, n))
    gts = GroundTruths([g.as_tuple() for g in gts], classes)
    if p_iou == "measured":
        for a in pos:
            heads.p_iou[a] = _measured_iou(anchors, heads, gts, match, a)
    elif p_iou == "clamped":
        heads.p_iou[:] = rng.choice(CLAMPED_PROBS, n)
    return match, heads, anchors, gts


@st.composite
def _loss_instances(draw, min_gts=0, layout=None):
    layout = layout or draw(st.sampled_from(("pyramid", "pyramid", "one_cell")))
    return _loss_instance(
        seed=draw(st.integers(0, 2**32 - 1)),
        layout=layout,
        n_gts=draw(st.integers(max(min_gts, 1 if layout == "one_cell" else 0), 1 if layout == "one_cell" else 4)),
        offsets=draw(st.sampled_from(("random", "below_gate", "exact_residuals", "wild"))),
        p_iou=draw(st.sampled_from(("random", "measured", "clamped"))),
        probs=draw(st.sampled_from(("random", "tied", "clamped"))),
        gt_on_anchor=draw(st.booleans()),
    )


# ---------------------------------------------------------------------------
# hard-negative mining: one log per distinct background probability


def _mining_instance(bg, n_pos=5, seed=5):
    """The pyramid instance (84 anchors) with anchors 0..n_pos-1 positive on
    its one ground truth and the background probabilities of the others set
    to ``bg``; n_pos=5 mines 15 of 79 negatives."""
    match, heads, anchors, gts = _loss_instance(seed, n_gts=1)
    gt_index = np.full(len(anchors), -1, dtype=np.intp)
    gt_index[:n_pos] = 0
    heads.class_probs[n_pos:, 0] = bg
    return MatchResult(gt_index, match.best_iou), heads, anchors, gts


def _assert_mines_as_scalar_loop(inst):
    for cfg in (LossConfig(), LossConfig(cls="ce", iou="l2")):
        assert_same_loss(image_loss(*inst, cfg), total_loss_scalar(*inst, cfg))


class TestMining:
    def test_neighbours_straddling_the_cut(self):
        rng = np.random.default_rng(0)
        for cut in (0.5, 0.9853, PROB_EPS * 3, 1.0 - 2**-30):
            # the 15th smallest, the last mined, is cut itself, next to its
            # neighbours a few ulps either side
            up = np.nextafter(cut, 1.0)
            near = [np.nextafter(cut, 0.0), cut, cut, up, up, np.nextafter(up, 1.0), np.nextafter(cut, 0.0)]
            below = rng.uniform(PROB_EPS, cut / 2, 12)
            bg = np.concatenate((below, near, np.full(79 - 12 - len(near), 1.0)))
            _assert_mines_as_scalar_loop(_mining_instance(rng.permutation(bg)))

    def test_ties_at_the_clamps(self):
        rng = np.random.default_rng(1)
        low = (-0.3, 0.0, 1e-7, PROB_EPS)  # all clamp to PROB_EPS
        high = (1.0, 1.0 + 1e-9, 1.4)  # all clamp to 1.0
        for n_low in (0, 10, 15, 30, 79):
            bg = np.concatenate((rng.choice(low, n_low), rng.choice(high, 40), rng.uniform(0.2, 0.8, 39)))[:79]
            _assert_mines_as_scalar_loop(_mining_instance(rng.permutation(bg)))
        _assert_mines_as_scalar_loop(_mining_instance(rng.choice(high, 79)))

    @pytest.mark.parametrize("n_nan", [1, 3, 64, 65, 79])
    def test_nan_backgrounds(self, n_nan):
        # NaN rows come last: the scalar loop's sort keys compare unordered
        # with NaN, so only there is its order the one numpy gives (NaN last,
        # then by anchor). 65 or more NaN leave fewer than the 15 mined rows
        # finite, and the cut itself is NaN
        rng = np.random.default_rng(n_nan)
        bg = np.concatenate((rng.uniform(0.0, 1.0, 79 - n_nan), np.full(n_nan, math.nan)))
        _assert_mines_as_scalar_loop(_mining_instance(bg))

    def test_every_negative_mined(self):
        rng = np.random.default_rng(2)
        # 21 positives and 63 negatives: n_mined == len(neg)
        _assert_mines_as_scalar_loop(_mining_instance(rng.uniform(0.0, 1.0, 63), n_pos=21))
        _assert_mines_as_scalar_loop(_mining_instance(rng.choice((0.3, 1.0, math.nan), 63), n_pos=21))

    def test_no_positives_mine_every_negative_in_anchor_order(self):
        rng = np.random.default_rng(3)
        inst = _mining_instance(rng.uniform(0.0, 1.0, 84), n_pos=0)
        _assert_mines_as_scalar_loop(inst)
        got = image_loss(*inst)
        assert (got.d_class_probs[:, 0] < 0.0).all()

    def test_logs_once_per_distinct_probability(self, monkeypatch):
        # each call takes one log per distinct clamped background probability:
        # the last log of a call is mining's. From the second epoch of the
        # benchmark's fit on, every background clamps to 1.0
        cfg = ScenarioConfig(fit=FitConfig(epochs=2))
        math_map = losses.math_map
        logged, sizes = [], []

        def counted(fn, x):
            if fn is math.log:
                logged.append(x.size)
            return math_map(fn, x)

        def checked(match, heads, *rest):
            # one call per epoch mines over the negatives of all its images
            logged.clear()
            got = total_loss(match, heads, *rest)
            p = np.clip(heads.class_probs[..., 0].ravel()[match.negative_indices], PROB_EPS, 1.0)
            assert logged[-1] == len(np.unique(p.view(np.int64)))
            sizes.append((logged[-1], len(p)))
            return got

        monkeypatch.setattr(losses, "math_map", counted)
        monkeypatch.setattr(toyfit, "total_loss", checked)
        scenario = generate_scenario(cfg)
        fit_toy(init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed), scenario, scenario_features(scenario), cfg)
        assert len(sizes) == 3
        assert all(n == 1 < n_neg for n, n_neg in sizes[1:])
