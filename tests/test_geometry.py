import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.geometry import encode_rows, iou_matrix

import oracles
from oracles import Box, OffsetEncoding, iou_value
from scalar_api import decode, decode_jacobian, encode, iou
from conftest import boxes, int_boxes, central_diff, outcome, rel_err, random_overlapping_pair

# the pairs greedy NMS must get exactly: identical boxes, IOU exactly 0.5 and
# 0.25, an edge or a corner touching, zero-area boxes
TIE_TOUCH_PAIRS = [
    (Box(0.0, 0.0, 4.0, 4.0), Box(0.0, 0.0, 4.0, 4.0)),
    (Box(0.0, 0.0, 10.0, 10.0), Box(0.0, 0.0, 5.0, 10.0)),
    (Box(0.0, 0.0, 10.0, 10.0), Box(0.0, 0.0, 5.0, 5.0)),
    (Box(0.0, 0.0, 4.0, 4.0), Box(4.0, 0.0, 8.0, 4.0)),
    (Box(0.0, 0.0, 4.0, 4.0), Box(4.0, 4.0, 8.0, 8.0)),
    (Box(2.0, 2.0, 2.0, 2.0), Box(2.0, 2.0, 2.0, 2.0)),
    (Box(2.0, 2.0, 2.0, 2.0), Box(0.0, 0.0, 4.0, 4.0)),
    (Box(0.0, 0.0, 0.0, 4.0), Box(0.0, 0.0, 4.0, 4.0)),
]


class TestBox:
    def test_center_accessors(self):
        b = Box(1.0, 2.0, 5.0, 10.0)
        assert (b.cx, b.cy, b.w, b.h) == (3.0, 6.0, 4.0, 8.0)

    def test_zero_area_allowed(self):
        Box(1.0, 1.0, 1.0, 1.0)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Box(2.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Box(0.0, 2.0, 1.0, 1.0)

    @given(boxes())
    def test_corner_center_roundtrip(self, b):
        back = Box.from_center(b.cx, b.cy, b.w, b.h)
        assert abs(back.x1 - b.x1) <= 1e-12 * max(1.0, abs(b.x1))
        assert abs(back.y2 - b.y2) <= 1e-12 * max(1.0, abs(b.y2))


class TestIou:
    def test_identity(self):
        b = Box(0.0, 0.0, 3.0, 2.0)
        assert iou(b, b).value == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)).value == 0.0

    def test_quarter_overlap(self):
        # inter 1, union 7
        v = iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        assert v.value == pytest.approx(1.0 / 7.0, abs=1e-15)

    def test_both_degenerate(self):
        v = iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1))
        assert v.value == 0.0
        assert v.grad_a == (0.0, 0.0, 0.0, 0.0)

    def test_disjoint_gradient_zero(self):
        v = iou(Box(0, 0, 1, 1), Box(3, 3, 4, 4))
        assert v.grad_a == (0.0, 0.0, 0.0, 0.0)
        assert v.grad_b == (0.0, 0.0, 0.0, 0.0)

    def test_touching_edges_gradient_zero(self):
        v = iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1))
        assert v.value == 0.0
        assert v.grad_a == (0.0, 0.0, 0.0, 0.0)

    def test_identical_boxes_stationary(self):
        # the symmetric tie convention makes the optimum a zero-gradient point
        b = Box(0.0, 0.0, 4.0, 3.0)
        v = iou(b, b)
        assert v.value == 1.0
        assert v.grad_a == (0.0, 0.0, 0.0, 0.0)
        assert v.grad_b == (0.0, 0.0, 0.0, 0.0)

    @given(boxes(), boxes())
    def test_symmetry(self, a, b):
        assert iou(a, b).value == iou(b, a).value

    @given(boxes(), boxes())
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b).value <= 1.0

    @given(int_boxes(), int_boxes(), st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_translation_invariance_exact(self, a, b, tx, ty):
        # integer lattice keeps every float op exact
        assert iou(a.translated(tx, ty), b.translated(tx, ty)).value == iou(a, b).value

    @given(int_boxes(), int_boxes(), st.integers(-6, 6))
    def test_scale_invariance_exact_pow2(self, a, b, k):
        s = 2.0**k
        assert iou(a.scaled(s), b.scaled(s)).value == iou(a, b).value

    @given(boxes(), boxes(), st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariance_approx(self, a, b, s):
        assert iou(a.scaled(s), b.scaled(s)).value == pytest.approx(iou(a, b).value, rel=1e-9, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_overlapping_pair(rng)
            v = iou(a, b)
            for i, name in enumerate(("x1", "y1", "x2", "y2")):
                def f(x, i=i):
                    coords = list(a.as_tuple())
                    coords[i] = x
                    return iou(Box(*coords), b).value

                num = central_diff(f, a.as_tuple()[i])
                assert rel_err(v.grad_a[i], num) <= 1e-4, (name, a, b)

    def test_value_only_path_agrees(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_overlapping_pair(rng, margin=0.0)
            assert iou_value(a, b) == iou(a, b).value

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(5)
        pairs = [random_overlapping_pair(rng, margin=0.0) for _ in range(40)] + TIE_TOUCH_PAIRS
        arr_a = np.array([p[0].as_tuple() for p in pairs])
        arr_b = np.array([p[1].as_tuple() for p in pairs])
        mat = iou_matrix(arr_a, arr_b)
        for i, (a, _) in enumerate(pairs):
            for j, (_, b) in enumerate(pairs):
                assert mat[i, j] == iou_value(a, b), (a, b)

    def test_nan_union_reads_as_the_scalar(self):
        # extents and areas overflow to inf, so the union is inf + inf - inf:
        # iou_value returns NaN, and so do the array paths
        a = Box(-1e308, -1e308, 1e308, 1e308)
        assert math.isnan(iou_value(a, a))
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(iou(a, a).value)
            assert math.isnan(iou_matrix([a.as_tuple()], [a.as_tuple()])[0, 0])


class TestOffsets:
    def test_identity_encoding(self):
        a = Box(0, 0, 4, 4)
        off = encode(a, a)
        assert off.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_hand_evaluated_example(self):
        off = encode(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        assert off.t_cx == pytest.approx(5.0, abs=1e-12)
        assert off.t_cy == pytest.approx(5.0, abs=1e-12)
        assert off.t_w == pytest.approx(0.0, abs=1e-12)
        assert off.t_h == pytest.approx(0.0, abs=1e-12)

    @given(boxes(), boxes())
    def test_roundtrip(self, anchor, gt):
        back = decode(anchor, encode(anchor, gt))
        for got, want in zip(back.as_tuple(), gt.as_tuple()):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_degenerate_anchor_rejected(self):
        with pytest.raises(ValueError):
            encode(Box(0, 0, 0, 2), Box(0, 0, 1, 1))
        with pytest.raises(ValueError):
            decode(Box(0, 0, 2, 0), OffsetEncoding(0, 0, 0, 0))

    def test_decode_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        anchor = Box(2.0, 3.0, 10.0, 9.0)
        for _ in range(50):
            t = rng.normal(0.0, 1.0, 4)
            _, jac = decode_jacobian(anchor, OffsetEncoding(*t))
            for k in range(4):
                def f(x, k=k):
                    tt = t.copy()
                    tt[k] = x
                    return np.array(decode(anchor, OffsetEncoding(*tt)).as_tuple())

                num = (f(t[k] + 1e-6) - f(t[k] - 1e-6)) / 2e-6
                np.testing.assert_allclose(jac[:, k], num, rtol=1e-5, atol=1e-7)


class TestScalarGeometryMatchesOracles:
    """iou, encode, decode and decode_jacobian run the row kernels on one row; they
    must return what their scalar copies in oracles.py return, bit for bit,
    and raise what the copies raise, message included."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(30)
        # integer boxes shifted by 0, 1 or a full side: tied and touching
        # edges; then degenerate, signed-zero and generic float boxes
        pairs = []
        for _ in range(300):
            x1, y1 = rng.integers(0, 10, 2)
            w, h = rng.integers(1, 6, 2)
            a = Box(float(x1), float(y1), float(x1 + w), float(y1 + h))
            pairs.append((a, a.translated(float(rng.choice((0, 1, w, -w))), float(rng.choice((0, 1, h, -h))))))
        pairs += [
            (Box(1.0, 1.0, 1.0, 1.0), Box(1.0, 1.0, 1.0, 1.0)),
            (Box(0.0, 0.0, 0.0, 4.0), Box(0.0, 0.0, 4.0, 4.0)),
            (Box(-0.0, -0.0, 2.0, 2.0), Box(0.0, 0.0, 2.0, 2.0)),
            (Box(-2.0, -2.0, -0.0, -0.0), Box(-1.0, -1.0, 0.0, 0.0)),
            (Box(0.0, 0.0, 1e300, 1e300), Box(0.0, 0.0, 1.0, 1.0)),
        ]
        pairs += [random_overlapping_pair(rng, margin=0.0) for _ in range(300)]
        return pairs

    def test_iou(self):
        for a, b in self._pairs():
            assert outcome(iou, a, b) == outcome(oracles.iou, a, b), (a, b)
            assert outcome(iou, b, a) == outcome(oracles.iou, b, a), (b, a)

    def test_iou_of_a_box_whose_area_overflows_warns_nothing(self):
        a, b = Box(0.0, 0.0, 1e300, 1e300), Box(0.0, 0.0, 1.0, 1.0)
        assert outcome(iou, a, b) == outcome(oracles.iou, a, b)
        assert outcome(iou, b, a) == outcome(oracles.iou, b, a)

    def test_encode(self):
        messages = set()
        for a, b in self._pairs():
            for anchor, gt in ((a, b), (b, a)):
                got = outcome(encode, anchor, gt)
                assert got == outcome(oracles.encode, anchor, gt), (anchor, gt)
                messages.add(got[2].split(" must")[0] if got[0] == "raises" else "")
        assert messages == {"", "anchor", "encoded box"}

    def test_encode_rows(self):
        pairs = [(a, b) for a, b in self._pairs() if min(a.w, a.h, b.w, b.h) > 0.0]
        cwh = np.array([(a.cx, a.cy, a.w, a.h) for a, _ in pairs])
        got = encode_rows(cwh, np.array([b.as_tuple() for _, b in pairs]))
        want = np.array([oracles.encode(a, b).as_tuple() for a, b in pairs])
        assert got.shape == (len(pairs), 4) and got.tobytes() == want.tobytes()

    def test_decode(self):
        rng = np.random.default_rng(31)
        anchors = [a for a, _ in self._pairs()[:300:7]] + [Box(0.0, 0.0, 0.0, 2.0), Box(2.0, 2.0, 3.0, 2.0)]
        rows = [list(r) for r in rng.uniform(-3.0, 3.0, (50, 4))]
        for v in (0.0, -0.0, 1.0, -1.0, 4e3, -4e3, 1e308, math.inf, -math.inf, math.nan):
            for k in range(4):
                rows.append([0.3, -0.2, 0.1, 0.4])
                rows[-1][k] = v
        # offsets as numpy scalars, the type of array elements: a box built
        # from them reports its fields as Python floats in its error
        # message, as the loss's extent_error does for a decoded row
        offsets = [OffsetEncoding(*np.array(r)) for r in rows]
        messages = set()
        with np.errstate(invalid="ignore"):
            for anchor in anchors:
                for off in offsets:
                    got = outcome(decode_jacobian, anchor, off)
                    assert got == outcome(oracles.decode_jacobian, anchor, off), (anchor, off)
                    assert outcome(decode, anchor, off) == outcome(oracles.decode, anchor, off), (anchor, off)
                    messages.add(got[2].split(":")[0] if got[0] == "raises" else "")
        assert messages == {"", "math range error", "negative box extent", "anchor must have strictly positive width and height"}
