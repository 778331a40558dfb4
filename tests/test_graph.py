import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.graph import (
    ConvParams,
    RfmWeights,
    TensorNCHW,
    adaptive_avg_pool,
    bilinear_resize,
    conv2d,
    init_rfm_weights,
    init_two_way_fpn_weights,
    load_tensor,
    rfm_forward,
    save_tensor,
    two_way_fpn_forward,
)
from detkit.graph import tensor
from detkit.graph.tensor import conv_output_size
from detkit.rfcalc import INITIAL_STATE, LayerSpec, RFState, propagate


def conv2d_bruteforce(x: TensorNCHW, p: ConvParams) -> np.ndarray:
    """Nested-loop cross-correlation oracle, independent of the im2col path."""
    spec = p.spec
    k, s, d, pad = spec.kernel, spec.stride, spec.dilation, spec.padding
    ho = conv_output_size(x.h, k, s, d, pad)
    wo = conv_output_size(x.w, k, s, d, pad)
    out = np.zeros((x.n, spec.out_channels, ho, wo))
    for n in range(x.n):
        for o in range(spec.out_channels):
            for i in range(ho):
                for j in range(wo):
                    acc = p.bias[o]
                    for c in range(x.c):
                        for ki in range(k):
                            for kj in range(k):
                                yy = i * s - pad + ki * d
                                xx = j * s - pad + kj * d
                                if 0 <= yy < x.h and 0 <= xx < x.w:
                                    acc += x.data[n, c, yy, xx] * p.weight[o, c, ki, kj]
                    out[n, o, i, j] = acc
    return out


def identity_1x1(channels: int) -> ConvParams:
    weight = np.eye(channels).reshape(channels, channels, 1, 1)
    return ConvParams(LayerSpec(1, in_channels=channels, out_channels=channels), weight, np.zeros(channels))


class TestTensor:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TensorNCHW(np.zeros((2, 3, 4)))

    def test_dump_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = TensorNCHW(rng.normal(size=(2, 3, 5, 4)))
        save_tensor(t, tmp_path / "fixture")
        back = load_tensor(tmp_path / "fixture")
        np.testing.assert_array_equal(back.data, t.data)
        assert (tmp_path / "fixture.bin").exists() and (tmp_path / "fixture.json").exists()


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(1)
        x = TensorNCHW(rng.normal(size=(1, 3, 6, 6)))
        out = conv2d(x, identity_1x1(3))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_3x3_on_constant(self):
        x = TensorNCHW(np.full((1, 1, 5, 5), 2.0))
        spec = LayerSpec(3, padding=1, in_channels=1, out_channels=1)
        p = ConvParams(spec, np.ones((1, 1, 3, 3)), np.zeros(1))
        out = conv2d(x, p)
        assert out.data[0, 0, 2, 2] == 18.0  # 9 * 2 in the interior

    def test_channel_mismatch_rejected(self):
        x = TensorNCHW(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError):
            conv2d(x, identity_1x1(3))

    @pytest.mark.parametrize("stride,dilation,padding,kernel", [
        (1, 1, 0, 1),
        (1, 1, 1, 3),
        (2, 1, 1, 3),
        (1, 2, 2, 3),
        (2, 3, 3, 3),
        (1, 1, 2, 5),
    ])
    def test_matches_bruteforce_oracle(self, stride, dilation, padding, kernel):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + dilation)
        spec = LayerSpec(kernel, stride, dilation, padding, in_channels=3, out_channels=4)
        p = ConvParams(spec, rng.normal(size=(4, 3, kernel, kernel)), rng.normal(size=4))
        x = TensorNCHW(rng.normal(size=(2, 3, 8, 7)))
        got = conv2d(x, p)
        want = conv2d_bruteforce(x, p)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    @pytest.mark.parametrize("kernel,stride,dilation,padding,batch", [
        (1, 1, 1, 0, 1),  # plain 1x1: the direct path
        (1, 1, 1, 0, 3),
        (1, 2, 1, 0, 2),  # 1x1 with stride or padding keeps im2col
        (1, 1, 1, 1, 2),
        (3, 1, 1, 1, 2),
        (3, 2, 1, 1, 3),
        (3, 1, 3, 3, 2),
        (3, 1, 5, 5, 2),
        (3, 2, 3, 0, 1),
        (3, 1, 5, 2, 3),
    ])
    def test_paths_match_bruteforce_oracle(self, kernel, stride, dilation, padding, batch):
        rng = np.random.default_rng(1000 * kernel + 100 * stride + 10 * dilation + padding)
        spec = LayerSpec(kernel, stride, dilation, padding, in_channels=4, out_channels=5)
        p = ConvParams(spec, rng.normal(size=(5, 4, kernel, kernel)), rng.normal(size=5))
        # a channel group of a wider map, as rfm_forward splits it
        x = TensorNCHW(rng.normal(size=(batch, 12, 13, 11))[:, 4:8])
        before = x.data.copy()
        got = conv2d(x, p)
        assert got.shape == (batch, 5, conv_output_size(13, kernel, stride, dilation, padding),
                             conv_output_size(11, kernel, stride, dilation, padding))
        np.testing.assert_allclose(got.data, conv2d_bruteforce(x, p), atol=1e-10)
        np.testing.assert_array_equal(x.data, before)

    def test_random_5x5_against_oracle(self):
        rng = np.random.default_rng(42)
        spec = LayerSpec(3, 1, 1, 1, in_channels=2, out_channels=2)
        p = ConvParams(spec, rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2))
        x = TensorNCHW(rng.normal(size=(1, 2, 5, 5)))
        np.testing.assert_allclose(conv2d(x, p).data, conv2d_bruteforce(x, p), atol=1e-10)


@pytest.fixture(scope="class")
def small_cols(request):
    """``conv2d`` with im2col blocks of at most ``request.param`` elements:
    1 builds one output row at a time (one row already exceeds it), and
    1,000 splits most of the oracle cases' rows into blocks of unequal
    size: 8 rows as 5 + 3, 7 as 4 + 3 or 5 + 2, 13 as six of 2 and one."""
    saved = tensor.COLS_BUDGET
    tensor.COLS_BUDGET = request.param
    yield
    tensor.COLS_BUDGET = saved


@pytest.mark.usefixtures("small_cols")
@pytest.mark.parametrize("small_cols", [1, 1000], ids=lambda budget: f"budget{budget}", indirect=True)
class TestConv2dInSmallBlocks(TestConv2d):
    pass


class TestConvMemory:
    def test_workspace_bounded_by_budget(self):
        """Batch 4, 256 -> 512 channels, 3x3 at 40x40: one im2col matrix for
        the whole batch would be 113 MiB. The columns are built one image
        and one block of rows at a time, so the peak is the output, one
        padded image and one block of ``COLS_BUDGET`` elements."""
        rng = np.random.default_rng(0)
        p = ConvParams.seeded(LayerSpec(3, 1, 1, 1, in_channels=256, out_channels=512), 0)
        x = TensorNCHW(rng.uniform(-1.0, 1.0, (4, 256, 40, 40)))
        output, padded_image = 4 * 512 * 40 * 40 * 8, 256 * 42 * 42 * 8
        tracemalloc.start()
        try:
            conv2d(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < output + padded_image + tensor.COLS_BUDGET * 8 + 2 * 2**20


class TestResampling:
    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_bilinear_constant_passthrough_exact(self, c):
        x = TensorNCHW(np.full((1, 2, 3, 3), c))
        up = bilinear_resize(x, 6, 6)
        assert np.all(up.data == c)

    def test_avg_pool_2x2(self):
        x = TensorNCHW(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = adaptive_avg_pool(x, 1, 1)
        assert out.data[0, 0, 0, 0] == 2.5

    def test_adaptive_pool_nondivisible(self):
        x = TensorNCHW(np.arange(25, dtype=float).reshape(1, 1, 5, 5))
        out = adaptive_avg_pool(x, 3, 3)
        assert out.shape == (1, 1, 3, 3)
        # first bin: rows 0..ceil(5/3)=2, cols 0..2
        np.testing.assert_allclose(out.data[0, 0, 0, 0], x.data[0, 0, :2, :2].mean())

    @given(st.integers(-50, 50), st.integers(1, 4))
    def test_upsample_then_matching_pool_reproduces_constant_exactly(self, c, factor):
        # dyadic constants keep every sum exact regardless of bin order
        value = c / 8.0
        x = TensorNCHW(np.full((1, 1, 4, 4), value))
        up = bilinear_resize(x, 4 * factor, 4 * factor)
        back = adaptive_avg_pool(up, 4, 4)
        assert np.all(back.data == value)

    def test_bilinear_interpolates_halfway(self):
        x = TensorNCHW(np.array([[0.0, 1.0]]).reshape(1, 1, 1, 2))
        up = bilinear_resize(x, 1, 4)
        np.testing.assert_allclose(up.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0])


class TestRfm:
    def test_shape_preserved(self):
        w = init_rfm_weights(256, seed=0)
        x = TensorNCHW(np.random.default_rng(0).normal(size=(1, 256, 10, 10)))
        out = rfm_forward(x, w)
        assert out.shape == (1, 256, 10, 10)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            init_rfm_weights(10)

    def test_identity_path_wiring(self):
        # identity 1x1s and zero elsewhere: block 1 of the output is X1
        ch = 8
        w = init_rfm_weights(ch, seed=0)
        w.conv_in.weight[:] = np.eye(ch).reshape(ch, ch, 1, 1)
        w.conv_in.bias[:] = 0.0
        w.conv_out.weight[:] = np.eye(ch).reshape(ch, ch, 1, 1)
        w.conv_out.bias[:] = 0.0
        for p in (w.conv_d1, w.conv_d3, w.conv_d5):
            p.weight[:] = 0.0
            p.bias[:] = 0.0
        x = TensorNCHW(np.random.default_rng(1).normal(size=(2, ch, 6, 6)))
        out = rfm_forward(x, w)
        np.testing.assert_allclose(out.data[:, : ch // 4], x.data[:, : ch // 4], atol=1e-12)
        np.testing.assert_allclose(out.data[:, ch // 4 :], 0.0, atol=1e-12)

    def test_dilation_ladder_wiring(self):
        # a probe through X2->Y2->Y3->Y4 must traverse d=1, d=3, d=5 convs:
        # receptive influence reaches exactly 1+2*(1+3+5)=19 pixels wide
        ch = 8
        w = init_rfm_weights(ch, seed=0)
        w.conv_in.weight[:] = np.eye(ch).reshape(ch, ch, 1, 1)
        for p in (w.conv_d1, w.conv_d3, w.conv_d5):
            p.weight[:] = 0.0
            for c in range(p.spec.in_channels):
                p.weight[c, c] = 1.0  # full 3x3 ones per channel
        w.conv_out.weight[:] = 0.0
        q = ch // 4
        for c in range(q):
            w.conv_out.weight[c, 3 * q + c] = 1.0  # expose Y4 block
        x = TensorNCHW(np.zeros((1, ch, 41, 41)))
        x.data[0, q, 20, 20] = 1.0  # impulse in the X2 group
        out = rfm_forward(x, w)
        row = out.data[0, 0, 20]
        nonzero = np.nonzero(row)[0]
        assert nonzero.min() == 20 - 9 and nonzero.max() == 20 + 9

    def test_rf_growth_matches_analyzer(self):
        state = INITIAL_STATE
        for d in (1, 3, 5):
            state = propagate(state, LayerSpec(3, dilation=d))
        assert state.receptive_field == 1 + 18 * INITIAL_STATE.jump

    def test_parameter_count_matches_closed_form(self):
        ch = 16
        w = init_rfm_weights(ch, seed=3)
        q = ch // 4
        want = ch * ch + 3 * (9 * q * q) + ch * ch
        assert w.parameter_count == want
        convs = [w.conv_in, w.conv_d1, w.conv_d3, w.conv_d5, w.conv_out]
        assert w.parameter_count == sum(p.spec.parameters for p in convs)


class TestTwoWayFpn:
    def _pyramid(self, sizes, ch, rng):
        return [TensorNCHW(rng.normal(size=(1, ch, s, s))) for s in sizes]

    def test_full_pyramid_contract(self):
        rng = np.random.default_rng(0)
        sizes = [40, 20, 10, 5, 3, 1]
        maps = self._pyramid(sizes, 8, rng)
        shallow = TensorNCHW(rng.normal(size=(1, 4, 80, 80)))
        w = init_two_way_fpn_weights([8] * 6, 4, flow_channels=6, out_channels=12, seed=0)
        outs = two_way_fpn_forward(maps, shallow, w)
        assert [o.shape for o in outs] == [(1, 12, s, s) for s in sizes]

    def test_default_channel_contract(self):
        rng = np.random.default_rng(1)
        sizes = [10, 5, 3, 1]
        maps = self._pyramid(sizes, 16, rng)
        shallow = TensorNCHW(rng.normal(size=(1, 8, 20, 20)))
        w = init_two_way_fpn_weights([16] * 4, 8, seed=0)
        outs = two_way_fpn_forward(maps, shallow, w)
        assert all(o.c == 512 for o in outs)

    def test_nonmonotonic_pyramid_rejected(self):
        rng = np.random.default_rng(2)
        maps = self._pyramid([8, 8], 4, rng)
        shallow = TensorNCHW(rng.normal(size=(1, 4, 16, 16)))
        w = init_two_way_fpn_weights([4, 4], 4, flow_channels=4, out_channels=4)
        with pytest.raises(ValueError):
            two_way_fpn_forward(maps, shallow, w)

    @pytest.mark.parametrize("map_batches,shallow_batch", [([1, 2], 1), ([2, 2], 1), ([1, 1], 2)])
    def test_mixed_batch_sizes_rejected(self, map_batches, shallow_batch):
        # a batch-1 map would otherwise broadcast against batch-2 ones
        rng = np.random.default_rng(2)
        maps = [TensorNCHW(rng.normal(size=(n, 4, s, s))) for n, s in zip(map_batches, [8, 4])]
        shallow = TensorNCHW(rng.normal(size=(shallow_batch, 4, 16, 16)))
        w = init_two_way_fpn_weights([4, 4], 4, flow_channels=4, out_channels=4)
        with pytest.raises(ValueError, match=r"share one batch size, got \[" + ", ".join(map(str, map_batches))):
            two_way_fpn_forward(maps, shallow, w)

    def test_shallow_smaller_than_first_level_rejected(self):
        rng = np.random.default_rng(3)
        maps = self._pyramid([8, 4], 4, rng)
        shallow = TensorNCHW(rng.normal(size=(1, 4, 4, 4)))
        w = init_two_way_fpn_weights([4, 4], 4, flow_channels=4, out_channels=4)
        with pytest.raises(ValueError):
            two_way_fpn_forward(maps, shallow, w)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 5))
    def test_property_sweep_shapes(self, n_levels, batch, seed):
        rng = np.random.default_rng(seed)
        sizes = sorted(rng.choice(np.arange(2, 17), size=n_levels, replace=False))[::-1]
        ch = 4
        maps = [TensorNCHW(rng.normal(size=(batch, ch, s, s))) for s in sizes]
        shallow = TensorNCHW(rng.normal(size=(batch, ch, int(sizes[0]) * 2, int(sizes[0]) * 2)))
        w = init_two_way_fpn_weights([ch] * n_levels, ch, flow_channels=4, out_channels=6, seed=seed)
        outs = two_way_fpn_forward(maps, shallow, w)
        assert [o.shape for o in outs] == [(batch, 6, int(s), int(s)) for s in sizes]

    def test_peak_memory_holds_one_pyramid(self):
        """The bench's sizes at 256-channel flows: levels of 40, 20, 10, 5,
        3 and 1 pixels and an 80x80 shallow map. Both flows add into the
        lateral maps in place, so the peak is the laterals, the shallow
        map's projection and the two arrays of its first pooling to 40x40
        (row sums, then the pooled map). Inputs and outputs are narrow, so
        the conversions stay below that peak."""
        rng = np.random.default_rng(0)
        flow, sizes, side = 256, [40, 20, 10, 5, 3, 1], 80
        maps = self._pyramid(sizes, 8, rng)
        shallow = TensorNCHW(rng.normal(size=(1, 8, side, side)))
        w = init_two_way_fpn_weights([8] * len(sizes), 8, flow_channels=flow, out_channels=8, seed=0)
        laterals = flow * sum(s * s for s in sizes) * 8
        projection = flow * side * side * 8
        first_pooling = flow * sizes[0] * side * 8 + flow * sizes[0] * sizes[0] * 8
        tracemalloc.start()
        try:
            two_way_fpn_forward(maps, shallow, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < laterals + projection + first_pooling + 2**20

    def test_deterministic_seeded_init(self):
        a = init_two_way_fpn_weights([8, 8], 4, flow_channels=4, out_channels=4, seed=9)
        b = init_two_way_fpn_weights([8, 8], 4, flow_channels=4, out_channels=4, seed=9)
        np.testing.assert_array_equal(a.lateral[0].weight, b.lateral[0].weight)
        assert np.all(np.abs(a.lateral[0].weight) <= 0.05)
