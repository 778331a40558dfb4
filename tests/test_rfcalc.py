import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from detkit.rfcalc import (
    BUILTIN_CHAINS,
    CHAIN_SCHEMA,
    INITIAL_STATE,
    LayerSpec,
    RFState,
    VGG16_CONV4_3_STATE,
    analyze_builtin,
    analyze_chain,
    basic_map_rfs,
    chain_from_json,
    expansion_ratios,
    propagate,
    ratio_spread,
)

GOLDEN = Path(__file__).parent / "golden"

layer_st = st.builds(
    LayerSpec,
    kernel=st.integers(1, 7),
    stride=st.integers(1, 3),
    dilation=st.integers(1, 6),
    padding=st.integers(0, 6),
    in_channels=st.integers(1, 64),
    out_channels=st.integers(1, 64),
)


class TestLayerSpec:
    @pytest.mark.parametrize("kwargs", [{"kernel": 0}, {"stride": 0}, {"dilation": 0}, {"padding": -1},
                                        {"in_channels": 0}, {"kind": "fc"}],
                             ids=["kernel", "stride", "dilation", "padding", "in_channels", "kind"])
    def test_out_of_range_field_rejected(self, kwargs):
        # a negative padding would fail later, inside the graph's conv2d np.pad
        with pytest.raises(ValueError):
            LayerSpec(**{"kernel": 3, **kwargs})


class TestPropagate:
    def test_textbook_3x3(self):
        s = propagate(INITIAL_STATE, LayerSpec(3))
        assert (s.receptive_field, s.jump) == (3, 1)

    def test_dilation_2(self):
        s = propagate(INITIAL_STATE, LayerSpec(3, dilation=2))
        assert s.receptive_field == 5

    def test_stride_scales_jump(self):
        s = propagate(RFState(5, 2), LayerSpec(3, stride=2))
        assert (s.receptive_field, s.jump) == (5 + 2 * 2, 4)

    @given(st.integers(1, 8), st.integers(1, 100))
    def test_dilation_chain_1_3_5_adds_18j(self, j, r):
        state = RFState(r, j)
        for d in (1, 3, 5):
            state = propagate(state, LayerSpec(3, dilation=d))
        assert state.receptive_field == r + 18 * j
        assert state.jump == j

    @given(st.lists(layer_st, min_size=1, max_size=8), st.lists(layer_st, min_size=1, max_size=8))
    def test_chain_composition_associative(self, first, second):
        joint = analyze_chain(INITIAL_STATE, first + second)
        part1 = analyze_chain(INITIAL_STATE, first)
        part2 = analyze_chain(part1.states[-1], second)
        assert joint.states[-1] == part2.states[-1]
        assert joint.total_parameters == part1.total_parameters + part2.total_parameters

    @given(layer_st, st.integers(1, 4), st.integers(1, 6))
    def test_dilation_and_stride_add_no_parameters(self, layer, stride, dilation):
        from dataclasses import replace

        base = layer.parameters
        assert replace(layer, stride=stride).parameters == base
        assert replace(layer, dilation=dilation).parameters == base


class TestAnalyzeChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            analyze_chain(INITIAL_STATE, [])

    def test_dilated_substitution_halves_parameters_at_equal_rf(self):
        c = 16
        two_convs = [LayerSpec(3, in_channels=c, out_channels=c), LayerSpec(3, in_channels=c, out_channels=c)]
        one_dilated = [LayerSpec(3, dilation=2, in_channels=c, out_channels=c)]
        a = analyze_chain(RFState(9, 2), two_convs)
        b = analyze_chain(RFState(9, 2), one_dilated)
        assert a.states[-1].receptive_field == b.states[-1].receptive_field == 9 + 4 * 2
        assert a.total_parameters == 18 * c * c
        assert b.total_parameters == 9 * c * c
        assert a.total_parameters == 2 * b.total_parameters

    def test_pool_layers_add_no_parameters(self):
        chain = [LayerSpec(2, 2, in_channels=8, out_channels=8, kind="pool")]
        assert analyze_chain(INITIAL_STATE, chain).total_parameters == 0


class TestBuiltinChains:
    @pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
    def test_matches_golden_table(self, name):
        analysis, _ = analyze_builtin(name)
        assert analysis.to_csv() == (GOLDEN / f"rf_{name}.csv").read_text()

    def test_ssd_expansion_is_front_loaded(self):
        _, rfs = analyze_builtin("ssd_extra")
        ratios = expansion_ratios(rfs)
        # the first hop dwarfs the later ones
        assert ratios[0] > 2.0 * max(ratios[1:])

    def test_dilated_expands_evenly_within_factor_1_5(self):
        _, rfs = analyze_builtin("dilated_extra")
        ratios = expansion_ratios(rfs)
        assert ratio_spread(ratios) < 1.5

    def test_dilated_spread_strictly_smaller(self):
        _, rfs_a = analyze_builtin("ssd_extra")
        _, rfs_b = analyze_builtin("dilated_extra")
        assert ratio_spread(expansion_ratios(rfs_b)) < ratio_spread(expansion_ratios(rfs_a))

    def test_starts_from_conv4_3_state(self):
        assert VGG16_CONV4_3_STATE == RFState(92, 8)


class TestChainJson:
    def test_roundtrip_document(self):
        doc = {
            "initial": {"receptive_field": 92, "jump": 8},
            "layers": [
                {"name": "a", "kernel": 3, "stride": 2, "dilation": 2, "padding": 2,
                 "in_channels": 4, "out_channels": 8},
                {"kernel": 2, "stride": 2, "kind": "pool"},
            ],
        }
        initial, layers = chain_from_json(json.dumps(doc))
        assert initial == RFState(92, 8)
        assert layers[0].name == "a" and layers[0].dilation == 2
        assert layers[1].kind == "pool" and layers[1].name == "layer1"

    def test_schema_names_the_dataclass_fields(self):
        props = CHAIN_SCHEMA["properties"]
        assert set(props["initial"]["properties"]) == {f.name for f in fields(RFState)}
        assert set(props["layers"]["items"]["properties"]) == {f.name for f in fields(LayerSpec)}

    def test_default_initial_state(self):
        initial, _ = chain_from_json(json.dumps({"layers": [{"kernel": 3}]}))
        assert initial == INITIAL_STATE
