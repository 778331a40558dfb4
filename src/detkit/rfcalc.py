"""Receptive-field and parameter arithmetic for convolution chains.

Propagation follows the standard recurrence r' = r + (k-1)*d*j,
j' = j*s, where r is the receptive field in input pixels and j the input
spacing between adjacent output cells. Two built-in chains reproduce the
extra-layer comparison between the original SSD design and the
dilation-2 redesign; both start from the VGG16 conv4_3 state (r=92, j=8)
of a 320-pixel input. Poolings appear as zero-parameter layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .fileio import csv_text
from .schema import check

CHAIN_SCHEMA = json.loads((Path(__file__).parent / "rf_chain_schema.json").read_text())


@dataclass(frozen=True)
class LayerSpec:
    """Convolution (or pooling) hyper-parameters."""

    kernel: int
    stride: int = 1
    dilation: int = 1
    padding: int = 0
    in_channels: int = 1
    out_channels: int = 1
    name: str = ""
    kind: str = "conv"  # "conv" | "pool"

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.dilation < 1:
            raise ValueError("kernel, stride, dilation must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channels must be >= 1")
        if self.kind not in ("conv", "pool"):
            raise ValueError(f"unknown layer kind {self.kind!r}")

    @property
    def parameters(self) -> int:
        """Weight count k^2 * in * out; dilation and stride add nothing,
        poolings have none."""
        if self.kind == "pool":
            return 0
        return self.kernel * self.kernel * self.in_channels * self.out_channels


@dataclass(frozen=True)
class RFState:
    receptive_field: int
    jump: int

    def __post_init__(self):
        if self.receptive_field < 1 or self.jump < 1:
            raise ValueError("receptive field and jump must be >= 1")


INITIAL_STATE = RFState(1, 1)
VGG16_CONV4_3_STATE = RFState(92, 8)


def propagate(state: RFState, layer: LayerSpec) -> RFState:
    """Push an RF state through one layer."""
    return RFState(
        state.receptive_field + (layer.kernel - 1) * layer.dilation * state.jump,
        state.jump * layer.stride,
    )


@dataclass(frozen=True)
class ChainAnalysis:
    initial: RFState
    layers: tuple[LayerSpec, ...]
    states: tuple[RFState, ...]  # one per layer, post-propagation
    cumulative_parameters: tuple[int, ...]

    @property
    def total_parameters(self) -> int:
        return self.cumulative_parameters[-1] if self.cumulative_parameters else 0

    def to_csv(self) -> str:
        return csv_text(
            ["name", "kind", "kernel", "stride", "dilation", "padding",
             "in_channels", "out_channels", "rf", "jump", "params", "cum_params"],
            list(zip(*(
                (layer.name, layer.kind, layer.kernel, layer.stride, layer.dilation,
                 layer.padding, layer.in_channels, layer.out_channels,
                 state.receptive_field, state.jump, layer.parameters, cum)
                for layer, state, cum in zip(self.layers, self.states, self.cumulative_parameters)
            ))),
        )


def analyze_chain(initial: RFState, layers: list[LayerSpec]) -> ChainAnalysis:
    """Running RF states plus the cumulative parameter count of a chain."""
    if not layers:
        raise ValueError("layer chain must be non-empty")
    states = []
    cum = []
    state = initial
    total = 0
    for layer in layers:
        state = propagate(state, layer)
        total += layer.parameters
        states.append(state)
        cum.append(total)
    return ChainAnalysis(initial, tuple(layers), tuple(states), tuple(cum))


def expansion_ratios(rfs: list[int]) -> list[float]:
    """Consecutive receptive-field growth ratios of marked feature maps."""
    return [rfs[i + 1] / rfs[i] for i in range(len(rfs) - 1)]


def ratio_spread(ratios: list[float]) -> float:
    return max(ratios) / min(ratios)


# Original SSD extra layers (with the VGG conv5 block and atrous fc6 that
# produce the second basic map). Marked maps: fc7, conv6_2, conv7_2.
SSD_EXTRA_LAYERS = [
    LayerSpec(2, 2, 1, 0, 512, 512, "pool4", "pool"),
    LayerSpec(3, 1, 1, 1, 512, 512, "conv5_1"),
    LayerSpec(3, 1, 1, 1, 512, 512, "conv5_2"),
    LayerSpec(3, 1, 1, 1, 512, 512, "conv5_3"),
    LayerSpec(3, 1, 1, 1, 512, 512, "pool5", "pool"),
    LayerSpec(3, 1, 6, 6, 512, 1024, "fc6"),
    LayerSpec(1, 1, 1, 0, 1024, 1024, "fc7"),
    LayerSpec(1, 1, 1, 0, 1024, 256, "conv6_1"),
    LayerSpec(3, 2, 1, 1, 256, 512, "conv6_2"),
    LayerSpec(1, 1, 1, 0, 512, 128, "conv7_1"),
    LayerSpec(3, 2, 1, 1, 128, 256, "conv7_2"),
]
SSD_EXTRA_MARKS = ("fc7", "conv6_2", "conv7_2")

# Dilation-2 redesign: each downsampling stage is a 1x1 reduction followed
# by a stride-2 3x3 dilation-2 convolution, giving near-uniform RF growth
# at a fraction of the parameters. Marked maps: the three dilated convs.
DILATED_EXTRA_LAYERS = [
    LayerSpec(1, 1, 1, 0, 512, 256, "conv5_r"),
    LayerSpec(3, 2, 2, 2, 256, 512, "conv5_d"),
    LayerSpec(1, 1, 1, 0, 512, 128, "conv6_r"),
    LayerSpec(3, 2, 2, 2, 128, 256, "conv6_d"),
    LayerSpec(1, 1, 1, 0, 256, 128, "conv7_r"),
    LayerSpec(3, 2, 2, 2, 128, 256, "conv7_d"),
]
DILATED_EXTRA_MARKS = ("conv5_d", "conv6_d", "conv7_d")

BUILTIN_CHAINS = {
    "ssd_extra": (SSD_EXTRA_LAYERS, SSD_EXTRA_MARKS),
    "dilated_extra": (DILATED_EXTRA_LAYERS, DILATED_EXTRA_MARKS),
}


def basic_map_rfs(analysis: ChainAnalysis, marks: tuple[str, ...]) -> list[int]:
    """RFs of the initial map plus each marked layer, in chain order."""
    rfs = [analysis.initial.receptive_field]
    by_name = {l.name: s for l, s in zip(analysis.layers, analysis.states)}
    for name in marks:
        rfs.append(by_name[name].receptive_field)
    return rfs


def analyze_builtin(name: str) -> tuple[ChainAnalysis, list[int]]:
    """Analyze one of the shipped chains from the conv4_3 state; returns
    the analysis and the basic-map RF sequence."""
    layers, marks = BUILTIN_CHAINS[name]
    analysis = analyze_chain(VGG16_CONV4_3_STATE, layers)
    return analysis, basic_map_rfs(analysis, marks)


def chain_from_json(text: str) -> tuple[RFState, list[LayerSpec]]:
    """Parse a layer-chain document that meets ``rf_chain_schema.json``;
    an omitted field takes the default the schema names."""
    doc = json.loads(text)
    check(doc, CHAIN_SCHEMA, "chain")
    layers = [LayerSpec(**{"name": f"layer{i}", **spec}) for i, spec in enumerate(doc["layers"])]
    return replace(INITIAL_STATE, **doc.get("initial", {})), layers
