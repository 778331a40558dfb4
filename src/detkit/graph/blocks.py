"""Forward graphs of the two feature-enhancement blocks.

The receptive-field expansion block converts the input with a 1x1 conv,
splits it into four channel groups, and grows the receptive field
group-by-group with 3x3 convolutions at dilations 1, 3, 5 in a separated
residual pattern before a 1x1 integration:

    Y1 = X1
    Y2 = conv3x3,d1(X2)
    Y3 = conv3x3,d3(Y2 + X3)
    Y4 = conv3x3,d5(Y3 + X4)

The two-way pyramid combines a downward semantic flow (top-down from the
deepest of the four shallowest levels, bilinear up-sampling) with an
upward local flow (average-pooled from a shallow backbone map, reaching
all six levels); the two deepest levels receive only the local flow plus
their own projection. Flows run at 256 channels and each level ends in a
3x3 conversion to 512 channels by default.

The local flow pools the shallow map to the first level's size before
its 1x1 projection, not after. A 1x1 conv maps each pixel on its own by
one affine map, and an average of affine images is the affine image of
the average (the bias averages to itself), so in real arithmetic the two
orders agree; in floating point they differ by rounding only. Pooling
first runs the projection on the first level's pixels, not the shallow
map's, and never holds a flow-wide map of the shallow map's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rfcalc import LayerSpec
from .tensor import ConvParams, TensorNCHW, adaptive_avg_pool, bilinear_resize, conv2d

SEMANTIC_FLOW_LEVELS = 4  # levels fed by the downward flow


def _conv_spec(k: int, cin: int, cout: int, dilation: int = 1, name: str = "") -> LayerSpec:
    pad = dilation * (k - 1) // 2  # spatial-size preserving
    return LayerSpec(k, 1, dilation, pad, cin, cout, name)


@dataclass
class RfmWeights:
    conv_in: ConvParams
    conv_d1: ConvParams
    conv_d3: ConvParams
    conv_d5: ConvParams
    conv_out: ConvParams


def init_rfm_weights(channels: int, seed: int = 0) -> RfmWeights:
    """Seeded weights; ``channels`` is both input and output width and must
    split into four groups."""
    if channels % 4 != 0:
        raise ValueError(f"channels must be divisible by 4, got {channels}")
    q = channels // 4
    return RfmWeights(
        conv_in=ConvParams.seeded(_conv_spec(1, channels, channels, name="rfm_in"), seed),
        conv_d1=ConvParams.seeded(_conv_spec(3, q, q, 1, "rfm_d1"), seed + 1),
        conv_d3=ConvParams.seeded(_conv_spec(3, q, q, 3, "rfm_d3"), seed + 2),
        conv_d5=ConvParams.seeded(_conv_spec(3, q, q, 5, "rfm_d5"), seed + 3),
        conv_out=ConvParams.seeded(_conv_spec(1, channels, channels, name="rfm_out"), seed + 4),
    )


def rfm_forward(x: TensorNCHW, weights: RfmWeights) -> TensorNCHW:
    """Run the receptive-field expansion block; spatial dims are preserved."""
    converted = conv2d(x, weights.conv_in)
    if converted.c % 4 != 0:
        raise ValueError(f"converted channels {converted.c} not divisible by 4")
    q = converted.c // 4
    x1, x2, x3, x4 = (TensorNCHW(converted.data[:, i * q : (i + 1) * q]) for i in range(4))

    y1 = x1
    y2 = conv2d(x2, weights.conv_d1)
    y3 = conv2d(TensorNCHW(y2.data + x3.data), weights.conv_d3)
    y4 = conv2d(TensorNCHW(y3.data + x4.data), weights.conv_d5)
    merged = TensorNCHW(np.concatenate([y1.data, y2.data, y3.data, y4.data], axis=1))
    return conv2d(merged, weights.conv_out)


@dataclass
class TwoWayFpnWeights:
    lateral: list[ConvParams]  # per level, 1x1 to flow channels
    shallow_proj: ConvParams  # 1x1 on the shallow map
    convert: list[ConvParams]  # per level, 3x3 to output channels


def init_two_way_fpn_weights(
    level_channels: list[int],
    shallow_channels: int,
    flow_channels: int = 256,
    out_channels: int = 512,
    seed: int = 0,
) -> TwoWayFpnWeights:
    lateral = [
        ConvParams.seeded(_conv_spec(1, c, flow_channels, name=f"lateral{i+1}"), seed + i)
        for i, c in enumerate(level_channels)
    ]
    shallow = ConvParams.seeded(_conv_spec(1, shallow_channels, flow_channels, name="shallow_proj"), seed + 100)
    convert = [
        ConvParams.seeded(_conv_spec(3, flow_channels, out_channels, name=f"convert{i+1}"), seed + 200 + i)
        for i in range(len(level_channels))
    ]
    return TwoWayFpnWeights(lateral, shallow, convert)


def two_way_fpn_forward(
    basic_maps: list[TensorNCHW],
    shallow_map: TensorNCHW,
    weights: TwoWayFpnWeights,
) -> list[TensorNCHW]:
    """Combine the semantic and local flows into one output per level.

    ``basic_maps`` must be spatially strictly decreasing, and they and
    ``shallow_map`` must share one batch size; outputs keep the input
    resolutions at the conversion convs' out_channels. Both flows add into
    the lateral maps in place: the semantic flow first, deepest level
    first, so each level up-samples its deeper neighbour after that one
    took its own semantic sum; then the local flow, shallowest first. The
    shallow map is pooled to the first level before its projection, which
    equals projecting first up to rounding (see the module docstring).
    """
    n_levels = len(basic_maps)
    if n_levels != len(weights.lateral) or n_levels != len(weights.convert):
        raise ValueError("weights do not match the number of levels")
    sizes = [(m.h, m.w) for m in basic_maps]
    for (h0, w0), (h1, w1) in zip(sizes, sizes[1:]):
        if not (h1 < h0 and w1 < w0):
            raise ValueError(f"pyramid sizes must strictly decrease, got {sizes}")
    batches = [m.n for m in basic_maps] + [shallow_map.n]
    if len(set(batches)) > 1:
        raise ValueError(f"basic maps and the shallow map must share one batch size, got {batches}")

    levels = [conv2d(m, w) for m, w in zip(basic_maps, weights.lateral)]

    # downward semantic flow over the shallowest SEMANTIC_FLOW_LEVELS levels
    for lv in range(min(SEMANTIC_FLOW_LEVELS, n_levels) - 2, -1, -1):
        levels[lv].data += bilinear_resize(levels[lv + 1], levels[lv].h, levels[lv].w).data

    # upward local flow: the shallow map pooled to the first level and
    # projected there, then pooled on level by level
    first = levels[0]
    if shallow_map.h < first.h or shallow_map.w < first.w:
        raise ValueError("shallow map must be at least as large as the first level")
    flow = conv2d(adaptive_avg_pool(shallow_map, first.h, first.w), weights.shallow_proj)
    first.data += flow.data
    for level in levels[1:]:
        flow = adaptive_avg_pool(flow, level.h, level.w)
        level.data += flow.data

    return [conv2d(level, w) for level, w in zip(levels, weights.convert)]
