"""Dense NCHW tensors with strided/dilated convolution, bilinear resize,
and adaptive average pooling.

Convolution lowers to im2col one image and one block of output rows at
a time, with one BLAS matrix product per block, so its column workspace
is bounded by ``COLS_BUDGET`` whatever the batch and map size; plain 1x1
convs (stride 1, no padding) skip im2col and read the input directly,
without a copy.

Conventions are pinned for bit-reproducibility: convolution is
cross-correlation with the usual floor output formula; bilinear resize
uses half-pixel source centers with edge clamping, computed in lerp form
(v0 + w*(v1-v0)) so constant maps pass through exactly; pooling bins
follow floor(i*H/out) .. ceil((i+1)*H/out), which reduces to plain k x k
averaging when sizes divide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..rfcalc import LayerSpec


@dataclass
class TensorNCHW:
    """A 4-D float64 array (batch, channels, height, width)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 4 or min(self.data.shape) < 1:
            raise ValueError(f"need a 4-D NCHW array with positive dims, got shape {self.data.shape}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass
class ConvParams:
    """Layer hyper-parameters plus the weight (out, in, k, k) and bias (out,)."""

    spec: LayerSpec
    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        k, cin, cout = self.spec.kernel, self.spec.in_channels, self.spec.out_channels
        if self.weight.shape != (cout, cin, k, k):
            raise ValueError(f"weight shape {self.weight.shape} inconsistent with spec {(cout, cin, k, k)}")
        if self.bias.shape != (cout,):
            raise ValueError(f"bias shape {self.bias.shape} != ({cout},)")

    @classmethod
    def seeded(cls, spec: LayerSpec, seed: int) -> "ConvParams":
        """Deterministic uniform [-0.05, 0.05] weights with zero bias."""
        rng = np.random.default_rng(seed)
        k, cin, cout = spec.kernel, spec.in_channels, spec.out_channels
        return cls(spec, rng.uniform(-0.05, 0.05, (cout, cin, k, k)), np.zeros(cout))


# Largest im2col block of conv2d, in float64 elements (8 MiB)
COLS_BUDGET = 2**20


def conv_output_size(size: int, kernel: int, stride: int, dilation: int, padding: int) -> int:
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def conv2d(x: TensorNCHW, p: ConvParams) -> TensorNCHW:
    """Strided, dilated 2-D cross-correlation (im2col over numpy matmul).

    The (out, c*k*k) weight matrix multiplies (c*k*k, pixels) column
    matrices on BLAS. For a plain 1x1 conv (stride 1, no padding) the
    input reshaped to (n, c, h*w) already is that matrix, so no columns
    are built. Every other conv pads one image at a time and builds its
    columns for as many output rows as fit in ``COLS_BUDGET`` elements
    (at least one row) in one buffer reused from block to block.
    """
    spec = p.spec
    if x.c != spec.in_channels:
        raise ValueError(f"channel mismatch: input has {x.c}, conv expects {spec.in_channels}")
    k, s, d, pad = spec.kernel, spec.stride, spec.dilation, spec.padding
    ho = conv_output_size(x.h, k, s, d, pad)
    wo = conv_output_size(x.w, k, s, d, pad)
    if ho < 1 or wo < 1:
        raise ValueError(f"conv reduces {x.h}x{x.w} below 1x1")

    n, c, cout = x.n, x.c, spec.out_channels
    w2d = p.weight.reshape(cout, c * k * k)
    if k == 1 and s == 1 and pad == 0:
        out = np.matmul(w2d, x.data.reshape(n, c, ho * wo))
        out += p.bias[None, :, None]
        return TensorNCHW(out.reshape(n, cout, ho, wo))

    out = np.empty((n, cout, ho * wo))
    block = min(ho, max(1, COLS_BUDGET // (c * k * k * wo)))
    buffer = np.empty(c * k * k * block * wo)
    padded = None
    for b in range(n):
        del padded  # the last image's padded copy goes before the next one is made
        padded = np.pad(x.data[b], ((0, 0), (pad, pad), (pad, pad)))
        for r0 in range(0, ho, block):
            rows = min(block, ho - r0)
            cols = buffer[: c * k * k * rows * wo].reshape(c, k, k, rows, wo)
            for i in range(k):
                for j in range(k):
                    ri, cj = i * d + s * r0, j * d
                    cols[:, i, j] = padded[:, ri : ri + s * rows : s, cj : cj + s * wo : s]
            dest = out[b, :, r0 * wo : (r0 + rows) * wo]
            np.matmul(w2d, cols.reshape(c * k * k, rows * wo), out=dest)
            dest += p.bias[:, None]
    return TensorNCHW(out.reshape(n, cout, ho, wo))


def bilinear_resize(x: TensorNCHW, out_h: int, out_w: int) -> TensorNCHW:
    """Resize with half-pixel centers and edge clamping."""
    if out_h < 1 or out_w < 1:
        raise ValueError("target size must be positive")
    src_y = np.clip((np.arange(out_h) + 0.5) * (x.h / out_h) - 0.5, 0.0, x.h - 1.0)
    src_x = np.clip((np.arange(out_w) + 0.5) * (x.w / out_w) - 0.5, 0.0, x.w - 1.0)
    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    y1 = np.minimum(y0 + 1, x.h - 1)
    x1 = np.minimum(x0 + 1, x.w - 1)
    wy = (src_y - y0)[None, None, :, None]
    wx = (src_x - x0)[None, None, None, :]

    # lerp along x once per source row; rows y0 and y1 then share it
    row = _lerp_into(np.take(x.data, x0, axis=3), np.take(x.data, x1, axis=3), wx)
    return TensorNCHW(_lerp_into(np.take(row, y0, axis=2), np.take(row, y1, axis=2), wy))


def _lerp_into(v0: np.ndarray, v1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v0 + w*(v1-v0), bit for bit, computed in place in v0 (v1 is spent)."""
    v1 -= v0
    v1 *= w
    v0 += v1
    return v0


def adaptive_avg_pool(x: TensorNCHW, out_h: int, out_w: int) -> TensorNCHW:
    """Average pooling to a target size; bin (i) spans
    floor(i*H/out) .. ceil((i+1)*H/out)."""
    if out_h < 1 or out_w < 1:
        raise ValueError("target size must be positive")
    if x.h % out_h == 0 and x.w % out_w == 0:
        # sum row taps, then column taps, as strided views: a mean over the
        # two non-contiguous axes of a 6-D reshape is about 3x slower
        kh, kw = x.h // out_h, x.w // out_w
        rows = np.zeros((x.n, x.c, out_h, x.w))
        for i in range(kh):
            rows += x.data[:, :, i::kh]
        out = np.zeros((x.n, x.c, out_h, out_w))
        for j in range(kw):
            out += rows[:, :, :, j::kw]
        out /= kh * kw
        return TensorNCHW(out)
    out = np.empty((x.n, x.c, out_h, out_w))
    for i in range(out_h):
        y0, y1 = (i * x.h) // out_h, -(-((i + 1) * x.h) // out_h)
        for j in range(out_w):
            x0, x1 = (j * x.w) // out_w, -(-((j + 1) * x.w) // out_w)
            out[:, :, i, j] = x.data[:, :, y0:y1, x0:x1].mean(axis=(2, 3))
    return TensorNCHW(out)


def save_tensor(t: TensorNCHW, basepath) -> None:
    """Write <base>.bin (little-endian f64, row-major) and <base>.json dims."""
    base = Path(basepath)
    base.with_suffix(".bin").write_bytes(t.data.astype("<f8").tobytes(order="C"))
    base.with_suffix(".json").write_text(
        json.dumps({"dims": list(t.shape), "dtype": "<f8", "order": "C"}) + "\n"
    )


def load_tensor(basepath) -> TensorNCHW:
    base = Path(basepath)
    meta = json.loads(base.with_suffix(".json").read_text())
    dims = tuple(meta["dims"])
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    return TensorNCHW(raw.reshape(dims).copy())
