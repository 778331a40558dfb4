"""Reference outputs for graph_forward, computed in a process of their own.

    python3 perfbench/reference.py --seed <n> --out <file.npz> [--tiny]

The reference runs detkit's rfm_forward / two_way_fpn_forward wiring with
its three numeric layers replaced by independent algorithms: conv as a
sum over kernel taps of (out, in) x (in, pixels) products instead of
im2col, and bilinear resize and adaptive average pooling as separable
interpolation / pooling matrices instead of gathers and reshaped means.
Every graph op is checked element by element against these outputs.

The wiring itself is shared with detkit, so it is checked through the
fingerprints recorded in expected.json (record.py): per output, its dot
product with a fixed random vector and its values at fixed positions.

Running in its own process keeps the reference out of the measured
worker's set-up time and peak memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from detkit import graph  # noqa: E402
from detkit.graph import TensorNCHW  # noqa: E402

from tracing import patched  # noqa: E402

# the repo's conv-oracle tolerance, per element
ATOL = 1e-10
# fingerprint dot products may differ by rounding only. Relative to the
# sum of |vector * output|, detkit's im2col conv and the reference, or 1
# and 2 BLAS threads, differ by about 1e-17 at full size; on the largest
# outputs the tolerance is about 1e-7 absolute
DOT_RTOL = 1e-12
# output elements recorded per output and seed
SAMPLES = 16


def conv2d(x: TensorNCHW, p) -> TensorNCHW:
    spec = p.spec
    k, s, d, pad = spec.kernel, spec.stride, spec.dilation, spec.padding
    ho = (x.h + 2 * pad - d * (k - 1) - 1) // s + 1
    wo = (x.w + 2 * pad - d * (k - 1) - 1) // s + 1
    padded = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((spec.out_channels, x.n, ho, wo))
    for i in range(k):
        for j in range(k):
            tap = padded[:, :, i * d : i * d + s * ho : s, j * d : j * d + s * wo : s]
            out += np.tensordot(p.weight[:, :, i, j], tap, axes=([1], [1]))
    out += p.bias[:, None, None, None]
    return TensorNCHW(np.ascontiguousarray(out.transpose(1, 0, 2, 3)))


def _interpolation_matrix(size: int, out: int) -> np.ndarray:
    """Row i holds the weights of output i over the input positions:
    half-pixel centers, clamped at the edges."""
    m = np.zeros((out, size))
    for i in range(out):
        src = min(max((i + 0.5) * size / out - 0.5, 0.0), size - 1.0)
        lo = int(src)
        hi = min(lo + 1, size - 1)
        m[i, lo] += 1.0 - (src - lo)
        m[i, hi] += src - lo
    return m


def _pooling_matrix(size: int, out: int) -> np.ndarray:
    """Row i averages input bin floor(i*size/out) .. ceil((i+1)*size/out)."""
    m = np.zeros((out, size))
    for i in range(out):
        lo, hi = (i * size) // out, -(-((i + 1) * size) // out)
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def bilinear_resize(x: TensorNCHW, out_h: int, out_w: int) -> TensorNCHW:
    return TensorNCHW(_interpolation_matrix(x.h, out_h) @ x.data @ _interpolation_matrix(x.w, out_w).T)


def adaptive_avg_pool(x: TensorNCHW, out_h: int, out_w: int) -> TensorNCHW:
    return TensorNCHW(_pooling_matrix(x.h, out_h) @ x.data @ _pooling_matrix(x.w, out_w).T)


def forward(workload) -> list[np.ndarray]:
    """The workload's op with the reference layers in place of detkit's."""
    with patched({graph.conv2d: conv2d, graph.bilinear_resize: bilinear_resize,
                  graph.adaptive_avg_pool: adaptive_avg_pool}):
        return [t.data for t in workload.run(None)]


def save(path, outputs: list[np.ndarray]) -> None:
    np.savez(path, **{f"out{i}": a for i, a in enumerate(outputs)})


def _probe(index: int, size: int):
    # the same vector and positions for every seed
    rng = np.random.default_rng(index)
    return rng.uniform(-1.0, 1.0, size), rng.choice(size, min(SAMPLES, size), replace=False)


def fingerprint(outputs: list[np.ndarray]) -> list[dict]:
    prints = []
    for i, a in enumerate(outputs):
        vector, at = _probe(i, a.size)
        flat = a.ravel()
        prints.append({"shape": list(a.shape), "dot": float(vector @ flat), "samples": flat[at].tolist()})
    return prints


def fingerprint_problem(index: int, a: np.ndarray, want: dict) -> str | None:
    if list(a.shape) != want["shape"]:
        return f"output {index}: shape {list(a.shape)} != recorded {want['shape']}"
    vector, at = _probe(index, a.size)
    flat = a.ravel()
    diff = abs(float(vector @ flat) - want["dot"])
    tol = DOT_RTOL * float(np.abs(vector) @ np.abs(flat))
    if diff > tol:
        return f"output {index}: fingerprint dot product off by {diff:.3g} (tolerance {tol:.3g})"
    err = float(np.max(np.abs(flat[at] - np.asarray(want["samples"]))))
    if err > ATOL:
        return f"output {index}: recorded samples off by {err:.3g} (tolerance {ATOL})"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import workloads

    wl = workloads.make_workload("graph_forward", args.seed, None, tiny=args.tiny)
    save(args.out, forward(wl))
    return 0


if __name__ == "__main__":
    sys.exit(main())
