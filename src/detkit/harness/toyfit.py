"""Full-batch gradient descent of linear per-anchor heads under the
configured loss stack.

The heads map shared synthetic anchor features to offsets, per-class
scores, and a predicted IOU. Probability heads are clamped linear ranges
rather than softmax/sigmoid so the loss optimum is reachable at finite
parameters; the clamp contributes a zero subgradient outside its open
interval, which also freezes a model initialized exactly at the optimum.

An epoch runs the forward per image, then one ``total_loss`` pass over
all images stacked along a leading axis, then per image, in image order,
the gradient matmuls and the loss sums, so every bit is the one a loop of
per-image loss calls gives.

The fit's products are small, (anchors, feature_dim) against a few rows,
and run on one BLAS thread (``one_blas_thread``). A second OpenBLAS thread
saves little of their time and spins between the calls, so it holds a
second CPU for the whole fit, and an op stalls whenever another process
takes that CPU. The thread count only splits the output between threads,
so the bits are the same either way.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..anchors import MatchResult
from ..losses import HeadOutputs, PROB_EPS, total_loss
from .config import NumericalError, ScenarioConfig
from .scenario import Scenario, iou_histogram, iou_tar_values


@dataclass
class ToyModel:
    w_off: np.ndarray  # (4, feature_dim)
    w_cls: np.ndarray  # (n_classes + 1, feature_dim)
    w_iou: np.ndarray  # (feature_dim,)

    def forward(self, features: np.ndarray) -> tuple[HeadOutputs, np.ndarray, np.ndarray]:
        """Head outputs plus the raw (pre-clamp) probability-head scores."""
        offsets = features @ self.w_off.T
        raw_cls = features @ self.w_cls.T
        raw_iou = features @ self.w_iou
        heads = HeadOutputs(
            offsets=offsets,
            class_probs=np.clip(raw_cls, PROB_EPS, 1.0),
            p_iou=np.clip(raw_iou, PROB_EPS, 1.0),
        )
        return heads, raw_cls, raw_iou


def _projected(grad: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Projection semantics at the clamp: a boundary score only admits
    gradient components moving it back inside [PROB_EPS, 1]; a score
    pinned at a boundary the loss pushes outward stays frozen (so a model
    initialized at the optimum never moves)."""
    allowed = ((raw > PROB_EPS) & (raw < 1.0)) | ((raw <= PROB_EPS) & (grad < 0.0)) | ((raw >= 1.0) & (grad > 0.0))
    return grad * allowed


def init_toy_model(n_classes: int, feature_dim: int, seed: int) -> ToyModel:
    """Offsets start near zero; the background score starts confident and
    the object-class scores quiet, so untrained anchors emit no confident
    junk detections."""
    rng = np.random.default_rng(seed)
    w_off = rng.uniform(-0.01, 0.01, (4, feature_dim))
    w_cls = rng.uniform(-0.01, 0.01, (n_classes + 1, feature_dim))
    w_iou = rng.uniform(-0.01, 0.01, feature_dim)
    w_cls[0, 0] = 0.9
    w_cls[1:, 0] = 0.05
    w_iou[0] = 0.5
    return ToyModel(w_off, w_cls, w_iou)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheels bundle, or None where numpy has none (another BLAS, or a build
    against a system library)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has loaded
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block's BLAS calls on one thread, then restore the count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@dataclass
class FitResult:
    model: ToyModel
    trace: list[dict[str, float]]  # per epoch: total/cls/reg/iou (pre-update), plus final
    snapshots: list[tuple[int, list[float], list[int]]]  # (epoch, bin_edges, counts)

    @property
    def initial_loss(self) -> float:
        return self.trace[0]["total"]

    @property
    def final_loss(self) -> float:
        return self.trace[-1]["total"]


@one_blas_thread()
def fit_toy(model: ToyModel, scenario: Scenario, cfg: ScenarioConfig) -> FitResult:
    """Fixed-step descent for cfg.fit.epochs epochs; records the loss before
    every update and once after the last, plus IOU_tar histogram snapshots
    at evenly spaced stages. A non-finite loss aborts with a diagnostic.
    """
    n_images = len(scenario.images)
    epochs = cfg.fit.epochs

    snapshot_epochs = sorted({round(i * epochs / (cfg.fit.snapshots - 1)) for i in range(cfg.fit.snapshots)})
    trace: list[dict[str, float]] = []
    snapshots: list[tuple[int, list[float], list[int]]] = []

    # the images as one batch along a leading axis: one loss pass per epoch
    match = MatchResult(*(np.stack([getattr(img.match, f) for img in scenario.images]) for f in ("gt_index", "best_iou")))
    gts = [img.gts for img in scenario.images]

    def eval_epoch() -> tuple[dict[str, float], list[np.ndarray], list[HeadOutputs]]:
        heads_list, raw_cls, raw_iou = zip(*(model.forward(img.features) for img in scenario.images))
        heads = HeadOutputs(*(np.stack([getattr(h, f) for h in heads_list]) for f in ("offsets", "class_probs", "p_iou")))
        tl = total_loss(match, heads, scenario.anchors, gts, cfg.losses)
        d_cls = _projected(tl.d_class_probs, np.stack(raw_cls))
        d_iou = _projected(tl.d_p_iou, np.stack(raw_iou))
        totals = {"total": 0.0, "cls": 0.0, "reg": 0.0, "iou": 0.0}
        grads = [np.zeros_like(model.w_off), np.zeros_like(model.w_cls), np.zeros_like(model.w_iou)]
        for i, img in enumerate(scenario.images):
            totals["total"] += float(tl.value[i]) / n_images
            for key in ("cls", "reg", "iou"):
                totals[key] += float(tl.terms[key][i]) / n_images
            grads[0] += (tl.d_offsets[i].T @ img.features) / n_images
            grads[1] += (d_cls[i].T @ img.features) / n_images
            grads[2] += (d_iou[i] @ img.features) / n_images
        return totals, grads, list(heads_list)

    for epoch in range(epochs + 1):
        try:
            totals, grads, heads_list = eval_epoch()
        except (OverflowError, ValueError) as exc:
            # diverging offsets produce degenerate geometry (exp overflow)
            raise NumericalError(f"loss diverged at epoch {epoch}: {exc}") from exc
        if not np.isfinite(totals["total"]):
            raise NumericalError(f"loss diverged at epoch {epoch}: {totals['total']}")
        trace.append(totals)
        if epoch in snapshot_epochs:
            edges, counts = iou_histogram(iou_tar_values(scenario, heads_list))
            snapshots.append((epoch, edges, counts))
        if epoch == epochs:
            break
        model.w_off -= cfg.fit.step * grads[0]
        model.w_cls -= cfg.fit.step * grads[1]
        model.w_iou -= cfg.fit.step * grads[2]

    return FitResult(model, trace, snapshots)
