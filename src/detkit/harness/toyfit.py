"""Full-batch gradient descent of linear per-anchor heads under the
configured loss stack.

The heads map the synthetic anchor features, one (images, anchors,
feature_dim) block from ``scenario_features``, to offsets, per-class
scores, and a predicted IOU. Probability heads are clamped linear ranges
rather than softmax/sigmoid so the loss optimum is reachable at finite
parameters; the clamp contributes a zero subgradient outside its open
interval, which also freezes a model initialized exactly at the optimum.

An epoch runs one forward over the block, two products (the offset and
class heads stacked, then the IOU head) whose every element is the dot
product a per-image, per-head product gives. Then one ``total_loss``
pass over all images, then per image, in image order, the gradient
matmuls and the loss sums, so every bit is the one a loop of per-image
loss calls gives. Stacked gradient products would round differently.
The snapshots histogram the IOU_tar that ``total_loss`` measured, and
the fit decodes its detections from the last epoch's heads.

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
from ..nms import Detections
from .config import NumericalError, ScenarioConfig
from .scenario import Scenario, detections_from_heads, iou_histogram


@dataclass
class ToyModel:
    w_off: np.ndarray  # (4, feature_dim)
    w_cls: np.ndarray  # (n_classes + 1, feature_dim)
    w_iou: np.ndarray  # (feature_dim,)

    def forward(self, features: np.ndarray) -> HeadOutputs:
        """Head outputs of a (..., anchors, feature_dim) block, each with the
        block's leading axes; the probability heads clamped to [PROB_EPS, 1]."""
        lead = features.shape[:-1]
        flat = features.reshape(-1, features.shape[-1])
        stacked = (flat @ np.concatenate((self.w_off, self.w_cls)).T).reshape(*lead, -1)
        return HeadOutputs(
            offsets=stacked[..., :4],
            class_probs=np.clip(stacked[..., 4:], PROB_EPS, 1.0),
            p_iou=np.clip((flat @ self.w_iou).reshape(lead), PROB_EPS, 1.0),
        )


def _projected(grad: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Projection semantics at the clamp: a boundary score only admits
    gradient components moving it back inside [PROB_EPS, 1]; a score
    pinned at a boundary the loss pushes outward stays frozen (so a model
    initialized at the optimum never moves). ``p`` = clip(r, PROB_EPS, 1)
    masks as the raw score r would: NaN stays NaN and falls in no case."""
    allowed = ((p > PROB_EPS) & (p < 1.0)) | ((p <= PROB_EPS) & (grad < 0.0)) | ((p >= 1.0) & (grad > 0.0))
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
    detections: dict[str, Detections]  # the fitted model's, keyed by image id in scenario order

    @property
    def initial_loss(self) -> float:
        return self.trace[0]["total"]

    @property
    def final_loss(self) -> float:
        return self.trace[-1]["total"]


@one_blas_thread()
def fit_toy(model: ToyModel, scenario: Scenario, features: np.ndarray, cfg: ScenarioConfig) -> FitResult:
    """Fixed-step descent for cfg.fit.epochs epochs on the (images,
    anchors, feature_dim) block ``features``; records the loss before
    every update and once after the last, plus IOU_tar histogram snapshots
    at evenly spaced stages. A non-finite loss aborts with a diagnostic.
    The last epoch's heads, the fitted weights' forward, are decoded into
    ``detections``; a decode that overflows, a NaN probability, or a box
    that is NaN or of negative extent raises NumericalError.
    """
    n_images = len(scenario.images)
    epochs = cfg.fit.epochs

    snapshot_epochs = sorted({round(i * epochs / (cfg.fit.snapshots - 1)) for i in range(cfg.fit.snapshots)})
    trace: list[dict[str, float]] = []
    snapshots: list[tuple[int, list[float], list[int]]] = []

    # the images as one batch along a leading axis: one loss pass per epoch
    match = MatchResult(*(np.stack([getattr(img.match, f) for img in scenario.images]) for f in ("gt_index", "best_iou")))
    gts = [img.gts for img in scenario.images]

    def eval_epoch() -> tuple[dict[str, float], list[np.ndarray], HeadOutputs, np.ndarray]:
        heads = model.forward(features)
        tl = total_loss(match, heads, scenario.anchors, gts, cfg.losses)
        d_cls = _projected(tl.d_class_probs, heads.class_probs)
        d_iou = _projected(tl.d_p_iou, heads.p_iou)
        totals = {"total": 0.0, "cls": 0.0, "reg": 0.0, "iou": 0.0}
        grads = [np.zeros_like(model.w_off), np.zeros_like(model.w_cls), np.zeros_like(model.w_iou)]
        for i, image_features in enumerate(features):
            totals["total"] += float(tl.value[i]) / n_images
            for key in ("cls", "reg", "iou"):
                totals[key] += float(tl.terms[key][i]) / n_images
            grads[0] += (tl.d_offsets[i].T @ image_features) / n_images
            grads[1] += (d_cls[i].T @ image_features) / n_images
            grads[2] += (d_iou[i] @ image_features) / n_images
        return totals, grads, heads, tl.iou_tar

    for epoch in range(epochs + 1):
        try:
            totals, grads, heads, iou_tar = eval_epoch()
        except (OverflowError, ValueError) as exc:
            # diverging offsets produce degenerate geometry (exp overflow)
            raise NumericalError(f"loss diverged at epoch {epoch}: {exc}") from exc
        if not np.isfinite(totals["total"]):
            raise NumericalError(f"loss diverged at epoch {epoch}: {totals['total']}")
        trace.append(totals)
        if epoch in snapshot_epochs:
            snapshots.append((epoch, *iou_histogram(iou_tar)))
        if epoch == epochs:
            break
        # a step that overflows leaves an infinite weight; the next epoch's loss
        # then fails, and the divergence checks above raise NumericalError
        with np.errstate(over="ignore"):
            model.w_off -= cfg.fit.step * grads[0]
            model.w_cls -= cfg.fit.step * grads[1]
            model.w_iou -= cfg.fit.step * grads[2]

    try:
        detections = {
            img.image_id: detections_from_heads(scenario.anchors, HeadOutputs(*fields), cfg.nms.score_floor, img.image_id)
            for img, fields in zip(scenario.images, zip(heads.offsets, heads.class_probs, heads.p_iou))
        }
    except (OverflowError, ValueError) as exc:
        raise NumericalError(f"fitted model decodes invalid detections: {exc}") from exc
    return FitResult(model, trace, snapshots, detections)
