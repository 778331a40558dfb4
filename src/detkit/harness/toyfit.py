"""Full-batch gradient descent of linear per-anchor heads under the
configured loss stack.

The heads map shared synthetic anchor features to offsets, per-class
scores, and a predicted IOU. Probability heads are clamped linear ranges
rather than softmax/sigmoid so the loss optimum is reachable at finite
parameters; the clamp contributes a zero subgradient outside its open
interval, which also freezes a model initialized exactly at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def eval_epoch() -> tuple[dict[str, float], list[np.ndarray], list[HeadOutputs]]:
        totals = {"total": 0.0, "cls": 0.0, "reg": 0.0, "iou": 0.0}
        grads = [np.zeros_like(model.w_off), np.zeros_like(model.w_cls), np.zeros_like(model.w_iou)]
        heads_list = []
        for img in scenario.images:
            heads, raw_cls, raw_iou = model.forward(img.features)
            heads_list.append(heads)
            tl = total_loss(img.match, heads, scenario.anchors, img.gts, cfg.losses)
            totals["total"] += tl.value / n_images
            for key in ("cls", "reg", "iou"):
                totals[key] += tl.terms[key] / n_images
            grads[0] += (tl.d_offsets.T @ img.features) / n_images
            grads[1] += (_projected(tl.d_class_probs, raw_cls).T @ img.features) / n_images
            grads[2] += (_projected(tl.d_p_iou, raw_iou) @ img.features) / n_images
        return totals, grads, heads_list

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
