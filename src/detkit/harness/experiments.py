"""Report-level experiments: the NMS A/B comparison and the loss-ablation
table."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..evaluation import MAX_DETECTIONS_PER_IMAGE, ApReport, evaluate
from ..nms import MODES, Detections, GroundTruths, greedy_nms
from .scenario import Scenario, detections_from_heads, scenario_features, true_iou
from .toyfit import fit_toy, init_toy_model

HIGH_SCORE = 0.5
LOW_IOU = 0.5

# Loss-setting rows of the ablation table: (cls, iou) pairs
ABLATION_COMBOS = (("ceji", "l2"), ("ce", "r_iou"), ("ceji", "r_iou"))


@dataclass
class ModeResult:
    report: ApReport
    kept_count: int
    high_score_low_iou: int
    scatter: list[tuple[float, float]]  # (score, true IOU) per kept box


@dataclass
class AbReport:
    iou_threshold: float
    modes: dict[str, ModeResult]


def run_nms_ab(scenario: Scenario) -> AbReport:
    """Evaluate both scoring modes at the config's threshold, collecting
    AP, the (score, true IOU) scatter of kept boxes, and the count of
    confident low-IOU survivors."""
    floor = scenario.cfg.nms.score_floor
    # decoding does not depend on the mode
    decoded = {
        img.image_id: detections_from_heads(scenario.anchors, img.heads, floor, img.image_id)
        for img in scenario.images
    }
    modes: dict[str, ModeResult] = {}
    for mode in MODES:
        # every kept row goes into the scatter and the counts, so this NMS is not capped
        kept = _per_image_nms(scenario, decoded, mode)
        report = evaluate(kept, _ground_truths(scenario), mode)
        scatter = []
        for img in scenario.images:
            dets = kept[img.image_id]
            scatter += zip(dets.score(mode).tolist(), true_iou(dets, img.gts).tolist())
        modes[mode] = ModeResult(
            report=report,
            kept_count=len(scatter),
            high_score_low_iou=sum(1 for s, t in scatter if s > HIGH_SCORE and t < LOW_IOU),
            scatter=scatter,
        )
    return AbReport(scenario.cfg.nms.iou_threshold, modes)


@dataclass
class AblationRow:
    cls_loss: str
    iou_loss: str
    reg_loss: str
    initial_loss: float
    final_loss: float
    report: ApReport


def run_ablation(scenario: Scenario) -> list[AblationRow]:
    """Fit the toy model once per loss setting on ``scenario`` (generation
    reads no loss field), under its config, from identical initial weights,
    and report the resulting AP side by side. The ordering of the results is
    an experimental outcome, not a premise."""
    cfg = scenario.cfg
    features = scenario_features(scenario)
    rows = []
    for cls_loss, iou_loss in ABLATION_COMBOS:
        run_cfg = replace(cfg, losses=replace(cfg.losses, cls=cls_loss, iou=iou_loss))
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed)
        fit = fit_toy(model, scenario, features, run_cfg)
        report = ap_after_nms(scenario, fit.detections, cfg.nms.mode)
        rows.append(AblationRow(cls_loss, iou_loss, cfg.losses.reg, fit.initial_loss, fit.final_loss, report))
    return rows


def ap_after_nms(scenario: Scenario, decoded: dict[str, Detections], mode: str) -> ApReport:
    """The AP, against the scenario's ground truths, of per-image NMS under
    ``mode`` at the config's threshold and floor. Each class of an image
    keeps only the ``MAX_DETECTIONS_PER_IMAGE`` rows that ``evaluate`` reads,
    which leaves the AP unchanged to the bit (``detkit.nms``)."""
    return evaluate(_per_image_nms(scenario, decoded, mode, MAX_DETECTIONS_PER_IMAGE), _ground_truths(scenario), mode)


def _per_image_nms(scenario: Scenario, decoded: dict[str, Detections], mode: str,
                   max_per_class: int | None = None) -> dict[str, Detections]:
    nms_cfg = scenario.cfg.nms
    return {
        img_id: greedy_nms(dets, nms_cfg.iou_threshold, mode, nms_cfg.score_floor, max_per_class)
        for img_id, dets in decoded.items()
    }


def _ground_truths(scenario: Scenario) -> dict[str, GroundTruths]:
    return {img.image_id: img.gts for img in scenario.images}
