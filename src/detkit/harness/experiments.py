"""Report-level experiments: the NMS A/B comparison and the loss-ablation
table."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..evaluation import ApReport, evaluate
from ..nms import MODES, Detections, greedy_nms
from .config import NumericalError, ScenarioConfig
from .scenario import Scenario, detections_from_heads, generate_scenario, true_iou
from .toyfit import FitResult, fit_toy, init_toy_model

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
        kept, report = nms_and_ap(scenario, decoded, mode)
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


def run_ablation(cfg: ScenarioConfig) -> list[AblationRow]:
    """Fit the toy model once per loss setting on one scenario (generation
    reads no loss field) from identical initial weights, and report the
    resulting AP side by side. The ordering of the results is an
    experimental outcome, not a premise."""
    scenario = generate_scenario(cfg)
    rows = []
    for cls_loss, iou_loss in ABLATION_COMBOS:
        run_cfg = replace(cfg, losses=replace(cfg.losses, cls=cls_loss, iou=iou_loss))
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed)
        fit = fit_toy(model, scenario, run_cfg)
        _, report = nms_and_ap(scenario, fit_detections(scenario, fit), cfg.nms.mode)
        rows.append(AblationRow(cls_loss, iou_loss, cfg.losses.reg, fit.initial_loss, fit.final_loss, report))
    return rows


def fit_detections(scenario: Scenario, fit: FitResult) -> dict[str, Detections]:
    """Decode the fitted model's heads on every image, keyed by image id in
    scenario order. A decode that overflows, a NaN probability, or a box
    that is NaN or of negative extent raises NumericalError."""
    floor = scenario.cfg.nms.score_floor
    try:
        return {
            img.image_id: detections_from_heads(scenario.anchors, fit.model.forward(img.features)[0], floor, img.image_id)
            for img in scenario.images
        }
    except (OverflowError, ValueError) as exc:
        raise NumericalError(f"fitted model decodes invalid detections: {exc}") from exc


def nms_and_ap(scenario: Scenario, decoded: dict[str, Detections], mode: str) -> tuple[dict[str, Detections], ApReport]:
    """Per-image NMS under ``mode`` at the config's threshold and floor, and
    the AP of the kept detections against the scenario's ground truths."""
    nms_cfg = scenario.cfg.nms
    kept = {
        img_id: greedy_nms(dets, nms_cfg.iou_threshold, mode, nms_cfg.score_floor)
        for img_id, dets in decoded.items()
    }
    return kept, evaluate(kept, {img.image_id: img.gts for img in scenario.images}, mode)
