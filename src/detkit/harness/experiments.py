"""Report-level experiments: the NMS A/B comparison and the loss-ablation
table."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..evaluation import ApReport, evaluate
from ..nms import Detection, greedy_nms, score
from .config import ScenarioConfig
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


def run_nms_ab(scenario: Scenario, thresholds: list[float] | None = None) -> list[AbReport]:
    """Evaluate both scoring modes at each threshold, collecting AP, the
    (score, true IOU) scatter of kept boxes, and the count of confident
    low-IOU survivors."""
    thresholds = thresholds or [scenario.cfg.nms.iou_threshold]
    floor = scenario.cfg.nms.score_floor
    gts = {img.image_id: list(zip(img.gts, img.gt_classes)) for img in scenario.images}
    by_image = {img.image_id: img for img in scenario.images}
    # decoding depends on neither mode nor threshold
    decoded = {
        img.image_id: detections_from_heads(scenario.anchors, img.heads, floor) for img in scenario.images
    }

    out = []
    for thr in thresholds:
        modes: dict[str, ModeResult] = {}
        for mode in ("standard", "iou_guided"):
            kept = {img_id: greedy_nms(dets, thr, mode, floor) for img_id, dets in decoded.items()}
            det_map = {
                img_id: [(d.box, d.class_id, score(d, mode)) for d in dets]
                for img_id, dets in kept.items()
            }
            scatter = []
            bad = 0
            for img_id, dets in kept.items():
                img = by_image[img_id]
                for d in dets:
                    s = score(d, mode)
                    t = true_iou(d, img.gts, img.gt_classes)
                    scatter.append((s, t))
                    if s > HIGH_SCORE and t < LOW_IOU:
                        bad += 1
            modes[mode] = ModeResult(
                report=evaluate(det_map, gts),
                kept_count=sum(len(v) for v in kept.values()),
                high_score_low_iou=bad,
                scatter=scatter,
            )
        out.append(AbReport(thr, modes))
    return out


@dataclass
class AblationRow:
    cls_loss: str
    iou_loss: str
    reg_loss: str
    initial_loss: float
    final_loss: float
    report: ApReport


def run_ablation(cfg: ScenarioConfig, combos=ABLATION_COMBOS) -> list[AblationRow]:
    """Fit the toy model once per loss setting under identical seeds and
    report the resulting AP side by side. The ordering of the results is
    an experimental outcome, not a premise."""
    rows = []
    for cls_loss, iou_loss in combos:
        run_cfg = replace(cfg, losses=replace(cfg.losses, cls=cls_loss, iou=iou_loss))
        scenario = generate_scenario(run_cfg)
        model = init_toy_model(run_cfg.n_classes, run_cfg.fit.feature_dim, run_cfg.seed)
        fit = fit_toy(model, scenario, run_cfg)
        report = evaluate_fit(scenario, fit_detections(scenario, fit))
        rows.append(
            AblationRow(cls_loss, iou_loss, run_cfg.losses.reg, fit.initial_loss, fit.final_loss, report)
        )
    return rows


def fit_detections(scenario: Scenario, fit: FitResult) -> dict[str, list[Detection]]:
    """Decode the fitted model's heads on every image, keyed by image id in
    scenario order."""
    floor = scenario.cfg.nms.score_floor
    return {
        img.image_id: detections_from_heads(scenario.anchors, fit.model.forward(img.features)[0], floor)
        for img in scenario.images
    }


def evaluate_fit(scenario: Scenario, decoded: dict[str, list[Detection]]) -> ApReport:
    """NMS + AP, under the config's mode, of the per-image detections that
    ``fit_detections`` decoded."""
    cfg = scenario.cfg
    gts = {img.image_id: list(zip(img.gts, img.gt_classes)) for img in scenario.images}
    det_map = {}
    for img_id, dets in decoded.items():
        kept = greedy_nms(dets, cfg.nms.iou_threshold, cfg.nms.mode, cfg.nms.score_floor)
        det_map[img_id] = [(d.box, d.class_id, score(d, cfg.nms.mode)) for d in kept]
    return evaluate(det_map, gts)
