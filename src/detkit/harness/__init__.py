"""Experiment harness: scenario synthesis, toy fitting, and report emission."""

from .config import (
    ConfigError,
    FitConfig,
    NmsConfig,
    NoiseConfig,
    NumericalError,
    ScenarioConfig,
    config_from_json,
    load_config,
)
from .scenario import (
    Scenario,
    SceneImage,
    detections_from_heads,
    generate_scenario,
    iou_histogram,
    scenario_features,
    true_iou,
)
from .toyfit import FitResult, ToyModel, fit_toy, init_toy_model
from .experiments import AbReport, AblationRow, ModeResult, ap_after_nms, run_ablation, run_nms_ab

__all__ = [
    "ScenarioConfig",
    "NoiseConfig",
    "FitConfig",
    "NmsConfig",
    "ConfigError",
    "NumericalError",
    "config_from_json",
    "load_config",
    "Scenario",
    "SceneImage",
    "generate_scenario",
    "scenario_features",
    "detections_from_heads",
    "iou_histogram",
    "true_iou",
    "ToyModel",
    "FitResult",
    "init_toy_model",
    "fit_toy",
    "run_nms_ab",
    "run_ablation",
    "ap_after_nms",
    "AbReport",
    "ModeResult",
    "AblationRow",
]
