"""Scenario configuration: the single source of truth for an experiment.

A config (plus nothing else) determines every downstream artifact
byte-for-byte. The JSON document is versioned via ``schema_version``;
unknown keys are rejected so typos fail loudly. The shipped
``config_schema.json`` is the one statement of each field's type,
bounds, allowed values and length: :func:`detkit.schema.check` executes
it on every config, whether read from JSON or built in Python.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from ..fileio import json_text
from ..losses import LossConfig
from ..schema import ConfigError, check

SCHEMA_PATH = Path(__file__).parent / "config_schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
SCHEMA_VERSION = SCHEMA["properties"]["schema_version"]["const"]


class NumericalError(Exception):
    """Numerical failure such as a diverging fit (CLI exit code 3)."""


@dataclass(frozen=True)
class NoiseConfig:
    """Head-output corruption model.

    ``offset_sigma`` perturbs regression targets of ordinary positives;
    with probability ``distractor_rate`` a positive instead gets
    ``distractor_offset_sigma``, producing a confidently classified but
    badly localized box (the inconsistency the IOU-guided score exists
    to fix). ``p_iou_sigma`` = 0 keeps the predicted IOU calibrated to
    the true one.
    """

    offset_sigma: float = 0.1
    distractor_rate: float = 0.3
    distractor_offset_sigma: float = 1.5
    cls_confidence_range: tuple[float, float] = (0.6, 0.95)
    # high enough that negative anchors' object probs stay below the
    # NMS score floor ((1 - p_bg) / n_classes < 0.01)
    neg_background_range: tuple[float, float] = (0.985, 1.0)
    p_iou_sigma: float = 0.0


@dataclass(frozen=True)
class FitConfig:
    epochs: int = 60
    step: float = 0.2
    snapshots: int = 4
    feature_dim: int = 64


@dataclass(frozen=True)
class NmsConfig:
    mode: str = "iou_guided"  # "standard" | "iou_guided"
    iou_threshold: float = 0.5
    score_floor: float = 0.01


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    image_size: float = 160.0
    n_images: int = 4
    object_count: tuple[int, int] = (2, 5)
    n_classes: int = 3
    object_size_range: tuple[float, float] = (0.12, 0.55)  # fraction of image
    grids: tuple[int, ...] = (20, 10, 5, 3)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    losses: LossConfig = field(default_factory=LossConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    nms: NmsConfig = field(default_factory=NmsConfig)
    output_dir: str = "detkit_out"

    def validate(self) -> "ScenarioConfig":
        """Check the config against the schema, plus the ``lo <= hi`` of its
        ranges, which the schema cannot state."""
        check({"schema_version": SCHEMA_VERSION, **asdict(self)}, SCHEMA, "scenario")
        return self._check_ranges()

    def _check_ranges(self) -> "ScenarioConfig":
        """Raise ConfigError unless each range is ``[lo, hi]`` with ``lo <= hi``."""
        for name in ("object_count", "object_size_range", "noise.cls_confidence_range", "noise.neg_background_range"):
            lo, hi = operator.attrgetter(name)(self)
            if lo > hi:
                raise ConfigError(f"scenario.{name} must be [lo, hi] with lo <= hi, got {[lo, hi]}")
        return self

    def with_seed(self, seed: int | None) -> "ScenarioConfig":
        return self if seed is None else replace(self, seed=int(seed))

    def to_json(self) -> str:
        return json_text({"schema_version": SCHEMA_VERSION, **asdict(self)})


_NESTED = {"noise": NoiseConfig, "losses": LossConfig, "fit": FitConfig, "nms": NmsConfig}

def _build(cls, data: dict):
    """``cls`` from a checked JSON object, its nested objects and arrays as dataclasses and tuples."""
    return cls(**{
        key: _build(_NESTED[key], value) if key in _NESTED else tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    })


def config_from_json(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    check(doc, SCHEMA, "scenario")
    doc.pop("schema_version", None)
    return _build(ScenarioConfig, doc)._check_ranges()


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(text)
