"""Scenario configuration: the single source of truth for an experiment.

A config (plus nothing else) determines every downstream artifact
byte-for-byte. The JSON document is versioned via ``schema_version``;
unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from ..losses import LossConfig
from ..nms import MODES as NMS_MODES

SCHEMA_VERSION = 1
# Keep every derived area, and the fourth powers in the IOU gradients,
# far inside float64 range: the smallest ground-truth side is 1e-6 px.
MIN_SIZE = 1e-3  # of image_size, and of object_size_range as a fraction
MAX_IMAGE_SIZE = 1e6
SCHEMA_PATH = Path(__file__).parent / "config_schema.json"


class ConfigError(Exception):
    """Invalid or impossible configuration (CLI exit code 2)."""


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
        lo, hi = self.object_count
        if not (1 <= lo <= hi):
            raise ConfigError(f"bad object_count range {self.object_count}")
        slo, shi = self.object_size_range
        if not (MIN_SIZE <= slo <= shi):
            raise ConfigError(f"bad object_size_range {self.object_size_range}: need {MIN_SIZE:g} <= lo <= hi")
        if shi > 1.0:
            raise ConfigError("objects larger than the image are impossible")
        if not MIN_SIZE <= self.image_size <= MAX_IMAGE_SIZE:
            raise ConfigError(f"image_size must lie in [{MIN_SIZE:g}, {MAX_IMAGE_SIZE:g}], got {self.image_size}")
        if self.n_images < 1 or self.n_classes < 1:
            raise ConfigError("n_images, n_classes must be positive")
        if not self.grids or any(g < 1 for g in self.grids):
            raise ConfigError(f"bad grids {self.grids}")
        if len(self.grids) + 1 > 7:
            raise ConfigError("at most 6 pyramid levels are supported")
        noise = self.noise
        for name in ("offset_sigma", "distractor_offset_sigma", "p_iou_sigma"):
            if getattr(noise, name) < 0.0:
                raise ConfigError(f"noise.{name} must be at least 0, got {getattr(noise, name)}")
        if not (0.0 <= noise.distractor_rate <= 1.0):
            raise ConfigError(f"noise.distractor_rate must lie in [0, 1], got {noise.distractor_rate}")
        for name in ("cls_confidence_range", "neg_background_range"):
            lo, hi = getattr(noise, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigError(f"noise.{name} must be [lo, hi] with 0 <= lo <= hi <= 1, got {[lo, hi]}")
        if self.nms.mode not in NMS_MODES:
            raise ConfigError(f"unknown nms mode {self.nms.mode!r}")
        if not (0.0 < self.nms.iou_threshold < 1.0):
            raise ConfigError("nms iou_threshold must lie in (0, 1)")
        if self.nms.score_floor < 0.0:
            raise ConfigError(f"nms score_floor must be at least 0, got {self.nms.score_floor}")
        if self.fit.epochs < 1 or self.fit.step <= 0 or self.fit.feature_dim < 2:
            raise ConfigError("bad fit settings")
        if self.fit.snapshots < 2:
            raise ConfigError("need at least the initial and final snapshots")
        return self

    def with_seed(self, seed: int | None) -> "ScenarioConfig":
        return self if seed is None else replace(self, seed=int(seed))

    def to_json(self) -> str:
        doc = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_NESTED = {"noise": NoiseConfig, "losses": LossConfig, "fit": FitConfig, "nms": NmsConfig}


def _is_a(value, kind) -> bool:
    """JSON type test: bools are not numbers, ints are valid floats, and
    floats must be finite."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, kind)


def _typed(value, hint, name: str):
    """Check a JSON value against its field's annotation: a scalar type, or
    a tuple of one scalar type given as a JSON array."""
    if typing.get_origin(hint) is tuple:
        kind, *rest = typing.get_args(hint)
        count = None if rest == [Ellipsis] else 1 + len(rest)
        if not (
            isinstance(value, list)
            and count in (None, len(value))
            and all(_is_a(v, kind) for v in value)
        ):
            size = f"{count} " if count else ""
            raise ConfigError(f"{name} must be an array of {size}{kind.__name__} values, got {value!r}")
        return tuple(value)
    if not _is_a(value, hint):
        raise ConfigError(f"{name} must be {hint.__name__}, got {value!r}")
    return value


def _build(cls, data: dict, where: str):
    allowed = set(cls.__dataclass_fields__)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object")
            value = _build(_NESTED[key], value, key)
        else:
            value = _typed(value, hints[key], f"{where}.{key}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def config_from_json(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    return _build(ScenarioConfig, doc, "scenario").validate()


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(text)
