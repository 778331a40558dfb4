"""Scenario configuration: the single source of truth for an experiment.

A config (plus nothing else) determines every downstream artifact
byte-for-byte. The JSON document is versioned via ``schema_version``;
unknown keys are rejected so typos fail loudly. The shipped
``config_schema.json`` is the one statement of each field's type,
bounds, allowed values and length: :func:`_check` executes it on every
config, whether read from JSON or built in Python.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from ..fileio import json_text
from ..losses import LossConfig

SCHEMA_PATH = Path(__file__).parent / "config_schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
SCHEMA_VERSION = SCHEMA["properties"]["schema_version"]["const"]


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
        """Check the config against the schema, plus the ``lo <= hi`` of its
        ranges, which the schema cannot state."""
        _check({"schema_version": SCHEMA_VERSION, **asdict(self)}, SCHEMA, "scenario")
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

# JSON type: (name in messages, test). Booleans are never numbers, an
# integer is an integer literal (60.0 is not one), and a number is finite.
_TYPES = {
    "integer": ("int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("float", lambda v: not isinstance(v, bool)
               and (isinstance(v, int) or isinstance(v, float) and math.isfinite(v))),
    "boolean": ("bool", lambda v: isinstance(v, bool)),
    "string": ("str", lambda v: isinstance(v, str)),
    "object": ("object", lambda v: isinstance(v, dict)),
}
_BOUNDS = {  # keyword: (test, interval bracket, phrase)
    "minimum": (operator.ge, "[", "at least"),
    "exclusiveMinimum": (operator.gt, "(", "greater than"),
    "maximum": (operator.le, "]", "at most"),
    "exclusiveMaximum": (operator.lt, ")", "less than"),
}
_KEYWORDS = {"$schema", "title", "description", "type", "properties", "additionalProperties", "items",
             "minItems", "maxItems", "const", "enum", *_BOUNDS}


def _check(value, spec: dict, name: str) -> None:
    """Raise ConfigError unless ``value`` satisfies the schema node ``spec``.
    A node using a keyword outside ``_KEYWORDS``, or ``additionalProperties``
    other than ``false``, raises, so a schema edit cannot go silently unenforced."""
    unknown = spec.keys() - _KEYWORDS
    if spec.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise NotImplementedError(f"schema node {name} uses unimplemented keywords {sorted(unknown)}")
    kind = spec.get("type")
    if kind == "array":
        item, lo, hi = spec["items"], spec.get("minItems", 0), spec.get("maxItems", math.inf)
        item_kind, item_ok = _TYPES[item["type"]]
        if not (isinstance(value, (list, tuple)) and lo <= len(value) <= hi and all(map(item_ok, value))):
            count, length = (f"{lo} ", "") if lo == hi else ("", f" with {lo} to {hi} items")
            raise ConfigError(f"{name} must be an array of {count}{item_kind} values{length}, got {value!r}")
        for i, v in enumerate(value):
            _check(v, item, f"{name}[{i}]")
    elif kind is not None and not _TYPES[kind][1](value):
        raise ConfigError(f"{name} must be {_TYPES[kind][0]}, got {value!r}")
    if "const" in spec and (value != spec["const"] or isinstance(value, bool) != isinstance(spec["const"], bool)):
        raise ConfigError(f"{name} must be {spec['const']!r}, got {value!r}")
    if "enum" in spec and value not in spec["enum"]:
        raise ConfigError(f"{name} must be one of {spec['enum']}, got {value!r}")
    bounds = [kw for kw in _BOUNDS if kw in spec]
    if not all(_BOUNDS[kw][0](value, spec[kw]) for kw in bounds):
        lower, upper = bounds[0], bounds[-1]
        text = (f"be {_BOUNDS[lower][2]} {spec[lower]:g}" if lower == upper
                else f"lie in {_BOUNDS[lower][1]}{spec[lower]:g}, {spec[upper]:g}{_BOUNDS[upper][1]}")
        raise ConfigError(f"{name} must {text}, got {value!r}")
    if kind == "object":
        props = spec.get("properties", {})
        extra = value.keys() - props.keys()
        if extra and "additionalProperties" in spec:
            raise ConfigError(f"unknown {name} keys: {sorted(extra)}")
        for key, v in value.items():
            if key in props:
                _check(v, props[key], f"{name}.{key}")


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
    _check(doc, SCHEMA, "scenario")
    doc.pop("schema_version", None)
    return _build(ScenarioConfig, doc)._check_ranges()


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(text)
