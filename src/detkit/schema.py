"""The one JSON checker: :func:`check` runs a shipped JSON Schema on a parsed document.

The schemas are the scenario config (``harness/config_schema.json``), the
ground truths (``ground_truths_schema.json``) and the conv chains of
``detkit rf`` (``rf_chain_schema.json``). A message names the offending
value by its path in the document, such as ``chain.layers[0].kernel``.
"""

from __future__ import annotations

import math
import operator


class ConfigError(ValueError):
    """Invalid configuration or input document (CLI exit code 2)."""


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
_KEYWORDS = {"$schema", "title", "description", "type", "properties", "additionalProperties", "required", "items",
             "minItems", "maxItems", "const", "enum", *_BOUNDS}


def check(value, spec: dict, name: str) -> None:
    """Raise ConfigError unless ``value`` satisfies the schema node ``spec``.
    A node using a keyword outside ``_KEYWORDS``, or ``additionalProperties``
    other than ``false``, raises, so a schema edit cannot go silently unenforced.
    An object node without ``additionalProperties`` accepts keys it does not name."""
    unknown = spec.keys() - _KEYWORDS
    if spec.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise NotImplementedError(f"schema node {name} uses unimplemented keywords {sorted(unknown)}")
    kind = spec.get("type")
    if kind == "array":
        # the items are checked one by one, so a message quotes one bad item, not the whole array
        item, lo, hi = spec["items"], spec.get("minItems", 0), spec.get("maxItems", math.inf)
        if not (isinstance(value, (list, tuple)) and lo <= len(value) <= hi):
            count = f"{lo} " if lo == hi else ""
            length = ("" if lo == hi or not lo and hi == math.inf
                      else f" with {lo} to {hi} items" if hi < math.inf else f" with at least {lo} items")
            raise ConfigError(f"{name} must be an array of {count}{_TYPES[item['type']][0]} values{length}, "
                              f"got {value!r}")
        for i, v in enumerate(value):
            check(v, item, f"{name}[{i}]")
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
        missing = [key for key in spec.get("required", ()) if key not in value]
        if missing:
            raise ConfigError(f"missing {name} keys: {missing}")
        for key, v in value.items():
            if key in props:
                check(v, props[key], f"{name}.{key}")
