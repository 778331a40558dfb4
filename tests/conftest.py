"""Shared strategies and numerical helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import strategies as st

from detkit.nms import Detections, GroundTruths, greedy_nms
from oracles import Box, Detection

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
extent = st.floats(min_value=0.5, max_value=40.0, allow_nan=False, allow_infinity=False)
# any finite float, with the edge values written out: signed zeros,
# subnormals and the largest magnitudes
any_finite = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)
# text with the characters CSV and JSON writers must escape
awkward_text = st.text(st.one_of(st.sampled_from(',"\'\n\r\t\\ '), st.characters()))


@st.composite
def boxes(draw, min_extent: float = 0.5) -> Box:
    x1 = draw(coord)
    y1 = draw(coord)
    w = draw(st.floats(min_value=min_extent, max_value=40.0))
    h = draw(st.floats(min_value=min_extent, max_value=40.0))
    return Box(x1, y1, x1 + w, y1 + h)


@st.composite
def any_boxes(draw) -> Box:
    """A box with any finite corners (its extent may overflow)."""
    x1, x2 = sorted((draw(any_finite), draw(any_finite)))
    y1, y2 = sorted((draw(any_finite), draw(any_finite)))
    return Box(x1, y1, x2, y2)


@st.composite
def int_boxes(draw) -> Box:
    x1 = draw(st.integers(-100, 100))
    y1 = draw(st.integers(-100, 100))
    w = draw(st.integers(1, 60))
    h = draw(st.integers(1, 60))
    return Box(float(x1), float(y1), float(x1 + w), float(y1 + h))


def anchor_box(anchors, i: int) -> Box:
    """Anchor ``i`` of an ``AnchorSet`` as a scalar ``Box``."""
    return Box(*anchors.boxes[i].tolist())


def central_diff(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def rel_err(analytic: float, numeric: float, floor: float = 1e-8) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def random_overlapping_pair(rng: np.random.Generator, margin: float = 0.05) -> tuple[Box, Box]:
    """Two overlapping boxes with every edge pair separated by > margin,
    keeping IOU differentiable at the sampled point."""
    while True:
        a = Box(*_rand_box(rng))
        b = Box(*_rand_box(rng))
        iw = min(a.x2, b.x2) - max(a.x1, b.x1)
        ih = min(a.y2, b.y2) - max(a.y1, b.y1)
        if iw < margin or ih < margin:
            continue
        edges = [abs(a.x1 - b.x1), abs(a.x2 - b.x2), abs(a.y1 - b.y1), abs(a.y2 - b.y2)]
        if min(edges) > margin:
            return a, b


def _rand_box(rng: np.random.Generator):
    x1, y1 = rng.uniform(0.0, 6.0, 2)
    w, h = rng.uniform(1.0, 6.0, 2)
    return x1, y1, x1 + w, y1 + h


def outcome(fn, *args, **kwargs):
    """What a call returns, as exact bits (signed zeros and NaN payloads
    included, dict keys in order), or the class and message of the
    exception it raises."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the exception itself is the outcome compared
        return "raises", type(exc), str(exc)
    return "returns", bits(result)


def bits(x):
    """``x`` with every float replaced by its 8 bytes, recursively."""
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, bits(x.tolist()) if x.dtype == object else x.tobytes()
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple((f.name, bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    return x


# ---------------------------------------------------------------------------
# detection records (tests/oracles.py) and the library's Detections table


def table(dets) -> Detections:
    """Detection records as one table. Row i gets the image id str(i),
    which greedy_nms ignores, so kept rows map back to their records."""
    return Detections(
        [str(i) for i in range(len(dets))],
        [d.box.as_tuple() for d in dets],
        [d.class_id for d in dets],
        [d.p_cls for d in dets],
        [d.p_iou for d in dets],
    )


def kept_records(dets, *args, **kwargs) -> list:
    """greedy_nms on ``table(dets)``, as the very records it keeps, in order."""
    return [dets[int(i)] for i in greedy_nms(table(dets), *args, **kwargs).image_id]


def records(t: Detections) -> list:
    """The rows of a table as detection records."""
    return [
        Detection(Box(*box), c, p_cls, p_iou)
        for box, c, p_cls, p_iou in zip(t.boxes.tolist(), t.class_id.tolist(), t.p_cls.tolist(), t.p_iou.tolist())
    ]


def tables(dets_by_image) -> dict[str, Detections]:
    """(box, class_id, score) rows per image, the AP oracle's format, as
    tables whose standard-mode score is that score (p_iou = 1)."""
    return {
        img: Detections([img] * len(rows), [b.as_tuple() for b, _, _ in rows], [c for _, c, _ in rows],
                        [s for _, _, s in rows], [1.0] * len(rows))
        for img, rows in dets_by_image.items()
    }


def gt_tables(gts_by_image) -> dict[str, GroundTruths]:
    """(box, class_id) rows per image, the AP oracle's format, as tables."""
    return {
        img: GroundTruths([b.as_tuple() for b, _ in objs], [c for _, c in objs]) for img, objs in gts_by_image.items()
    }
