"""Spans and counters recorded around detkit's public functions.

Tracing replaces each traced function wherever a detkit module looks it
up (every module attribute that is the original function object), so
callers inside detkit record spans without detkit knowing. Spans hold a
name, start, end and parent; counters are integers derived from each
call's arguments and result. Everything stays in memory until the run
writes it out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field


def _len_result(key):
    return lambda call, result: {key: len(result)}


def _positives(match) -> int:
    return len(match.positive_indices)


def _conv_counts(call, result):
    x, p = call["x"], call["p"]
    k = p.spec.kernel
    flops = 2 * result.n * result.c * x.c * k * k * result.h * result.w
    moved = x.data.nbytes + p.weight.nbytes + p.bias.nbytes + result.data.nbytes
    return {"graph.conv2d.flop": flops, "graph.conv2d.bytes_moved": moved}


# (public module, function, span name, counter function or None). Counter
# functions take one call's arguments by parameter name, and its result.
TARGETS = (
    ("detkit.anchors", "generate_default_boxes", "anchors.generate_default_boxes", _len_result("anchors.boxes")),
    ("detkit.anchors", "match_anchors", "anchors.match_anchors",
     lambda call, result: {"anchors.positives": _positives(result)}),
    ("detkit.harness", "generate_scenario", "harness.generate_scenario", None),
    ("detkit.harness", "detections_from_heads", "harness.detections_from_heads",
     _len_result("harness.detections")),
    ("detkit.harness", "fit_toy", "harness.fit_toy", None),
    ("detkit.harness", "run_nms_ab", "harness.run_nms_ab", None),
    ("detkit.harness.plots", "scatter_svg", "harness.plots", None),
    ("detkit.harness.plots", "histogram_svg", "harness.plots", None),
    ("detkit.losses", "total_loss", "losses.total_loss", None),  # positives counted by Tracer
    ("detkit.nms", "greedy_nms", "nms.greedy_nms",
     lambda call, result: {"nms.dets_in": len(call["dets"]), "nms.dets_kept": len(result)}),
    ("detkit.nms", "detections_to_csv", "nms.detections_to_csv",
     lambda call, result: {"nms.csv_rows": len(call["rows"])}),
    ("detkit.evaluation", "evaluate", "evaluation.evaluate",
     lambda call, result: {"evaluation.dets_in": sum(len(v) for v in call["detections"].values())}),
    ("detkit.graph", "conv2d", "graph.conv2d", _conv_counts),
    ("detkit.graph", "bilinear_resize", "graph.bilinear_resize", None),
    ("detkit.graph", "adaptive_avg_pool", "graph.adaptive_avg_pool", None),
    ("detkit.graph", "rfm_forward", "graph.rfm_forward", None),
    ("detkit.graph", "two_way_fpn_forward", "graph.two_way_fpn_forward", None),
    ("detkit.fileio", "atomic_write_text", "fileio.atomic_write_text",
     lambda call, result: {"fileio.bytes_written": len(call["text"].encode("utf-8"))}),
)

OP_SPAN = "op"

# Every per-layer metric the benchmark reports, with its unit.
PER_LAYER = (
    ("anchors.generate_default_boxes.s", "s"),
    ("anchors.match_anchors.s", "s"),
    ("anchors.boxes", "count"),
    ("anchors.positives", "count"),
    ("harness.generate_scenario.s", "s"),
    ("harness.detections_from_heads.s", "s"),
    ("harness.detections", "count"),
    ("harness.fit_toy.s", "s"),
    ("harness.run_nms_ab.s", "s"),
    ("harness.plots.s", "s"),
    ("losses.total_loss.s", "s"),
    ("losses.total_loss.calls", "count"),
    ("losses.positives", "count"),
    ("nms.greedy_nms.s", "s"),
    ("nms.greedy_nms.calls", "count"),
    ("nms.dets_in", "count"),
    ("nms.dets_kept", "count"),
    ("nms.kept_ratio", "ratio"),
    ("nms.dets_per_s", "1/s"),
    ("nms.detections_to_csv.s", "s"),
    ("nms.csv_rows", "count"),
    ("evaluation.evaluate.s", "s"),
    ("evaluation.evaluate.calls", "count"),
    ("evaluation.dets_in", "count"),
    ("graph.conv2d.s", "s"),
    ("graph.conv2d.calls", "count"),
    ("graph.conv2d.gflop", "GFLOP"),
    ("graph.conv2d.gflops", "GFLOP/s"),
    ("graph.conv2d.mib_moved", "MiB"),
    ("graph.bilinear_resize.s", "s"),
    ("graph.adaptive_avg_pool.s", "s"),
    ("graph.rfm_forward.s", "s"),
    ("graph.two_way_fpn_forward.s", "s"),
    ("fileio.atomic_write_text.s", "s"),
    ("fileio.bytes_written", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the op's list, -1 for the op itself


@dataclass
class OpTrace:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time direct children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out


@contextlib.contextmanager
def patched(originals_to_replacements: dict):
    """Replace each original function at every detkit module attribute
    that holds it, and put the originals back on exit."""
    by_id = {id(orig): (orig, repl) for orig, repl in originals_to_replacements.items()}
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "detkit" or mod_name.startswith("detkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            orig, repl = by_id.get(id(value), (None, None))
            if orig is value:
                setattr(mod, attr, repl)
                undo.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


class Tracer:
    """Records one OpTrace per op while installed."""

    def __init__(self):
        self.ops: list[OpTrace] = []
        self._current: OpTrace | None = None
        self._stack: list[int] = []
        self._positives: dict[int, tuple[object, int]] = {}

    def _wrap(self, fn, name, counter):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer._current
            if op is None:
                return fn(*args, **kwargs)
            index = len(op.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1])
            op.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer._add(counter(signature.bind(*args, **kwargs).arguments, result))
            elif name == "losses.total_loss":
                match = signature.bind(*args, **kwargs).arguments["match"]
                tracer._add({"losses.positives": tracer._cached_positives(match)})
            return result

        return traced

    def _add(self, counts):
        op = self._current
        for key, value in counts.items():
            op.counts[key] = op.counts.get(key, 0) + int(value)

    def _cached_positives(self, match) -> int:
        # total_loss sees the same per-image match every epoch; the cache
        # holds the match object so its id stays unique for the op
        hit = self._positives.get(id(match))
        if hit is None or hit[0] is not match:
            hit = (match, _positives(match))
            self._positives[id(match)] = hit
        return hit[1]

    @contextlib.contextmanager
    def installed(self):
        replacements = {}
        for module, fn_name, span_name, counter in TARGETS:
            original = getattr(importlib.import_module(module), fn_name)
            replacements[original] = self._wrap(original, span_name, counter)
        with patched(replacements):
            yield self

    @contextlib.contextmanager
    def op(self):
        """One traced op: the root span covers the op's whole wall time."""
        trace = OpTrace([Span(OP_SPAN, 0.0, 0.0, -1)])
        self._current, self._stack = trace, [0]
        trace.spans[0].start = time.perf_counter()
        try:
            yield trace
        finally:
            trace.spans[0].end = time.perf_counter()
            self._current, self._stack = None, []
            self._positives.clear()
            for name in {s.name for s in trace.spans[1:]}:
                trace.counts[f"{name}.calls"] = sum(1 for s in trace.spans if s.name == name)
            self.ops.append(trace)


class CountMismatch(Exception):
    pass


def repeated_counts(passes: list[list[dict[str, int]]]) -> list[dict[str, int]]:
    """The per-op counts of one pass; every other pass must repeat them
    exactly."""
    first = passes[0]
    for other in passes[1:]:
        for i, (got, want) in enumerate(zip(other, first)):
            if got != want:
                diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                raise CountMismatch(f"op {i} of a pass: counts {diff} do not repeat")
        if len(other) != len(first):
            raise CountMismatch(f"a pass of {len(other)} ops, another of {len(first)}")
    return first


def layer_metrics(ops: list[OpTrace], ops_per_pass: int) -> tuple[dict[str, float], list[dict[str, int]]]:
    """Per-layer metrics per op, and the per-op counts of one pass. Self
    times are medians over all traced ops; counts are means over a pass,
    which every traced pass must repeat exactly."""
    first = repeated_counts(
        [[op.counts for op in ops[i : i + ops_per_pass]] for i in range(0, len(ops), ops_per_pass)]
    )

    def count(key):
        return sum(c.get(key, 0) for c in first) / len(first)

    self_times = [op.self_times() for op in ops]

    def seconds(span_name):
        return statistics.median(st.get(span_name, 0.0) for st in self_times)

    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".s"):
            out[name] = seconds(name[:-2])
        elif unit == "count":
            out[name] = count(name)
    out["cli.self_s"] = seconds(OP_SPAN)
    out["nms.kept_ratio"] = count("nms.dets_kept") / count("nms.dets_in") if count("nms.dets_in") else 0.0
    nms_s = out["nms.greedy_nms.s"]
    out["nms.dets_per_s"] = count("nms.dets_in") / nms_s if nms_s else 0.0
    out["graph.conv2d.gflop"] = count("graph.conv2d.flop") / 1e9
    conv_s = out["graph.conv2d.s"]
    out["graph.conv2d.gflops"] = out["graph.conv2d.gflop"] / conv_s if conv_s else 0.0
    out["graph.conv2d.mib_moved"] = count("graph.conv2d.bytes_moved") / 2**20
    return out, first


def spans_document(ops: list[OpTrace]) -> list[dict]:
    return [
        {
            "op": i,
            "counts": op.counts,
            "spans": [
                {"id": j, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for j, s in enumerate(op.spans)
            ],
        }
        for i, op in enumerate(ops)
    ]
