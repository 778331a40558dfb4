"""The benchmark's workloads: inputs made from a seed, one op, and the
check of each op's output.

A workload exposes ``pass_inputs`` (the inputs of one pass, run in
order), ``run(input)`` (one op, the only timed part) and
``check(input, output)`` (returns an error message, or None when the
output is verified; it also removes the op's files).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from detkit import cli, graph
from detkit.graph import TensorNCHW

import reference

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# ab_report ops take consecutive seeds from this cycle, starting at the
# benchmark seed; digests are recorded for the cycle that starts at 0.
CYCLE = 16

# SSD-style pyramid at VGG16 widths: (channels, side) of the six basic maps
GRAPH_DEFAULT = {
    "rfm": (512, 40),
    "levels": [(512, 40), (1024, 20), (512, 10), (256, 5), (256, 3), (256, 1)],
    "shallow": (256, 80),
    "flow": 256,
    "out": 512,
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


# ---------------------------------------------------------------- CLI ops


def _finite_cells(path: Path) -> str | None:
    with open(path, newline="") as f:
        for row in csv.reader(f):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return f"{path.name}: non-finite cell {cell!r}"
    return None


def _json_problem(name: str, doc, key: str = "") -> str | None:
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == "ap_report":
                bad = {ck: cv for ck, cv in v.items() if not 0.0 <= cv <= 1.0}
                if bad:
                    return f"{name}: AP components outside [0, 1]: {bad}"
            problem = _json_problem(name, v, k)
            if problem:
                return problem
    elif isinstance(doc, list):
        for v in doc:
            problem = _json_problem(name, v, key)
            if problem:
                return problem
    elif isinstance(doc, float) and not math.isfinite(doc):
        return f"{name}: non-finite value at {key!r}"
    return None


def _svg_problem(path: Path) -> str | None:
    for elem in ET.parse(path).iter():
        for attr, value in elem.attrib.items():
            try:
                number = float(value)
            except ValueError:
                continue
            if not math.isfinite(number):
                return f"{path.name}: non-finite attribute {attr}={value!r}"
    return None


def value_problem(paths: list[Path]) -> str | None:
    """Finite numbers in every CSV, JSON and SVG artifact; AP in [0, 1].
    Files are read one at a time, so checking adds little to peak memory."""
    for path in paths:
        if path.suffix == ".csv":
            problem = _finite_cells(path)
        elif path.suffix == ".json":
            problem = _json_problem(path.name, json.loads(path.read_text()))
        elif path.suffix == ".svg":
            problem = _svg_problem(path)
        else:
            problem = f"unexpected artifact {path.name}"
        if problem:
            return problem
    return None


class CliWorkload:
    """One op is ``detkit <command> --config <config> --seed <s>`` into a
    fresh output directory."""

    def __init__(self, command: str, required: tuple[str, ...], seeds: list[int],
                 config: dict, work_dir: Path, expected: dict):
        self.command = command
        self.required = required
        self.pass_inputs = seeds
        self.work_dir = work_dir
        self.expected = expected  # seed (str) -> artifact -> sha256
        self.seen: dict[int, dict[str, str]] = {}
        self.config_path = work_dir / "config.json"
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(config))
        self._ops = 0

    def run(self, seed: int):
        self._ops += 1
        out = self.work_dir / f"op{self._ops}"
        argv = [self.command, "--config", str(self.config_path), "--seed", str(seed), "--out", str(out)]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        return code, out, log.getvalue()

    def check(self, seed: int, output) -> str | None:
        code, out, log = output
        try:
            if code != 0:
                return f"exit code {code}: {log.strip()}"
            paths = sorted(out.iterdir())
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
            missing = [name for name in self.required if name not in digests]
            if missing:
                return f"missing artifacts {missing}"
            want = self.expected.get(str(seed)) or self.seen.get(seed)
            if want is None:
                problem = value_problem(paths)
                if problem:
                    return problem
                self.seen[seed] = digests
            elif digests != want:
                diff = sorted(n for n in set(digests) | set(want) if digests.get(n) != want.get(n))
                return f"seed {seed}: artifacts differ from the recorded digests: {diff}"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- graph op


class GraphWorkload:
    """One op is ``rfm_forward`` on the RFE input plus
    ``two_way_fpn_forward`` on the six basic maps and the shallow map.

    Ops are checked against ``reference_path``, the outputs reference.py
    wrote for this seed; the reference itself is checked against the
    fingerprints recorded for the seed, if any."""

    def __init__(self, seed: int, size: dict, expected: dict, reference_path: Path | None = None):
        rng = np.random.default_rng(seed)

        def tensor(channels, side):
            return TensorNCHW(rng.uniform(-1.0, 1.0, (1, channels, side, side)))

        self.seed = seed
        self.pass_inputs = [seed]
        self.x = tensor(*size["rfm"])
        self.maps = [tensor(c, side) for c, side in size["levels"]]
        self.shallow = tensor(*size["shallow"])
        self.w_rfm = graph.init_rfm_weights(size["rfm"][0], seed)
        self.w_fpn = graph.init_two_way_fpn_weights(
            [c for c, _ in size["levels"]], size["shallow"][0], size["flow"], size["out"], seed
        )
        self.recorded = expected.get(str(seed))
        self.reference_path = reference_path

    def run(self, _seed):
        return [graph.rfm_forward(self.x, self.w_rfm)] + graph.two_way_fpn_forward(
            self.maps, self.shallow, self.w_fpn
        )

    def check(self, _seed, outputs) -> str | None:
        if self.reference_path is None:
            return "no reference outputs to check against"
        # reference outputs are loaded one at a time and dropped after use
        with np.load(self.reference_path) as ref:
            if len(outputs) != len(ref.files):
                return f"{len(outputs)} outputs, reference has {len(ref.files)}"
            for i, got in enumerate(outputs):
                want = ref[f"out{i}"]
                if self.recorded is not None:
                    problem = reference.fingerprint_problem(i, want, self.recorded[i])
                    if problem:
                        return f"seed {self.seed}: reference differs from the record: {problem}"
                if got.data.shape != want.shape:
                    return f"output {i}: shape {got.data.shape} != reference {want.shape}"
                if not np.all(np.isfinite(got.data)):
                    return f"output {i}: non-finite values"
                err = float(np.max(np.abs(got.data - want)))
                if err > reference.ATOL:
                    return f"output {i}: max |diff| {err:.3g} from the reference exceeds {reference.ATOL}"
        return None


# ---------------------------------------------------------------- registry

# reduced sizes for the self-check
TINY_CLI_CONFIG = {"n_images": 1, "grids": [5, 3], "fit": {"epochs": 3, "snapshots": 2}}
TINY_GRAPH = {
    "rfm": (8, 6),
    "levels": [(8, 6), (16, 3), (8, 2), (8, 1)],
    "shallow": (8, 12),
    "flow": 8,
    "out": 16,
}


def make_workload(name: str, seed: int, work_dir: Path | None, tiny: bool = False,
                  expected: dict | None = None, reference_path: Path | None = None):
    """``expected`` defaults to the recorded table at full size and to no
    records at the reduced size. ``work_dir`` is used by the CLI workloads,
    ``reference_path`` by graph_forward."""
    if expected is None:
        expected = {} if tiny else load_expected().get(name, {})
    config = TINY_CLI_CONFIG if tiny else {}
    if name == "fit_default":
        return CliWorkload("fit", ("fit_report.json", "detections_final.csv", "loss_trace.csv"),
                           [seed], config, work_dir, expected)
    if name == "ab_report":
        return CliWorkload("report", ("nms_ab_report.json", "iou_tar_hist.csv"),
                           [seed + i for i in range(CYCLE)], config, work_dir, expected)
    if name == "graph_forward":
        return GraphWorkload(seed, TINY_GRAPH if tiny else GRAPH_DEFAULT, expected, reference_path)
    raise ValueError(f"unknown workload {name!r}")
