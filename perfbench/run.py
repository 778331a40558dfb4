"""detkit benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a detkit checkout; detkit is imported from ``src/``.
Workloads (see workloads.py and BENCHMARK.json):

  fit_default    ``detkit fit --config {} --seed <seed>``, the paper's
                 train -> suppress -> score loop at its default scale
  ab_report      ``detkit report --config {} --seed s`` over a cycle of 16
                 consecutive seeds from <seed>: many small NMS/eval calls
  graph_forward  ``rfm_forward`` 512x40x40 plus ``two_way_fpn_forward`` on
                 the six SSD-style basic maps: the only workload on ``graph``

Each workload runs in its own process (worker.py) as a closed loop with
one client. Set-up is repeated in SETUP_SAMPLES processes and its median
reported. For graph_forward, reference.py first computes the reference
outputs in a process of its own. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run (tracing.py), which also times untraced ops to
give the tracing overhead. Full results, the environment and the spans are written under
``perfbench-results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, CountMismatch, repeated_counts  # noqa: E402

WORKLOADS = ("fit_default", "ab_report", "graph_forward")

SETUP_SAMPLES = 5
DEADLINE_S = 175.0
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / "perfbench-results"


class BenchError(Exception):
    pass


def spawn(cmd: list[str], deadline: float, what: str) -> str:
    """Run one child process to its end; returns its stdout."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def spawn_worker(args, deadline: float, setup_only: bool, reference: Path | None = None) -> dict:
    work = WORK_DIR / f"{args.workload}-{time.monotonic_ns()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if reference is not None:
        cmd += ["--reference", str(reference)]
    try:
        out = spawn(cmd + ["--t0", repr(time.perf_counter())], deadline, "worker")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def spawn_reference(args, deadline: float) -> Path:
    """graph_forward reference outputs, computed before the measured worker starts."""
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"reference-{time.monotonic_ns()}.npz"
    cmd = [sys.executable, str(HERE / "reference.py"), "--seed", str(args.seed), "--out", str(path)]
    spawn(cmd + (["--tiny"] if args.tiny else []), deadline, "reference process")
    return path


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setups: list[float]) -> dict:
    phase = res["phase"]
    durations = phase["durations"]
    if not durations:
        raise BenchError("no op was verified")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_p50_s": metric(statistics.median(durations), "s"),
        "ops_per_s": metric(len(durations) / phase["wall_s"], "1/s"),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB"),
    }


def per_layer(res: dict) -> dict:
    layers = res["layers"]
    missing = [name for name, _ in PER_LAYER if name not in layers]
    if missing:
        raise BenchError(f"traced run produced no value for {missing}")
    return {name: metric(layers[name], unit) for name, unit in PER_LAYER}


def bench(args) -> dict:
    """Run the set-up samples and the measured process; returns the full result."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    reference = spawn_reference(args, deadline) if args.workload == "graph_forward" else None
    res = spawn_worker(args, deadline, setup_only=False, reference=reference)
    setups.append(res["setup_s"])
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setups, "result": res, "metrics": metrics,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "detkit" / "__init__.py").is_file():
        print(f"no detkit source under {ROOT / 'src'}; run from a detkit checkout", file=sys.stderr)
        return 2
    try:
        full = bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    res = full["result"]
    RESULTS_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    if args.trace:
        # traced runs of one workload and seed on the same source must count alike
        counts_path = RESULTS_DIR / f"counts-{label}-src{res['env']['source_sha256'][:16]}.json"
        try:
            if counts_path.exists():
                repeated_counts([json.loads(counts_path.read_text()), res["pass_counts"]])
        except CountMismatch as exc:
            print(f"benchmark failed: counts differ from an earlier traced run: {exc}", file=sys.stderr)
            return 1
        counts_path.write_text(json.dumps(res["pass_counts"]))
    stem = RESULTS_DIR / f"{label}-trace{args.trace}"
    spans = res.pop("spans", None)
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1))
    samples = len((res.get("phase") or res["traced"])["durations"])
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    print(f"op samples {samples}, set-up samples {len(full['setup_samples_s'])}; details in {stem}.json")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
