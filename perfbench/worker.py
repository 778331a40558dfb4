"""One workload process: set up, run the closed loop, print one JSON line.

Started by run.py, which passes ``--t0`` (its perf_counter just before
starting this process; the clock is system-wide on Linux) so that set-up
time covers interpreter start, imports and fixtures. The graph_forward
reference outputs are computed beforehand in another process
(reference.py) and only read when an op is checked, so neither set-up
time nor peak memory includes them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload, acc: dict, tracer=None) -> None:
    """One pass over the workload's inputs, one op at a time, accumulated
    into ``acc`` (durations of verified ops, attempted and failed)."""
    for inp in workload.pass_inputs:
        acc["attempted"] += 1
        try:
            if tracer is None:
                t = time.perf_counter()
                out = workload.run(inp)
                took = time.perf_counter() - t
            else:
                with tracer.op() as op:
                    out = workload.run(inp)
                took = op.spans[0].end - op.spans[0].start
            problem = workload.check(inp, out)
        except (Exception, SystemExit):
            problem = traceback.format_exc()
        if problem:
            acc["failed"] += 1
            print(f"op {acc['attempted']} (input {inp}) failed: {problem}", file=sys.stderr)
        else:
            acc["durations"].append(took)


def new_phase() -> dict:
    return {"durations": [], "attempted": 0, "failed": 0}


def blas_info(np) -> dict:
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(np) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # the checkout may not be a git repository: fingerprint the source instead
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--reference", help="graph_forward reference outputs (reference.py)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="reduced sizes (self-check)")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    workload = workloads.make_workload(args.workload, args.seed, Path(args.work_dir), tiny=args.tiny,
                                       reference_path=Path(args.reference) if args.reference else None)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    if args.trace:
        from tracing import Tracer, layer_metrics, spans_document

        # untraced and traced passes alternate, so drift in machine speed
        # cancels out of the overhead ratio
        plain, traced, tracer = new_phase(), new_phase(), Tracer()
        start = time.perf_counter()
        while not traced["attempted"] or time.perf_counter() - start < args.seconds:
            run_pass(workload, plain)
            with tracer.installed():
                run_pass(workload, traced, tracer)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        layers, pass_counts = layer_metrics(tracer.ops, len(workload.pass_inputs))
        if plain["durations"] and traced["durations"]:
            layers["trace.overhead_ratio"] = (
                statistics.median(traced["durations"]) / statistics.median(plain["durations"])
            )
        layers["failed_ratio"] = failed / attempted
        result.update(
            attempted=attempted, failed=failed, layers=layers, pass_counts=pass_counts,
            untraced=plain, traced=traced, spans=spans_document(tracer.ops),
        )
    else:
        phase = new_phase()
        start = time.perf_counter()
        while not phase["attempted"] or time.perf_counter() - start < args.seconds:
            run_pass(workload, phase)
        phase["wall_s"] = time.perf_counter() - start
        result.update(attempted=phase["attempted"], failed=phase["failed"], phase=phase)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
