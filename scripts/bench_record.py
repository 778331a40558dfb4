#!/usr/bin/env python3
"""Keep a benchmark trajectory: BENCH_<workload>.json at the repository root.

``add`` appends one entry per result file that ``perfbench/run.py --trace 0``
wrote (``perfbench-results/<workload>-seed<n>-trace0.json``), under the
label ``parent`` or ``change``. Each entry holds the label, the git commit,
the source sha256, the host, the Python and numpy versions, the seed, the
seconds, the attempted and failed op counts, and the end-to-end metrics that
BENCHMARK.json declares.

``summary`` prints, per label and metric, the median and the interquartile
range, and how many pairs the change won: the i-th parent and the i-th change
entries make pair i, so record them alternately.

    python3 scripts/bench_record.py add --label parent perfbench-results/fit_default-seed0-trace0.json
    python3 scripts/bench_record.py summary BENCH_fit_default.json

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE, CHANGE = "parent", "change"


def end_to_end_metrics() -> dict[str, str]:
    """Name -> "lower" or "higher", the end-to-end metrics of BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: m["better"] for m in declared}


def entry(label: str, result: dict) -> dict:
    res, env = result["result"], result["result"]["env"]
    return {
        "label": label,
        "git_commit": env["git_commit"],
        "source_sha256": env["source_sha256"],
        "host": f"{env['cpu_model']}, {env['nproc']} CPUs",
        "python": env["python"],
        "numpy": env["numpy"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in end_to_end_metrics()},
    }


def add(args) -> None:
    for path in args.results:
        result = json.loads(Path(path).read_text())
        if result["trace"]:
            raise SystemExit(f"{path}: a traced run holds no end-to-end metrics")
        bench = Path(args.bench_dir) / f"BENCH_{result['workload']}.json"
        doc = json.loads(bench.read_text()) if bench.exists() else {"workload": result["workload"], "entries": []}
        doc["entries"].append(entry(args.label, result))
        bench.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{bench.name}: {len(doc['entries'])} entries")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(args) -> None:
    doc = json.loads(Path(args.bench).read_text())
    better = end_to_end_metrics()
    by_label: dict[str, list[dict]] = {}
    for e in doc["entries"]:
        by_label.setdefault(e["label"], []).append(e)
    print(f"{doc['workload']}: " + ", ".join(f"{label} {len(es)} runs" for label, es in by_label.items()))
    for name in better:
        for label, es in by_label.items():
            q1, median, q3 = quartiles([e["metrics"][name] for e in es])
            print(f"  {name} {label}: median {median:.6g}, IQR {q3 - q1:.6g}")
        base, new = by_label.get(BASE, []), by_label.get(CHANGE, [])
        pairs = list(zip(base, new))
        if pairs:
            sign = 1.0 if better[name] == "lower" else -1.0
            won = sum(sign * (n["metrics"][name] - b["metrics"][name]) < 0.0 for b, n in pairs)
            q1, base_median, q3 = quartiles([e["metrics"][name] for e in base])
            gain = sign * (base_median - statistics.median(e["metrics"][name] for e in new))
            print(f"  {name}: {CHANGE} won {won} of {len(pairs)} pairs; median gain {gain:.6g} "
                  f"({'beyond' if abs(gain) > q3 - q1 else 'within'} the {BASE} IQR {q3 - q1:.6g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    a = sub.add_parser("add", help="append result files to their BENCH file")
    a.add_argument("--label", required=True, choices=(BASE, CHANGE))
    a.add_argument("--bench-dir", default=str(ROOT), help="where the BENCH files live (the repository root)")
    a.add_argument("results", nargs="+", help="result JSON files of perfbench/run.py --trace 0")
    a.set_defaults(func=add)
    s = sub.add_parser("summary", help="medians, IQRs and pair wins of one BENCH file")
    s.add_argument("bench")
    s.set_defaults(func=summary)
    args = ap.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
