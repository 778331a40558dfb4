"""Record the reference outputs that the benchmark checks ops against.

    python3 perfbench/record.py --workload ab_report

Records seeds 0 .. CYCLE-1 (workloads.py), the cycle that ab_report runs
from seed 0. For the CLI workloads this stores, per seed, the sha256 of
every artifact (after checking that its values are finite and its AP
components lie in [0, 1]); for graph_forward it stores the fingerprint of
each output of the reference forward (reference.py), after checking that
detkit's own outputs match that reference. Results merge into
expected.json. Record only on a commit whose outputs are known to be
right: later runs treat any difference on these seeds as a failed op.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402


def record(name: str, seed: int, work_dir: Path):
    if name == "graph_forward":
        work_dir.mkdir(parents=True)
        reference_path = work_dir / "reference.npz"
        wl = workloads.make_workload(name, seed, None, expected={}, reference_path=reference_path)
        ref = reference.forward(wl)
        reference.save(reference_path, ref)
    else:
        wl = workloads.make_workload(name, seed, work_dir, expected={})
    inp = wl.pass_inputs[0]
    start = time.perf_counter()
    out = wl.run(inp)
    took = time.perf_counter() - start
    problem = wl.check(inp, out)
    if problem:
        raise SystemExit(f"{name} seed {seed}: {problem}")
    print(f"{name} seed {seed}: op {took:.3f} s", file=sys.stderr)
    return reference.fingerprint(ref) if name == "graph_forward" else wl.seen[inp]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("fit_default", "ab_report", "graph_forward"))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        table = {str(s): record(args.workload, s, Path(tmp) / str(s)) for s in range(workloads.CYCLE)}
    expected = workloads.load_expected()
    expected[args.workload] = table
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
