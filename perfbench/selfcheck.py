"""Self-check of the benchmark at reduced sizes; no wall-clock bounds.

    python3 perfbench/selfcheck.py

Runs every workload through run.py at tiny sizes, once untraced and
twice traced, and checks the printed result against BENCHMARK.json. Then it
feeds the verification path outputs it must reject: a wrong recorded
digest, a non-finite artifact, AP outside [0, 1], a graph output off by
more than the tolerance, a graph reference off its recorded fingerprint,
and traced counts that do not repeat. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from detkit.graph import TensorNCHW  # noqa: E402

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for w in spec["workloads"]:
        for trace in (0, 1, 1):  # the second traced run repeats the first one's counts
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            expect(
                result.get("correct") is True and result.get("failed") == 0
                and {k: v["unit"] for k, v in result.get("metrics", {}).items()} == listed[trace],
                f"{w['name']} --trace {trace}: correct, no failed op, every listed metric and unit"
                + ("" if result else f" (exit {proc.returncode}: {proc.stderr.strip()[-300:]})"),
            )


def tampered(wl, seed: int, edit) -> str | None:
    """Run one op, let ``edit`` damage its output directory, then check it."""
    code, out, log = wl.run(seed)
    edit(out)
    return wl.check(seed, (code, out, log))


def check_cli_verification(work: Path) -> None:
    wl = workloads.make_workload("ab_report", 0, work / "ab", tiny=True)
    expect(wl.check(0, wl.run(0)) is None, "first op of a seed passes the value checks")
    expect(wl.check(0, wl.run(0)) is None, "a repeat of the seed is byte-identical")

    def append(name, text):
        return lambda out: (out / name).write_text((out / name).read_text() + text)

    expect(tampered(wl, 0, append("iou_tar_hist.csv", "0.0,1.0,1\n")) is not None,
           "a changed artifact of a seen seed is rejected")
    expect(tampered(wl, 1, append("iou_tar_hist.csv", "nan,1.0,1\n")) is not None,
           "a non-finite CSV cell is rejected")

    def ap_out_of_range(out):
        path = out / "nms_ab_report.json"
        doc = json.loads(path.read_text())
        doc["modes"]["standard"]["ap_report"]["ap"] = 1.5
        path.write_text(json.dumps(doc))

    expect(tampered(wl, 2, ap_out_of_range) is not None, "AP outside [0, 1] is rejected")

    recorded = workloads.make_workload("ab_report", 0, work / "rec", tiny=True,
                                       expected={"0": {"nms_ab_report.json": "0" * 64}})
    expect(recorded.check(0, recorded.run(0)) is not None, "a digest differing from the record is rejected")
    fit = workloads.make_workload("fit_default", 0, work / "fit", tiny=True)
    expect(fit.check(0, fit.run(0)) is None, "a tiny fit op verifies")


def check_graph_verification(work: Path) -> None:
    probe = workloads.make_workload("graph_forward", 0, None, tiny=True)
    ref = reference.forward(probe)
    path = work / "reference.npz"
    reference.save(path, ref)
    wl = workloads.make_workload("graph_forward", 0, None, tiny=True, reference_path=path)
    outputs = wl.run(0)
    expect(wl.check(0, outputs) is None, "graph outputs match the reference layers")
    off = [TensorNCHW(t.data.copy()) for t in outputs]
    off[-1].data.flat[0] += 1e-9
    expect(wl.check(0, off) is not None, "a graph output off by 1e-9 is rejected")

    prints = reference.fingerprint(ref)
    recorded = workloads.make_workload("graph_forward", 0, None, tiny=True, expected={"0": prints},
                                       reference_path=path)
    expect(recorded.check(0, outputs) is None, "a reference matching its recorded fingerprint passes")
    for what, edit in (("dot product", lambda p: p.update(dot=p["dot"] + 1e-6)),
                       ("samples", lambda p: p["samples"].__setitem__(0, p["samples"][0] + 1e-9))):
        bad = json.loads(json.dumps(prints))
        edit(bad[1])
        recorded.recorded = bad
        expect(recorded.check(0, outputs) is not None, f"a reference off its recorded {what} is rejected")


def check_count_repeat() -> None:
    ops = [tracing.OpTrace(counts={"nms.dets_in": 10}), tracing.OpTrace(counts={"nms.dets_in": 11})]
    for op in ops:
        op.spans.append(tracing.Span(tracing.OP_SPAN, 0.0, 1.0, -1))
    try:
        tracing.layer_metrics(ops, 1)
        raised = False
    except tracing.CountMismatch:
        raised = True
    expect(raised, "traced counts that do not repeat fail the run")
    _, counts = tracing.layer_metrics(ops[:1] * 2, 1)
    expect(counts == [{"nms.dets_in": 10}], "traced counts that repeat pass")


def main() -> int:
    check_runs()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        check_cli_verification(Path(tmp))
        check_graph_verification(Path(tmp))
    check_count_repeat()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
