"""Smoke runs of the experiment drivers in scripts/ at their smallest sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args,header", [
    ("run_nms_ab_sweep.py", ["--seeds", "1"], "seed,mode,ap,ap50,kept,high_score_low_iou"),
    (
        "run_ablation_sweep.py", ["--seeds", "1", "--epochs", "2"],
        "seed,losses,initial_loss,final_loss,ap,ap50,ap75",
    ),
])
def test_sweep_writes_csv(tmp_path, script, args, header):
    out = tmp_path / "sweep.csv"
    run_script(script, *args, "--out", str(out), cwd=tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_rf_comparison_prints_both_tables(tmp_path):
    stdout = run_script("rf_comparison.py", cwd=tmp_path)
    header = "name,kind,kernel,stride,dilation,padding,in_channels,out_channels,rf,jump,params,cum_params"
    assert stdout.splitlines().count(header) == 2


def synthetic_result(path: Path, op_s: float, rss: float) -> Path:
    """A result file in the shape perfbench/run.py writes with --trace 0."""
    env = {"git_commit": "abc", "source_sha256": "f" * 64, "python": "3.11.7", "numpy": "2.4.6",
           "cpu_model": "Test CPU", "nproc": 2}
    metrics = {"setup_s": 0.25, "op_p50_s": op_s, "ops_per_s": 1.0 / op_s, "peak_rss_mib": rss}
    path.write_text(json.dumps({
        "workload": "fit_default", "seed": 0, "seconds": 8, "trace": 0,
        "result": {"attempted": 30, "failed": 0, "env": env},
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }))
    return path


def test_bench_record_appends_and_summarises(tmp_path):
    for i, (label, op_s) in enumerate([("parent", 0.30), ("change", 0.20), ("parent", 0.31), ("change", 0.32)]):
        result = synthetic_result(tmp_path / f"r{i}.json", op_s, 50.0 + i)
        stdout = run_script("bench_record.py", "add", "--label", label, "--bench-dir", str(tmp_path), str(result),
                            cwd=tmp_path)
        assert stdout == f"BENCH_fit_default.json: {i + 1} entries\n"
    doc = json.loads((tmp_path / "BENCH_fit_default.json").read_text())
    assert [e["label"] for e in doc["entries"]] == ["parent", "change", "parent", "change"]
    first = doc["entries"][0]
    assert first["host"] == "Test CPU, 2 CPUs" and first["seed"] == 0 and first["attempted"] == 30
    assert first["metrics"] == {"setup_s": 0.25, "op_p50_s": 0.30, "ops_per_s": 1.0 / 0.30, "peak_rss_mib": 50.0}
    lines = run_script("bench_record.py", "summary", str(tmp_path / "BENCH_fit_default.json"), cwd=tmp_path).splitlines()
    assert lines[0] == "fit_default: parent 2 runs, change 2 runs"
    assert "  op_p50_s parent: median 0.305, IQR 0.005" in lines
    assert "  op_p50_s: change won 1 of 2 pairs; median gain 0.045 (beyond the parent IQR 0.005)" in lines
    assert "  peak_rss_mib: change won 0 of 2 pairs; median gain -1 (within the parent IQR 1)" in lines
