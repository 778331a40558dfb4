"""Smoke runs of the experiment drivers in scripts/ at their smallest sizes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import detkit
from detkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
# the src/ directory this test run imports detkit from, so the script
# drivers run the same detkit (under scripts/mutants.py, the mutated copy)
SRC = Path(detkit.__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # pyproject.toml's filterwarnings does not reach a subprocess
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# perfbench's tiny config
TINY = {"n_images": 1, "grids": [5, 3], "fit": {"epochs": 3, "snapshots": 2}}


def claims_sweep(tmp_path: Path, *flags: str) -> tuple[Path, Path, str]:
    """Runs the claims sweep at TINY over seeds 0 and 1; returns the config, out dir and stdout."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "sweep"
    stdout = run_script("run_claims_sweep.py", "--config", str(config), "--seeds", "2", *flags, "--out", str(out),
                        cwd=tmp_path)
    return config, out, stdout


def assert_nms_rows_are_report_rows(ab: list[str], seed: int, report: Path) -> None:
    """Checks seed's two nms_ab_sweep.csv lines against report's nms_ab_report.json, by column name."""
    header = ab[0].split(",")
    doc = json.loads((report / "nms_ab_report.json").read_text())
    for line, mode in zip(ab[1 + 2 * seed:3 + 2 * seed], ("standard", "iou_guided")):
        cells = line.split(",")
        res = doc["modes"][mode]
        assert cells[:2] == [str(seed), mode]
        assert [float(c) for c in cells[2:8]] == [res["ap_report"][name] for name in header[2:8]]
        assert [int(c) for c in cells[8:]] == [res["kept"], res["high_score_low_iou"]]


def test_claims_sweep_nms_rows_are_report_rows(tmp_path):
    config, sweep, stdout = claims_sweep(tmp_path)
    assert stdout.splitlines()[-1].startswith("guided mode kept strictly fewer confident low-IOU boxes in ")
    assert sorted(p.name for p in sweep.iterdir()) == ["nms_ab_sweep.csv"]
    ab = (sweep / "nms_ab_sweep.csv").read_text().splitlines()
    assert ab[0].split(",") == ["seed", "mode", "ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large", "kept",
                                "high_score_low_iou"]
    assert len(ab) == 1 + 2 * 2
    for seed in (0, 1):
        out = tmp_path / f"report{seed}"
        assert main(["report", "--config", str(config), "--seed", str(seed), "--out", str(out)]) == 0
        assert_nms_rows_are_report_rows(ab, seed, out)


def test_claims_sweep_ablation_rows_are_report_rows(tmp_path):
    config, sweep, _ = claims_sweep(tmp_path, "--ablation")
    assert sorted(p.name for p in sweep.iterdir()) == ["ablation_sweep.csv", "nms_ab_sweep.csv"]
    ab = (sweep / "nms_ab_sweep.csv").read_text().splitlines()
    assert len(ab) == 1 + 2 * 2
    ablation = (sweep / "ablation_sweep.csv").read_text().splitlines()
    assert len(ablation) == 1 + 2 * 3
    for seed in (0, 1):
        out = tmp_path / f"report{seed}"
        assert main(["report", "--config", str(config), "--seed", str(seed), "--ablation", "--out", str(out)]) == 0
        assert_nms_rows_are_report_rows(ab, seed, out)
        table = (out / "ablation.csv").read_text().splitlines()
        assert ablation[0] == "seed," + table[0]
        assert ablation[1 + 3 * seed:4 + 3 * seed] == [f"{seed},{line}" for line in table[1:]]


def test_rf_comparison_prints_both_tables(tmp_path):
    stdout = run_script("rf_comparison.py", cwd=tmp_path)
    header = "name,kind,kernel,stride,dilation,padding,in_channels,out_channels,rf,jump,params,cum_params"
    assert stdout.splitlines().count(header) == 2


def synthetic_result(path: Path, op_s: float, rss: float, source: str = "f" * 64, failed: int = 0) -> Path:
    """A result file in the shape perfbench/run.py writes with --trace 0."""
    env = {"git_commit": "abc", "source_sha256": source, "python": "3.11.7", "numpy": "2.4.6",
           "cpu_model": "Test CPU", "nproc": 2}
    metrics = {"setup_s": 0.25, "op_p50_s": op_s, "ops_per_s": 1.0 / op_s, "peak_rss_mib": rss}
    path.write_text(json.dumps({
        "workload": "fit_default", "seed": 0, "seconds": 8, "trace": 0,
        "result": {"attempted": 30, "failed": failed, "env": env},
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }))
    return path


def test_bench_record_appends_and_summarises(tmp_path):
    for i, (label, op_s) in enumerate([("parent", 0.30), ("change", 0.20), ("parent", 0.31), ("change", 0.32)]):
        result = synthetic_result(tmp_path / f"r{i}.json", op_s, 50.0 + i, "a" * 64 if label == "parent" else "f" * 64)
        stdout = run_script("bench_record.py", "add", "--label", label, "--bench-dir", str(tmp_path), str(result),
                            cwd=tmp_path)
        assert stdout == f"BENCH_fit_default.json: {i + 1} entries\n"
    doc = json.loads((tmp_path / "BENCH_fit_default.json").read_text())
    assert [e["label"] for e in doc["entries"]] == ["parent", "change", "parent", "change"]
    first = doc["entries"][0]
    assert first["host"] == "Test CPU, 2 CPUs" and first["seed"] == 0 and first["attempted"] == 30
    assert first["metrics"] == {"setup_s": 0.25, "op_p50_s": 0.30, "ops_per_s": 1.0 / 0.30, "peak_rss_mib": 50.0}
    lines = run_script("bench_record.py", "summary", str(tmp_path / "BENCH_fit_default.json"), cwd=tmp_path).splitlines()
    assert lines[:2] == ["fit_default: parent 2 runs, change 2 runs", "  left out 0 earlier entries of other sources"]
    assert lines[2:5] == ["  failed ops parent: 0 of 60 (0.00%)", "  failed ops change: 0 of 60 (0.00%)",
                          "  failed ops: change share not above the parent share"]
    assert "  op_p50_s parent: median 0.305, IQR 0.005" in lines
    assert "  op_p50_s: change won 1 of 2 pairs; median gain 0.045 (beyond the parent IQR 0.005)" in lines
    assert "  op_p50_s: change median 14.8% better, within the 25% bound" in lines
    assert "  peak_rss_mib: change won 0 of 2 pairs; median gain -1 (within the parent IQR 1)" in lines
    assert "  peak_rss_mib: change median 2.0% worse, within the 15% bound" in lines

    # a second recording: the parent is the first recording's change, the
    # change a new source that failed 3 ops; only these entries are compared
    second = [("parent", 0.20, 50.0, "f" * 64, 0), ("change", 0.22, 60.0, "e" * 64, 0),
              ("parent", 0.21, 51.0, "f" * 64, 0), ("change", 0.30, 61.0, "e" * 64, 3)]
    for i, (label, op_s, rss, source, failed) in enumerate(second, start=4):
        result = synthetic_result(tmp_path / f"r{i}.json", op_s, rss, source, failed)
        run_script("bench_record.py", "add", "--label", label, "--bench-dir", str(tmp_path), str(result), cwd=tmp_path)
    lines = run_script("bench_record.py", "summary", str(tmp_path / "BENCH_fit_default.json"), cwd=tmp_path).splitlines()
    assert lines[:2] == ["fit_default: parent 2 runs, change 2 runs", "  left out 4 earlier entries of other sources"]
    assert lines[2:5] == ["  failed ops parent: 0 of 60 (0.00%)", "  failed ops change: 3 of 60 (5.00%)",
                          "  failed ops: change share above the parent share"]
    assert "  op_p50_s change: median 0.26, IQR 0.04" in lines
    assert "  op_p50_s: change won 0 of 2 pairs; median gain -0.055 (beyond the parent IQR 0.005)" in lines
    assert "  op_p50_s: change median 26.8% worse, beyond the 25% bound" in lines
    assert "  peak_rss_mib: change median 19.8% worse, beyond the 15% bound" in lines


def test_mutants_catches_an_entry_and_fails_a_stale_one(capsys):
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    entry = next(m for m in mutants.MUTANTS if m.name == "nms._suppressing keeps a pair at the threshold")
    stale = entry._replace(name="stale entry", text="inter / union >>> iou_threshold")
    assert mutants.main([entry, stale]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("caught ") and lines[0].endswith(entry.name)
    assert lines[1].startswith("stale: the text occurs 0 times in src/detkit/nms.py ")
    assert lines[1].endswith("stale entry")
    assert lines[2:] == ["1 of 2 mutants as expected", "  not as expected: stale entry"]
