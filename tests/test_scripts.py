"""Smoke runs of the experiment drivers in scripts/ at their smallest sizes."""

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
