"""Golden sha256 digests of the CLI paths that make no BLAS call: `gen`,
`report` without `--ablation`, `nms` in both modes on `gen`'s
detections, and `eval` of each `kept.csv`. A small config and two seeds
keep the run short; `fit` is left out because its numbers go through
BLAS, whose last bits may differ between machines.

Re-record, only for outputs known to be right, with
`python tests/test_golden_cli.py` from the repository root.
"""

import hashlib
import json
import sys
from pathlib import Path

from detkit.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_digests.json"
CONFIG = {"image_size": 96.0, "n_images": 2, "object_count": [2, 3], "grids": [12, 6, 3]}
SEEDS = (0, 1)
MODES = ("standard", "iou_guided")


def run_paths(work: Path) -> dict[str, str]:
    """Run every covered path into ``work``; sha256 of each artifact by its
    path relative to ``work``."""
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    for seed in SEEDS:
        out = work / f"seed{seed}"
        scenario = ["--config", str(config), "--seed", str(seed)]
        assert main(["gen", *scenario, "--out", str(out / "gen")]) == 0
        assert main(["report", *scenario, "--out", str(out / "report")]) == 0
        for mode in MODES:
            nms_out = out / f"nms_{mode}"
            assert main(["nms", "--detections", str(out / "gen" / "detections.csv"), "--mode", mode,
                         "--out", str(nms_out)]) == 0
            assert main(["eval", "--detections", str(nms_out / "kept.csv"),
                         "--ground-truths", str(out / "gen" / "ground_truths.json"), "--mode", mode,
                         "--out", str(out / f"eval_{mode}.json")]) == 0
    config.unlink()
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def test_cli_artifacts_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN_PATH.read_text())
    got = run_paths(tmp_path)
    assert sorted(got) == sorted(want)
    differ = sorted(name for name in want if got[name] != want[name])
    assert not differ, f"artifacts differ from the golden digests: {differ}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_paths(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
