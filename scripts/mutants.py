#!/usr/bin/env python3
"""Mutation checks: each mutant of src/ in MUTANTS must meet its expected outcome.

Each entry gives a file under src/, an exact source text that occurs there
once, its replacement, a pytest selection and the expected outcome: CAUGHT,
or EQUIVALENT for a mutant that is known to change nothing the selection
can see. For each entry the script copies src/ to a temporary directory,
applies the replacement there, and runs

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 SELECTION

from the repository root, with pytest's ``pythonpath`` pointed at the copy.
Pytest's exit 1 is a catch and exit 0 a survival; any other exit (a
selection that collects nothing, say) is an error. A text that is not found
once is a stale entry. The script prints one line per entry and every
survivor, and exits 1 when an entry is stale, errs, or does not meet its
expected outcome. The script drivers that ``tests/test_scripts.py`` starts
in a subprocess import detkit from where the test run does, so they read
the mutated copy too.

    python3 scripts/mutants.py

Standard library only.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CAUGHT, EQUIVALENT = "caught", "equivalent"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    text: str
    replacement: str
    selection: tuple[str, ...]
    expected: str


PLOT_TESTS = ("tests/test_harness.py::TestPlots",)
MUTANTS = [
    Mutant("plots._text keeps & unescaped", "detkit/harness/plots.py",
           's.replace("&", "&amp;").replace(', "s.replace(", PLOT_TESTS, CAUGHT),
    Mutant("plots._text keeps < unescaped", "detkit/harness/plots.py",
           '.replace("<", "&lt;")', "", PLOT_TESTS, CAUGHT),
    Mutant('plots: a scatter point closed with "/>"', "detkit/harness/plots.py",
           'fill-opacity="0.6" />', 'fill-opacity="0.6"/>', PLOT_TESTS, CAUGHT),
    Mutant("nms._suppressing keeps a pair at the threshold", "detkit/nms.py",
           "inter / union > iou_threshold", "inter / union >= iou_threshold", ("tests/test_nms.py",), CAUGHT),
    Mutant("nms.greedy_nms without the errstate around _greedy_rows", "detkit/nms.py",
           'with np.errstate(divide="ignore", invalid="ignore", over="ignore"):\n        return dets.take(',
           "if True:\n        return dets.take(", ("tests/test_nms.py",), CAUGHT),
    Mutant("nms._Grid: no slack on the centre-x window; its max(size) bound is loose by more than any rounding",
           "detkit/nms.py", "((1.0 - self.thr) / (1.0 + self.thr) + _SLACK)", "((1.0 - self.thr) / (1.0 + self.thr))",
           ("tests/test_nms.py",), EQUIVALENT),
    Mutant("losses: the CEJI gate excludes an IOU at the gate", "detkit/losses.py",
           "active = t >= CEJI_IOU_GATE", "active = t > CEJI_IOU_GATE", ("tests/test_losses.py",), CAUGHT),
    Mutant("toyfit._projected frees a score at PROB_EPS", "detkit/harness/toyfit.py",
           "((p <= PROB_EPS) & (grad < 0.0))", "((p < PROB_EPS) & (grad < 0.0))", ("tests/test_harness.py",), CAUGHT),
    Mutant("toyfit: the fitted decode catches only OverflowError", "detkit/harness/toyfit.py",
           "    except (OverflowError, ValueError) as exc:\n        raise NumericalError(f\"fitted model decodes",
           "    except OverflowError as exc:\n        raise NumericalError(f\"fitted model decodes",
           ("tests/test_cli.py::TestFittedDecode",), CAUGHT),
    Mutant("nms.greedy_nms keeps one survivor past a class's cap", "detkit/nms.py",
           "survivors[nth < room[c]]", "survivors[nth <= room[c]]", ("tests/test_nms.py::TestClassCap",), CAUGHT),
    Mutant("nms._Grid: no 2^-1060 on one width-ratio test", "detkit/nms.py",
           "(w + _ABS_SLACK > t * w_lo[c])", "(w > t * w_lo[c])",
           ("tests/test_nms.py::TestExtremeInputs::test_subnormal_sides_round_past_the_ratio_test",), CAUGHT),
    Mutant("losses._segment_sums adds pairwise, not left to right", "detkit/losses.py",
           "np.cumsum(table, axis=1)[:, -1]", "np.sum(table, axis=1)", ("tests/test_losses.py",), CAUGHT),
    Mutant("losses._log_once_per_value takes np.log, not math.log", "detkit/losses.py",
           "math_map(math.log, bits.view(np.float64))", "np.log(bits.view(np.float64))",
           ("tests/test_losses.py",), CAUGHT),
    Mutant("losses: mining sorts without the image key", "detkit/losses.py",
           "-neg_values, 0.0), neg_image))", "-neg_values, 0.0),))", ("tests/test_losses.py",), CAUGHT),
    Mutant("losses: one hard negative too few mined", "detkit/losses.py",
           "(NEG_POS_RATIO * n_pos).astype(np.intp)", "(NEG_POS_RATIO * n_pos).astype(np.intp) - 1",
           ("tests/test_losses.py",), CAUGHT),
    Mutant("evaluation: a detection takes the last ground truth on a tie", "detkit/evaluation.py",
           "np.minimum.reduceat(np.where(reach, np.arange(p.size)[:, None, None], p.size), heads)",
           "np.maximum.reduceat(np.where(reach, np.arange(p.size)[:, None, None], -1), heads)",
           ("tests/test_evaluation.py::TestMatchingRule",), CAUGHT),
    Mutant("fileio._atomic_write leaves its temp file on a failure", "detkit/fileio.py",
           "            os.unlink(tmp)", "            pass", ("tests/test_fileio.py",), CAUGHT),
    Mutant("cli.cmd_eval names the last image the ground truths lack", "detkit/cli.py",
           "missing[0]!r", "missing[-1]!r", ("tests/test_cli.py::TestImageWithoutGroundTruths",), CAUGHT),
    Mutant("scenario: the step past a feature block drops its final partial chunk", "detkit/harness/scenario.py",
           "range(0, step, STEP_CHUNK)", "range(0, step // STEP_CHUNK * STEP_CHUNK, STEP_CHUNK)",
           ("tests/test_golden_cli.py",), CAUGHT),
    Mutant("blocks: the local flow projects the shallow map pooled straight to each level",
           "detkit/graph/blocks.py", "        flow = adaptive_avg_pool(flow, level.h, level.w)\n",
           "        flow = conv2d(adaptive_avg_pool(shallow_map, level.h, level.w), weights.shallow_proj)\n",
           ("tests/test_graph.py::TestTwoWayFpn::test_matches_project_then_pool",), CAUGHT),
    Mutant("tensor._lerp_into builds v0 + w*(v1-v0) out of place", "detkit/graph/tensor.py",
           "    v1 -= v0\n    v1 *= w\n    v0 += v1\n    return v0\n", "    return v0 + w * (v1 - v0)\n",
           ("tests/test_graph.py::TestTwoWayFpn::test_peak_memory_holds_one_pyramid",), CAUGHT),
    # reached only through the rf_comparison.py subprocess of this selection
    Mutant("rfcalc: the chain table misnames its cum_params column", "detkit/rfcalc.py",
           '"params", "cum_params"]', '"params", "cumulative_params"]',
           ("tests/test_scripts.py::test_rf_comparison_prints_both_tables",), CAUGHT),
]


def run(mutant: Mutant) -> str:
    """The outcome of one mutant: CAUGHT, EQUIVALENT (it survived), or a
    line saying why it could not be run."""
    source = (ROOT / "src" / mutant.path).read_text()
    if source.count(mutant.text) != 1:
        return f"stale: the text occurs {source.count(mutant.text)} times in src/{mutant.path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.path).write_text(source.replace(mutant.text, mutant.replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
             "-o", f"pythonpath={src}", *mutant.selection],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
    if proc.returncode in (0, 1):
        return EQUIVALENT if proc.returncode == 0 else CAUGHT
    return f"error: pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(mutants: list[Mutant] = MUTANTS) -> int:
    failures = []
    for mutant in mutants:
        start = time.perf_counter()
        outcome = run(mutant)
        print(f"{outcome:<10} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        if outcome == EQUIVALENT:
            print(f"  survivor: {mutant.name} ({mutant.expected} expected)")
        if outcome != mutant.expected:
            failures.append(mutant.name)
    print(f"{len(mutants) - len(failures)} of {len(mutants)} mutants as expected")
    for name in failures:
        print(f"  not as expected: {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
