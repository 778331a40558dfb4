#!/usr/bin/env python3
"""Multi-seed NMS A/B sweep: standard vs IOU-guided scoring.

For each seed, generates a calibrated-p_iou scenario, runs NMS in both
modes, and records AP plus the count of kept boxes with score > 0.5 but
true IOU < 0.5 (the boxes the attenuation is meant to remove). Writes one
CSV row per (seed, mode) and prints a summary.

    python3 scripts/run_nms_ab_sweep.py --seeds 100 --out sweep.csv
"""

import argparse
from dataclasses import replace

from detkit.fileio import write_csv
from detkit.harness import ScenarioConfig, generate_scenario, run_nms_ab


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--out", default="nms_ab_sweep.csv")
    args = ap.parse_args()

    rows = []
    wins = 0
    for seed in range(args.seeds):
        scenario = generate_scenario(replace(ScenarioConfig(), seed=seed))
        rep = run_nms_ab(scenario)
        for mode, res in rep.modes.items():
            rows.append((seed, mode, res.report.ap, res.report.ap50, res.kept_count, res.high_score_low_iou))
        wins += rep.modes["iou_guided"].high_score_low_iou < rep.modes["standard"].high_score_low_iou

    write_csv(args.out, ["seed", "mode", "ap", "ap50", "kept", "high_score_low_iou"], list(zip(*rows)))
    print(f"wrote {args.out}")
    print(f"guided mode kept strictly fewer confident low-IOU boxes in {wins}/{args.seeds} scenarios")


if __name__ == "__main__":
    main()
