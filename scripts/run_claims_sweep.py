#!/usr/bin/env python3
"""The paper's two claims over consecutive seeds, under one config.

For N seeds from the config's ``seed`` on, synthesizes each scenario once and
writes the rows that ``detkit report --seed s`` writes: ``nms_ab_sweep.csv``
holds one row per seed and NMS mode with ``nms_ab_report.json``'s per-mode
fields, and, with --ablation, ``ablation_sweep.csv`` holds ``ablation.csv``'s
rows behind a ``seed`` column. Every fit setting comes from the config. Prints
on how many seeds IOU-guided NMS kept strictly fewer confident low-IOU boxes
than standard NMS; which side wins is an outcome, not a premise.

    python3 scripts/run_claims_sweep.py --config cfg.json --seeds 8 --ablation --out sweep/
"""

import argparse
from dataclasses import fields
from pathlib import Path

from detkit.evaluation import ApReport
from detkit.fileio import write_csv
from detkit.harness import ablation_table, generate_scenario, load_config, run_ablation, run_nms_ab


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="scenario config JSON")
    ap.add_argument("--seeds", type=int, required=True, help="number of consecutive seeds")
    ap.add_argument("--ablation", action="store_true", help="also fit the loss-ablation table at each seed")
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")

    cfg = load_config(args.config)
    ab_rows, ablation_rows, wins = [], [], 0
    for seed in range(cfg.seed, cfg.seed + args.seeds):
        scenario = generate_scenario(cfg.with_seed(seed))
        modes = run_nms_ab(scenario).modes
        for mode, res in modes.items():
            ab_rows.append((seed, mode, *res.report.as_dict().values(), res.kept_count, res.high_score_low_iou))
        wins += modes["iou_guided"].high_score_low_iou < modes["standard"].high_score_low_iou
        if args.ablation:
            header, rows = ablation_table(run_ablation(scenario))
            ablation_rows += [(seed, *row) for row in rows]

    out = Path(args.out)
    ap_fields = [f.name for f in fields(ApReport)]
    write_csv(out / "nms_ab_sweep.csv", ["seed", "mode", *ap_fields, "kept", "high_score_low_iou"], list(zip(*ab_rows)))
    if args.ablation:
        write_csv(out / "ablation_sweep.csv", ["seed", *header], list(zip(*ablation_rows)))
    print(f"wrote {out}")
    print(f"guided mode kept strictly fewer confident low-IOU boxes in {wins}/{args.seeds} scenarios")


if __name__ == "__main__":
    main()
