#!/usr/bin/env python3
"""Loss-setting ablation across seeds: CEJI vs CE and R_IOU vs L2.

Fits the toy model once per (seed, loss setting) under identical
scenarios and reports AP side by side, mirroring the loss-comparison
table structure. The ordering of the settings is an experimental
outcome; nothing here asserts which wins.

    python3 scripts/run_ablation_sweep.py --seeds 5 --epochs 30 --out ablation.csv
"""

import argparse
from dataclasses import replace

from detkit.fileio import write_csv
from detkit.harness import ScenarioConfig, generate_scenario, run_ablation
from detkit.harness.config import FitConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--step", type=float, default=0.05)
    ap.add_argument("--out", default="ablation_sweep.csv")
    args = ap.parse_args()

    rows = []
    for seed in range(args.seeds):
        cfg = replace(
            ScenarioConfig(),
            seed=seed,
            fit=FitConfig(epochs=args.epochs, step=args.step),
        )
        for r in run_ablation(generate_scenario(cfg)):
            rows.append(
                (seed, f"{r.iou_loss}+{r.cls_loss}", r.initial_loss, r.final_loss,
                 r.report.ap, r.report.ap50, r.report.ap75)
            )
            print(f"seed {seed} {r.iou_loss}+{r.cls_loss}: loss {r.initial_loss:.4f} -> {r.final_loss:.4f}, "
                  f"ap {r.report.ap:.4f}")

    write_csv(args.out, ["seed", "losses", "initial_loss", "final_loss", "ap", "ap50", "ap75"], list(zip(*rows)))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
