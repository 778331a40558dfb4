"""Command-line entry point.

Subcommands: gen (synthesize a scenario), fit (toy training run),
nms (file-level suppression), eval (AP report), rf (receptive-field
table), report (NMS A/B comparison, plots, optional ablation). Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation, nms, rfcalc
from .fileio import write_csv, write_json, atomic_write_text
from .harness import (
    NumericalError,
    ap_after_nms,
    detections_from_heads,
    fit_toy,
    generate_scenario,
    init_toy_model,
    iou_histogram,
    load_config,
    run_ablation,
    run_nms_ab,
    scenario_features,
)
from .harness.plots import histogram_svg, scatter_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load(args) -> tuple:
    cfg = load_config(args.config).with_seed(args.seed)
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    return cfg, out


def _write_hist_csv(path, edges, counts):
    write_csv(path, ["bin_left", "bin_right", "count"], [edges[:-1], edges[1:], counts])


def cmd_gen(args) -> int:
    cfg, out = _load(args)
    scenario = generate_scenario(cfg)
    atomic_write_text(out / "config.json", cfg.to_json())
    atomic_write_text(out / "anchors.json", scenario.anchors.to_json() + "\n")

    gts = {img.image_id: img.gts for img in scenario.images}
    atomic_write_text(out / "ground_truths.json", evaluation.ground_truths_to_json(gts))

    rows = nms.Detections.concat(
        detections_from_heads(scenario.anchors, img.heads, cfg.nms.score_floor, img.image_id) for img in scenario.images
    )
    nms.write_detections_csv(out / "detections.csv", rows)

    edges, counts = iou_histogram(scenario.iou_tar)
    _write_hist_csv(out / "iou_tar_hist.csv", edges, counts)
    print(f"wrote scenario ({len(scenario.anchors)} anchors, {len(scenario.images)} images) to {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg, out = _load(args)
    scenario = generate_scenario(cfg)
    model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed)
    result = fit_toy(model, scenario, scenario_features(scenario), cfg)

    write_csv(
        out / "loss_trace.csv",
        ["epoch", "total", "cls", "reg", "iou"],
        [range(len(result.trace)), *([t[term] for t in result.trace] for term in ("total", "cls", "reg", "iou"))],
    )
    for epoch, edges, counts in result.snapshots:
        _write_hist_csv(out / f"iou_tar_hist_epoch{epoch:04d}.csv", edges, counts)

    nms.write_detections_csv(out / "detections_final.csv", nms.Detections.concat(result.detections.values()))

    report = ap_after_nms(scenario, result.detections, cfg.nms.mode)
    write_json(
        out / "fit_report.json",
        {
            "initial_loss": result.initial_loss,
            "final_loss": result.final_loss,
            "epochs": cfg.fit.epochs,
            "losses": {"cls": cfg.losses.cls, "iou": cfg.losses.iou, "reg": cfg.losses.reg},
            "ap_report": report.as_dict(),
        },
    )
    print(f"fit: loss {result.initial_loss:.6f} -> {result.final_loss:.6f}, ap {report.ap:.4f}; wrote {out}")
    if result.final_loss > result.initial_loss:
        print(f"warning: the fit diverged: final loss {result.final_loss:.6f} exceeds initial loss "
              f"{result.initial_loss:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_nms(args) -> int:
    nms.check_iou_threshold(args.iou_threshold)  # the loop below checks it only on an image with rows
    dets = nms.detections_from_csv(Path(args.detections).read_text())
    by_image = dets.by_image()
    kept = {image_id: nms.greedy_nms(rows, args.iou_threshold, args.mode) for image_id, rows in by_image.items()}
    kept_rows = nms.Detections.concat(kept.values())
    images = {image_id: {"input": len(by_image[image_id]), "kept": len(kept[image_id])} for image_id in kept}
    summary = {"mode": args.mode, "iou_threshold": args.iou_threshold, "images": images, "total_kept": len(kept_rows)}

    out = Path(args.out)
    nms.write_detections_csv(out / "kept.csv", kept_rows)
    write_json(out / "nms_summary.json", summary)
    print(f"kept {len(kept_rows)} of {len(dets)} detections; wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dets = nms.detections_from_csv(Path(args.detections).read_text())
    gts = evaluation.ground_truths_from_json(Path(args.ground_truths).read_text())
    by_image = dets.by_image()
    # evaluate would score such rows as false positives of an image with no objects
    missing = [image_id for image_id in by_image if image_id not in gts]
    if missing:
        raise ValueError(f"detections name image {missing[0]!r}, which the ground-truth document lacks")
    report = evaluation.evaluate(by_image, gts, args.mode)
    write_json(args.out, report.as_dict())
    print(f"ap={report.ap:.6f} ap50={report.ap50:.6f} ap75={report.ap75:.6f}; wrote {args.out}")
    return EXIT_OK


def cmd_rf(args) -> int:
    if args.builtin:
        analysis, rfs = rfcalc.analyze_builtin(args.builtin)
        ratios = rfcalc.expansion_ratios(rfs)
        print(f"{args.builtin}: basic-map RFs {rfs}, expansion ratios "
              f"{[round(r, 4) for r in ratios]}, spread {rfcalc.ratio_spread(ratios):.4f}, "
              f"total params {analysis.total_parameters}")
    else:
        analysis = rfcalc.analyze_chain(*rfcalc.chain_from_json(Path(args.chain).read_text()))
    atomic_write_text(args.out, analysis.to_csv())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg, out = _load(args)
    scenario = generate_scenario(cfg)
    ab = run_nms_ab(scenario)

    doc = {"iou_threshold": ab.iou_threshold, "modes": {}}
    for mode, res in ab.modes.items():
        doc["modes"][mode] = {
            "ap_report": res.report.as_dict(),
            "kept": res.kept_count,
            "high_score_low_iou": res.high_score_low_iou,
        }
        write_csv(out / f"scatter_{mode}.csv", ["score", "true_iou"], list(zip(*res.scatter)))
        atomic_write_text(
            out / f"scatter_{mode}.svg",
            scatter_svg(res.scatter, f"NMS scores vs true IOU ({mode})", "score", "true IOU"),
        )
    write_json(out / "nms_ab_report.json", doc)

    edges, counts = iou_histogram(scenario.iou_tar)
    _write_hist_csv(out / "iou_tar_hist.csv", edges, counts)
    atomic_write_text(
        out / "iou_tar_hist.svg",
        histogram_svg(edges, counts, "Distribution of measured IOU", "IOU"),
    )

    if args.ablation:
        rows = [
            (r.cls_loss, r.iou_loss, r.reg_loss, r.initial_loss, r.final_loss,
             r.report.ap, r.report.ap50, r.report.ap75,
             r.report.ap_small, r.report.ap_medium, r.report.ap_large)
            for r in run_ablation(scenario)
        ]
        write_csv(
            out / "ablation.csv",
            ["cls_loss", "iou_loss", "reg_loss", "initial_loss", "final_loss",
             "ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"],
            list(zip(*rows)),
        )
    print(f"wrote NMS A/B report to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="detkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def scenario_cmd(name, func, help_text):
        c = sub.add_parser(name, help=help_text)
        c.add_argument("--config", required=True, help="scenario config JSON")
        c.add_argument("--seed", type=int, default=None, help="override the config seed")
        c.add_argument("--out", default=None, help="output directory (defaults to config output_dir)")
        c.set_defaults(func=func)
        return c

    scenario_cmd("gen", cmd_gen, "generate a synthetic scenario")
    scenario_cmd("fit", cmd_fit, "fit the toy model on a scenario")
    rep = scenario_cmd("report", cmd_report, "NMS A/B comparison, plots, optional ablation")
    rep.add_argument("--ablation", action="store_true", help="also run the loss-ablation table")

    c = sub.add_parser("nms", help="suppress a detections CSV")
    c.add_argument("--detections", required=True)
    c.add_argument("--mode", choices=nms.MODES, default="standard")
    c.add_argument("--iou-threshold", type=float, default=nms.DEFAULT_IOU_THRESHOLD)
    c.add_argument("--out", required=True, help="output directory")
    c.set_defaults(func=cmd_nms)

    c = sub.add_parser("eval", help="COCO-style AP of a detections CSV")
    c.add_argument("--detections", required=True)
    c.add_argument("--ground-truths", required=True)
    c.add_argument("--mode", choices=nms.MODES, default="standard", help="scoring mode for ranking")
    c.add_argument("--out", required=True, help="report JSON path")
    c.set_defaults(func=cmd_eval)

    c = sub.add_parser("rf", help="receptive-field/parameter table of a conv chain")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", help="layer-chain JSON document")
    src.add_argument("--builtin", choices=sorted(rfcalc.BUILTIN_CHAINS))
    c.add_argument("--out", required=True, help="CSV table path")
    c.set_defaults(func=cmd_rf)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, ValueError, KeyError) as exc:
        # bad config (ConfigError), missing files, or malformed input documents (JSONDecodeError)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
