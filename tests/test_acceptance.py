"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Headline benchmark numbers (full-scale mAP/FPS) are out of scope;
every criterion here is a property checkable at desk scale.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from detkit.anchors import build_levels, generate_default_boxes
from detkit.cli import main
from detkit.evaluation import evaluate
from detkit.geometry import Box, iou, iou_value
from detkit.graph import (
    ConvParams,
    TensorNCHW,
    conv2d,
    init_rfm_weights,
    init_two_way_fpn_weights,
    load_tensor,
    rfm_forward,
    save_tensor,
    two_way_fpn_forward,
)
from detkit.harness import (
    ScenarioConfig,
    fit_toy,
    generate_scenario,
    init_toy_model,
    run_nms_ab,
)
from detkit.harness.config import FitConfig
from detkit.losses import BalanceL1Params, balance_l1, ceji_loss, r_iou_loss
from detkit.rfcalc import LayerSpec, RFState, analyze_builtin, analyze_chain, expansion_ratios, ratio_spread

from conftest import central_diff, kept_records, rel_err, random_overlapping_pair, tables
from oracles import Detection, ap_bruteforce, nms_bruteforce, score_flip_pair
from test_evaluation import PERFECT_GTS, crafted_instance
from test_graph import conv2d_bruteforce

GOLDEN = Path(__file__).parent / "golden"

ACCEPT_CFG = ScenarioConfig(
    seed=0,
    image_size=96.0,
    n_images=2,
    object_count=(2, 4),
    grids=(12, 6, 3),
    fit=FitConfig(epochs=30, step=0.05, feature_dim=16),
)


def _report(n: int, text: str) -> None:
    print(f"\n[criterion {n}] PASS: {text}")


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    checked = 0
    while checked < 1000:
        x = rng.uniform(-3.0, 3.0)
        if min(abs(abs(x) - 1.0), abs(x)) < 1e-3:
            continue
        num = central_diff(lambda v: balance_l1(v).value, x)
        assert rel_err(balance_l1(x).grad["x"], num) <= 1e-4
        checked += 1

    checked = 0
    while checked < 1000:
        p, t = rng.uniform(0.05, 0.99, 2)
        if abs(p - t) < 1e-3:
            continue
        num = central_diff(lambda v: r_iou_loss(v, t).value, p)
        assert rel_err(r_iou_loss(p, t).grad["p_iou"], num) <= 1e-4
        checked += 1

    checked = 0
    while checked < 1000:
        a, b = random_overlapping_pair(rng)
        if iou(a, b).value < 0.55:
            continue
        p_cls = rng.uniform(0.2, 0.95)
        term = ceji_loss(p_cls, iou(a, b), True)
        num = central_diff(lambda v: ceji_loss(v, iou(a, b), True).value, p_cls)
        assert rel_err(term.grad["p_cls"], num) <= 1e-4
        coords = list(a.as_tuple())
        for i, key in enumerate(("x1", "y1", "x2", "y2")):
            def f(x, i=i):
                c = coords.copy()
                c[i] = x
                return ceji_loss(p_cls, iou(Box(*c), b), True).value

            assert rel_err(term.grad[key], central_diff(f, coords[i])) <= 1e-4
            checked += 1

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    _report(1, f"3x >=1000 finite-difference gradient checks at rel err <= 1e-4 in {elapsed:.1f}s")


def test_criterion_2_loss_algebra():
    params = BalanceL1Params()
    assert rel_err(params.b, math.exp(params.gamma / params.alpha) - 1.0) <= 1e-12
    left = (params.alpha / params.b) * (params.b + 1.0) * math.log(params.b + 1.0) - params.alpha
    assert abs(left - (params.gamma + params.C)) <= 1e-9
    assert abs(balance_l1(1.0 - 1e-13).value - balance_l1(1.0 + 1e-13).value) <= 1e-9
    # derived C, frozen from the continuity oracle
    assert params.C == pytest.approx(-0.42140645526311604, abs=1e-12)

    assert abs(r_iou_loss(0.5, 1.0).value - math.log(2.0)) <= 1e-12

    rng = np.random.default_rng(202)
    for _ in range(10_000):
        p, t = rng.uniform(0.01, 1.0, 2)
        assert r_iou_loss(p, t).value == r_iou_loss(t, p).value
    _report(2, "balance-l1 continuity (b, C derived), r_iou(0.5,1)=ln2, swap symmetry over 1e4 pairs")


def test_criterion_3_nms_oracle_equivalence():
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 11))
        dets = []
        for _ in range(n):
            x1, y1 = rng.uniform(0, 8, 2)
            w, h = rng.uniform(1, 6, 2)
            dets.append(
                Detection(
                    Box(x1, y1, x1 + w, y1 + h),
                    int(rng.integers(1, 3)),
                    float(rng.uniform(0, 1)),
                    float(rng.uniform(0, 1)),
                )
            )
        for mode in ("standard", "iou_guided"):
            for thr in (0.3, 0.5, 0.7):
                if kept_records(dets, thr, mode) != nms_bruteforce(dets, thr, mode):
                    mismatches += 1
    assert mismatches == 0
    _report(3, "greedy == brute-force oracle on 10,000 instances x 2 modes x 3 thresholds, zero mismatches")


def test_criterion_4_score_flip_and_calibrated_attenuation():
    dets, a, b = score_flip_pair()
    assert iou_value(a.box, b.box) == pytest.approx(0.7, abs=1e-12)
    assert kept_records(dets, 0.5, "standard") == [a]
    assert kept_records(dets, 0.5, "iou_guided") == [b]

    wins = 0
    for seed in range(100):
        # default-size scenarios: enough objects per scene that standard
        # mode keeps at least one confident low-IOU box
        scenario = generate_scenario(ScenarioConfig(seed=seed))
        rep = run_nms_ab(scenario)
        std = rep.modes["standard"].high_score_low_iou
        gui = rep.modes["iou_guided"].high_score_low_iou
        wins += gui < std
    assert wins >= 95, f"guided strictly lower in only {wins}/100 scenarios"
    _report(4, f"two-box survivor flips with the mode; guided bad-box count strictly lower in {wins}/100 seeds")


def test_criterion_5_receptive_field_claims():
    spreads = {}
    for name in ("ssd_extra", "dilated_extra"):
        analysis, rfs = analyze_builtin(name)
        assert analysis.to_csv() == (GOLDEN / f"rf_{name}.csv").read_text(), f"{name} table drifted"
        spreads[name] = ratio_spread(expansion_ratios(rfs))
    assert spreads["dilated_extra"] < spreads["ssd_extra"]

    c = 32
    two = analyze_chain(RFState(5, 2), [LayerSpec(3, in_channels=c, out_channels=c)] * 2)
    one = analyze_chain(RFState(5, 2), [LayerSpec(3, dilation=2, in_channels=c, out_channels=c)])
    assert two.states[-1].receptive_field == one.states[-1].receptive_field
    assert two.total_parameters == 18 * c * c and one.total_parameters == 9 * c * c
    _report(
        5,
        f"golden tables hold; ratio spread {spreads['dilated_extra']:.3f} < {spreads['ssd_extra']:.3f}; "
        "dilated substitution halves parameters at equal RF",
    )


def test_criterion_6_forward_graph_contracts(tmp_path):
    # rfm: spatial preservation and identity-probe wiring
    ch = 16
    w = init_rfm_weights(ch, seed=0)
    x = TensorNCHW(np.random.default_rng(0).normal(size=(1, ch, 10, 10)))
    assert rfm_forward(x, w).shape == (1, ch, 10, 10)

    w.conv_in.weight[:] = np.eye(ch).reshape(ch, ch, 1, 1)
    w.conv_out.weight[:] = np.eye(ch).reshape(ch, ch, 1, 1)
    for p in (w.conv_d1, w.conv_d3, w.conv_d5):
        p.weight[:] = 0.0
    out = rfm_forward(x, w)
    q = ch // 4
    np.testing.assert_allclose(out.data[:, :q], x.data[:, :q], atol=1e-12)

    # two-way fpn: six 512-channel maps at the input resolutions
    rng = np.random.default_rng(1)
    sizes = [40, 20, 10, 5, 3, 1]
    maps = [TensorNCHW(rng.normal(size=(1, 8, s, s))) for s in sizes]
    shallow = TensorNCHW(rng.normal(size=(1, 8, 80, 80)))
    fw = init_two_way_fpn_weights([8] * 6, 8, flow_channels=16, out_channels=512, seed=0)
    outs = two_way_fpn_forward(maps, shallow, fw)
    assert [o.shape for o in outs] == [(1, 512, s, s) for s in sizes]

    # conv2d vs nested-loop oracle on dumped/reloaded fixture tensors
    for i, (stride, dilation, padding, kernel) in enumerate([(1, 1, 1, 3), (2, 2, 2, 3), (1, 3, 3, 3), (2, 1, 0, 1)]):
        spec = LayerSpec(kernel, stride, dilation, padding, in_channels=3, out_channels=2)
        params = ConvParams(spec, rng.normal(size=(2, 3, kernel, kernel)), rng.normal(size=2))
        fixture = TensorNCHW(rng.normal(size=(2, 3, 8, 8)))
        save_tensor(fixture, tmp_path / f"fixture{i}")
        loaded = load_tensor(tmp_path / f"fixture{i}")
        np.testing.assert_array_equal(loaded.data, fixture.data)
        np.testing.assert_allclose(conv2d(loaded, params).data, conv2d_bruteforce(loaded, params), atol=1e-10)
    _report(6, "rfm wiring and shapes, fpn 6x512 contract, conv2d == nested-loop oracle to 1e-10 on fixtures")


def test_criterion_7_ap_evaluator():
    dets = {img: [(b, c, 1.0) for b, c in objs] for img, objs in PERFECT_GTS.items()}
    report = evaluate(tables(dets), PERFECT_GTS, "standard")
    assert all(v == 1.0 for v in report.as_dict().values())

    cdets, cgts = crafted_instance()
    want = ap_bruteforce(cdets, cgts, class_id=1, iou_threshold=0.5)
    got = evaluate(tables(cdets), cgts, "standard").ap50
    assert abs(got - want) <= 1e-12

    rng = np.random.default_rng(707)
    scenario = generate_scenario(replace(ACCEPT_CFG, seed=7, n_images=4))
    gts = {img.image_id: list(zip(img.gts, img.gt_classes)) for img in scenario.images}
    from detkit.harness import detections_from_heads

    det_map = {
        img.image_id: detections_from_heads(scenario.anchors, img.heads, scenario.cfg.nms.score_floor, img.image_id)
        for img in scenario.images
    }
    reference = evaluate(det_map, gts, "standard")
    for _ in range(50):
        order = list(gts)
        rng.shuffle(order)
        shuffled_gts = {k: gts[k] for k in order}
        shuffled_dets = {k: det_map[k] for k in order}
        assert evaluate(shuffled_dets, shuffled_gts, "standard") == reference
    _report(7, f"perfect=1.0 everywhere; crafted AP50 {got:.6f} == oracle to 1e-12; 50 shuffles invariant")


def test_criterion_8_toy_training(tmp_path):
    reduced = 0
    for seed in range(20):
        cfg = replace(ACCEPT_CFG, seed=seed)
        scenario = generate_scenario(cfg)
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, seed)
        result = fit_toy(model, scenario, cfg)
        assert result.final_loss < result.initial_loss, f"seed {seed} did not reduce"
        reduced += 1

    # ablation CSV emitted; the mAP ordering is reported, not asserted
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        replace(ACCEPT_CFG, fit=FitConfig(epochs=10, step=0.05, feature_dim=16),
                output_dir=str(tmp_path / "out")).to_json()
    )
    assert main(["report", "--config", str(cfg_path), "--ablation"]) == 0
    lines = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
    assert lines[0].split(",")[:2] == ["cls_loss", "iou_loss"]
    combos = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert combos == {("ceji", "l2"), ("ce", "r_iou"), ("ceji", "r_iou")}
    _report(8, f"loss reduced in {reduced}/20 seeds; ablation table emitted with CE/CEJI and L2/R_IOU rows")


def test_criterion_9_cli_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        replace(ACCEPT_CFG, fit=FitConfig(epochs=8, step=0.05, feature_dim=16),
                output_dir=str(tmp_path / "unused")).to_json()
    )
    compared = 0
    for command in ("gen", "fit", "report"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / f"{command}_a")]) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / f"{command}_b")]) == 0
        a_dir, b_dir = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), f"{command}: {rel} differs"
            compared += 1
    _report(9, f"gen/fit/report reruns byte-identical across {compared} output files")
