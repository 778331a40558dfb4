import contextlib
import json
import math
import re
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.anchors import build_levels, generate_default_boxes, match_anchors
from detkit.geometry import box_areas
from detkit.harness import (
    ConfigError,
    NumericalError,
    Scenario,
    SceneImage,
    ScenarioConfig,
    ToyModel,
    ap_after_nms,
    config_from_json,
    detections_from_heads,
    fit_toy,
    generate_scenario,
    init_toy_model,
    iou_histogram,
    run_ablation,
    run_nms_ab,
    scenario_features,
)
from detkit.harness import config as config_module
from detkit.harness import experiments
from detkit.harness import toyfit
from detkit.harness.config import SCHEMA, SCHEMA_PATH, FitConfig, NmsConfig, NoiseConfig, _build
from detkit.harness.plots import histogram_svg, scatter_svg
from detkit.harness.scenario import _measured_ious, _sample_gt_boxes
from detkit.losses import CLS_LOSSES, IOU_LOSSES, PROB_EPS, REG_LOSSES, HeadOutputs, LossConfig
from detkit.losses import total_loss as losses_total_loss
from detkit.evaluation import GROUND_TRUTHS_SCHEMA, MAX_DETECTIONS_PER_IMAGE, evaluate
from detkit.nms import MODES, GroundTruths, greedy_nms
from detkit.rfcalc import CHAIN_SCHEMA
from detkit.schema import check

import oracles
from conftest import anchor_box, bits, kept_records, outcome
from oracles import Box, OffsetEncoding, score_flip_pair


def fields_of(cls) -> list[str]:
    return [f.name for f in fields(cls)]


SMALL = ScenarioConfig(
    seed=0,
    image_size=96.0,
    n_images=2,
    object_count=(2, 4),
    grids=(12, 6, 3),
    fit=FitConfig(epochs=30, step=0.05, feature_dim=16),
)


def _schema_bound_cases():
    """(path, value, accepted, keyword) on both sides of every numeric
    bound and array-length bound in the schema. Array items are all set to the value;
    arrays of another length repeat the default's first item."""
    numeric = {  # keyword: (allowed offset, rejected offset) from the bound, in steps
        "minimum": (0, -1), "exclusiveMinimum": (1, 0), "maximum": (0, 1), "exclusiveMaximum": (-1, 0),
    }
    cases = []

    def walk(props, path, defaults):
        for key, spec in props.items():
            where = path + (key,)
            if key == "schema_version":
                continue
            default = getattr(defaults, key)
            if spec.get("type") == "object":
                walk(spec["properties"], where, default)
                continue
            item = spec.get("items", spec)
            for kw, (ok_steps, bad_steps) in numeric.items():
                if kw not in item:
                    continue
                bound = item[kw]
                for steps, accepted in ((ok_steps, True), (bad_steps, False)):
                    if item["type"] == "integer":
                        v = bound + steps
                    else:
                        v = math.nextafter(bound, math.copysign(math.inf, steps)) if steps else bound
                    cases.append((where, [v] * len(default) if item is not spec else v, accepted, kw))
            for kw, ok_len, bad_len in (("minItems", 0, -1), ("maxItems", 0, 1)):
                if kw in spec:
                    for extra, accepted in ((ok_len, True), (bad_len, False)):
                        cases.append((where, [default[0]] * (spec[kw] + extra), accepted, kw))

    walk(json.loads(SCHEMA_PATH.read_text())["properties"], (), ScenarioConfig())
    return cases


def _nested_doc(path, value) -> str:
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    return json.dumps(doc)


SCHEMA_BOUND_CASES = _schema_bound_cases()


class TestConfig:
    @pytest.mark.parametrize(
        "path,value,accepted,keyword", SCHEMA_BOUND_CASES,
        ids=[f"{'.'.join(c[0])}-{c[3]}-{'ok' if c[2] else 'bad'}" for c in SCHEMA_BOUND_CASES],
    )
    def test_schema_bounds_agree_with_validate(self, path, value, accepted, keyword):
        doc = _nested_doc(path, value)
        if accepted:
            config_from_json(doc)
        else:
            with pytest.raises(ConfigError):
                config_from_json(doc)

    def test_schema_bound_cases_cover_the_schema(self):
        text = SCHEMA_PATH.read_text()
        keywords = ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum", "minItems", "maxItems")
        # two cases (allowed and rejected side) per bound in the file
        assert len(SCHEMA_BOUND_CASES) == 2 * sum(text.count(f'"{kw}"') for kw in keywords)

    def test_json_roundtrip(self):
        back = config_from_json(SMALL.to_json())
        assert back == SMALL

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json('{"seed": 1, "sead": 2}')

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            config_from_json('{"schema_version": 99}')

    def test_boolean_schema_version_rejected(self):
        # JSON Schema's const holds 1 and 1.0 equal, but true and 1 not
        with pytest.raises(ConfigError, match=re.escape("scenario.schema_version must be 1, got True")):
            config_from_json('{"schema_version": true}')
        assert config_from_json('{"schema_version": 1.0}') == ScenarioConfig()

    def test_objects_larger_than_image_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json('{"object_size_range": [0.5, 1.5]}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            config_from_json("{nope")

    def test_nested_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_json('{"noise": {"sigma": 1}}')

    def test_schema_file_matches_dataclasses(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        props = schema["properties"]
        assert set(props) == {"schema_version", *fields_of(ScenarioConfig)}
        nested = {"noise": NoiseConfig, "losses": LossConfig, "fit": FitConfig, "nms": NmsConfig}
        for key, cls in nested.items():
            assert set(props[key]["properties"]) == set(fields_of(cls)), key
        assert props["nms"]["properties"]["mode"]["enum"] == list(MODES)
        loss_props = props["losses"]["properties"]
        assert loss_props["cls"]["enum"] == list(CLS_LOSSES)
        assert loss_props["iou"]["enum"] == list(IOU_LOSSES)
        assert loss_props["reg"]["enum"] == list(REG_LOSSES)

    @pytest.mark.parametrize("spec,value", [
        ({"type": "string", "pattern": "^a"}, "a"),
        ({"type": "object", "additionalProperties": True}, {}),
        ({"type": "array", "items": {"type": "integer", "multipleOf": 2}, "minItems": 1}, [2]),
    ], ids=["pattern", "additionalProperties-true", "nested-multipleOf"])
    def test_unimplemented_schema_keyword_raises(self, spec, value):
        with pytest.raises(NotImplementedError):
            check(value, spec, "x")

    @pytest.mark.parametrize("root,schema", [
        ("scenario", SCHEMA), ("ground_truths", GROUND_TRUTHS_SCHEMA), ("chain", CHAIN_SCHEMA),
    ], ids=["config", "ground_truths", "rf_chain"])
    def test_shipped_schema_uses_only_implemented_keywords(self, root, schema):
        # an object() satisfies no node: each raises ConfigError, never
        # NotImplementedError, and so states a constraint the checker runs
        def nodes(spec, name):
            yield spec, name
            for key, child in spec.get("properties", {}).items():
                yield from nodes(child, f"{name}.{key}")
            if "items" in spec:
                yield from nodes(spec["items"], f"{name}[]")

        for spec, name in nodes(schema, root):
            with pytest.raises(ConfigError):
                check(object(), spec, name)

    @pytest.mark.parametrize("spec,value,message", [
        ({"type": "object", "required": ["kernel", "stride"]}, {"stride": 2},
         "missing x keys: ['kernel']"),
        ({"type": "object", "additionalProperties": False, "required": ["kernel"], "properties": {"kernel": {}}},
         {"kernal": 3}, "unknown x keys: ['kernal']"),
        ({"type": "array", "items": {"type": "integer"}}, 5, "x must be an array of int values, got 5"),
        ({"type": "array", "items": {"type": "integer"}}, [1, 2.5, "3"], "x[1] must be int, got 2.5"),
        ({"type": "array", "items": {"type": "integer"}, "minItems": 1}, [],
         "x must be an array of int values with at least 1 items, got []"),
        ({"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 3}, [],
         "x must be an array of int values with 1 to 3 items, got []"),
    ], ids=["required", "unknown-before-required", "no-length-bound", "first-bad-item", "minItems-only",
            "both-length-bounds"])
    def test_check_message(self, spec, value, message):
        with pytest.raises(ConfigError) as err:
            check(value, spec, "x")
        assert str(err.value) == message

    @pytest.mark.parametrize("doc,message", [
        ('{"seed": 1.5}', "scenario.seed must be int"),
        ('{"nms": {"iou_threshold": true}}', "scenario.nms.iou_threshold must be float"),
        ('{"image_size": Infinity}', "scenario.image_size must be float"),
        ('{"grids": [20, 10.5]}', "scenario.grids[1] must be int, got 10.5"),
        ('{"grids": [3, 3, 3, 3, 3, 3, 3]}', "scenario.grids must be an array of int values with 1 to 6 items"),
        ('{"fit": {"epochs": 60.0}}', "scenario.fit.epochs must be int"),
        ('{"losses": {"detach_iou": 0}}', "scenario.losses.detach_iou must be bool"),
        ('{"image_size": 1e308}', "scenario.image_size must lie in [0.001, 1e+06]"),
        ('{"fit": {"step": 0}}', "scenario.fit.step must be greater than 0"),
        ('{"nms": {"mode": "soft"}}', "scenario.nms.mode must be one of ['standard', 'iou_guided']"),
        ('{"object_count": [3, 2]}', "scenario.object_count must be [lo, hi] with lo <= hi"),
        ('{"noise": {"cls_confidence_range": [0.9, 0.6]}}', "scenario.noise.cls_confidence_range must be [lo, hi]"),
    ])
    def test_config_built_in_python_is_checked_as_json_is(self, doc, message):
        # _build makes the dataclasses the document names without checking
        # them, as a caller writing ScenarioConfig(seed=1.5) does
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_json(doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            _build(ScenarioConfig, json.loads(doc)).validate()


    @pytest.mark.parametrize("cfg, message", [
        (ScenarioConfig(object_count=(3, 2)), "scenario.object_count must be [lo, hi] with lo <= hi, got [3, 2]"),
        (ScenarioConfig(noise=NoiseConfig(neg_background_range=(1.0, 0.99))),
         "scenario.noise.neg_background_range must be [lo, hi]"),
        (ScenarioConfig(seed=1.5), "scenario.seed must be int"),
    ], ids=["object_count", "neg_background_range", "schema"])
    def test_python_built_config_rejected_before_generation(self, cfg, message):
        # config_from_json leaves the schema pass of validate() out; a config
        # built in Python meets the whole check in generate_scenario
        with pytest.raises(ConfigError, match=re.escape(message)):
            generate_scenario(cfg)

    def test_json_config_meets_the_schema_once(self, monkeypatch):
        passes = []

        def counted(value, spec, name):
            passes.append(name)
            check(value, spec, name)

        monkeypatch.setattr(config_module, "check", counted)
        config_from_json('{"seed": 3}')
        assert passes.count("scenario") == 1


# the step past a feature block draws STEP_CHUNK (4,096) values at a time:
# 2,136 × 64 ends in a partial chunk, 80 × 16 is less than one chunk and
# 320 × 64 is five chunks exactly
SCENE_OVERRIDES = dict(
    argvalues=[
        {},
        {"n_classes": 5, "grids": (12, 6, 3)},
        {"grids": (4, 2), "fit": FitConfig(feature_dim=16)},
        {"grids": (8, 4), "fit": FitConfig(feature_dim=64)},
    ],
    ids=["default", "5-class-3-level", "under-one-chunk", "five-chunks"],
)


class TestScenario:
    def test_seed_determinism(self):
        a = generate_scenario(SMALL)
        b = generate_scenario(SMALL)
        for ia, ib in zip(a.images, b.images):
            assert ia.gts.boxes.tobytes() == ib.gts.boxes.tobytes()
            assert ia.gts.class_id.tolist() == ib.gts.class_id.tolist()
            np.testing.assert_array_equal(ia.heads.offsets, ib.heads.offsets)
        np.testing.assert_array_equal(scenario_features(a), scenario_features(b))

    def test_different_seeds_differ(self):
        a = generate_scenario(SMALL)
        b = generate_scenario(replace(SMALL, seed=1))
        assert a.images[0].gts.boxes.tolist() != b.images[0].gts.boxes.tolist()

    def test_most_anchors_negative(self):
        s = generate_scenario(ScenarioConfig(seed=1))
        neg = sum(len(i.match.negative_indices) for i in s.images)
        total = len(s.anchors) * len(s.images)
        assert neg / total >= 0.95

    def test_zero_noise_gives_perfect_ap(self):
        cfg = replace(
            SMALL,
            noise=NoiseConfig(
                offset_sigma=0.0,
                distractor_rate=0.0,
                cls_confidence_range=(1.0, 1.0),
                neg_background_range=(1.0, 1.0),
                p_iou_sigma=0.0,
            ),
        )
        report = run_nms_ab(generate_scenario(cfg))
        for res in report.modes.values():
            assert res.report.ap == 1.0

    def test_smallest_sizes_keep_positives(self):
        # the lower bounds of image_size and object_size_range: every image
        # still has positives, and no area underflows or warns
        cfg = replace(SMALL, image_size=1e-3, object_size_range=(1e-3, 1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = generate_scenario(cfg)
            rep = run_nms_ab(s)
        assert all(len(img.match.positive_indices) for img in s.images)
        assert all(len(img.gts.boxes) and box_areas(img.gts.boxes).min() > 0.0 for img in s.images)
        assert rep.modes["iou_guided"].kept_count > 0

    def test_gts_inside_image(self):
        s = generate_scenario(SMALL)
        for img in s.images:
            for x1, y1, x2, y2 in img.gts.boxes.tolist():
                assert 0.0 <= x1 <= x2 <= SMALL.image_size
                assert 0.0 <= y1 <= y2 <= SMALL.image_size

    def test_histogram_conserves_samples(self):
        s = generate_scenario(SMALL)
        values = s.iou_tar
        assert values.dtype == np.float64 and values.ndim == 1
        edges, counts = iou_histogram(values)
        assert sum(counts) == len(values)
        assert len(counts) == len(edges) - 1

    def test_measured_iou_rejects_a_nan_box_as_box_does(self):
        # a NaN offset decodes to a box that Box rejects; the first such
        # positive raises Box's error, message included
        s = generate_scenario(SMALL)
        heads = [HeadOutputs(img.heads.offsets.copy(), img.heads.class_probs, img.heads.p_iou) for img in s.images]
        first, later = s.images[1].match.positive_indices[[0, 2]]
        heads[1].offsets[later, 0] = math.nan
        heads[1].offsets[first, 3] = math.nan
        want = outcome(oracles.decode, anchor_box(s.anchors, first), OffsetEncoding(*heads[1].offsets[first]))
        assert want[:2] == ("raises", ValueError) and want[2].startswith("negative box extent")
        img = s.images[1]
        assert outcome(_measured_ious, s.anchors, img.match, img.gts, heads[1].offsets, img.match.positive_indices) == want

    @pytest.mark.parametrize("cfg", [SMALL, ScenarioConfig(seed=3, noise=NoiseConfig(p_iou_sigma=0.1))],
                             ids=["small", "default-seed3-noisy-p_iou"])
    def test_iou_tar_is_the_per_anchor_oracle_iou(self, cfg):
        # the IOU that sets each positive's p_iou, kept for the histograms;
        # with p_iou noise, p_iou is not that IOU
        s = generate_scenario(cfg)
        for img in s.images:
            want = [
                oracles.iou(oracles.decode(anchor_box(s.anchors, a), OffsetEncoding(*img.heads.offsets[a])),
                            Box(*img.gts.boxes[img.match.gt_index[a]].tolist())).value
                for a in img.match.positive_indices.tolist()
            ]
            assert len(want) > 0 and img.iou_tar.tobytes() == np.array(want).tobytes()

    def test_histogram_truncates_each_value(self):
        # v * bins truncated as int() does, the last bin capped: 0.3 * 10 is
        # 3.0000000000000004 and 0.7 * 10 is 7.000000000000001
        values = [0.0, 0.1, 0.09999999999999999, 0.3, 0.29999999999999993, 0.7, 0.95, 0.9999999999999999, 1.0]
        for bins in (1, 3, 10):
            edges, counts = iou_histogram(values, bins)
            want = [0] * bins
            for v in values:
                want[min(int(v * bins), bins - 1)] += 1
            assert counts == want and all(type(c) is int for c in counts)
            assert edges == [i / bins for i in range(bins + 1)] and all(type(e) is float for e in edges)
        assert iou_histogram([]) == ([i / 10 for i in range(11)], [0] * 10)

    @pytest.mark.parametrize("overrides", **SCENE_OVERRIDES)
    @pytest.mark.parametrize("seed", range(4))
    def test_heads_match_per_anchor_loop(self, overrides, seed):
        # the array synthesis gives the per-anchor loop's heads bit for bit
        s = generate_scenario(replace(ScenarioConfig(seed=seed), **overrides))
        want = oracles.scenario_images(s.cfg)
        assert len(s.images) == len(want)
        for img, (gts, gt_classes, gt_index, features, heads) in zip(s.images, want):
            assert img.gts.boxes.tolist() == [list(b.as_tuple()) for b in gts]
            assert img.gts.class_id.tolist() == gt_classes
            assert img.match.gt_index.tolist() == gt_index
            for name in ("offsets", "class_probs", "p_iou"):
                assert getattr(img.heads, name).tobytes() == getattr(heads, name).tobytes(), name

    @pytest.mark.parametrize("overrides", **SCENE_OVERRIDES)
    @pytest.mark.parametrize("seed", range(4))
    def test_features_replay_the_per_anchor_loop(self, overrides, seed):
        # the features replayed from the saved states are the ones the scene
        # stream draws in place, bit for bit
        s = generate_scenario(replace(ScenarioConfig(seed=seed), **overrides))
        want = oracles.scenario_images(s.cfg)
        got = scenario_features(s)
        assert len(got) == len(want)
        for img_features, (_, _, _, features, _) in zip(got, want):
            assert img_features.tobytes() == features.tobytes()

    def test_synthesis_holds_no_feature_block(self):
        # report and gen never read the features: the scenario keeps the
        # generator states, not a (anchors, feature_dim) block per image; a
        # first run fills the caches that a fresh process fills once
        generate_scenario(ScenarioConfig(seed=1))
        tracemalloc.start()
        try:
            s = generate_scenario(ScenarioConfig())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < len(s.anchors) * s.cfg.fit.feature_dim * 8

    def test_synthesis_peak_does_not_grow_with_feature_dim(self):
        # the step past each feature block draws into one fixed buffer, so
        # 8× the feature width adds nothing to the traced peak, where one
        # (2,136, 512) float64 block is 8.3 MiB
        generate_scenario(ScenarioConfig(seed=1))

        def peak(feature_dim):
            tracemalloc.start()
            try:
                generate_scenario(ScenarioConfig(fit=FitConfig(feature_dim=feature_dim)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(512) - peak(64) < 0.5 * 2**20

    @pytest.mark.parametrize(
        "overrides", [{}, {"n_classes": 5, "grids": (10, 5, 3), "image_size": 96.0}], ids=["default", "5-class"]
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_ground_truths_match_per_box_loop(self, overrides, seed):
        # the rows, and the random draws they take, of the Box/iou_value loop;
        # 30 boxes crowd the image, so some take the least-overlapping of 100 draws
        cfg = replace(ScenarioConfig(seed=seed), **overrides)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (0, 1, 4, 30):
            rows = _sample_gt_boxes(rng, cfg, count)
            want = np.array([b.as_tuple() for b in oracles.sample_gt_boxes(oracle_rng, cfg, count)]).reshape(-1, 4)
            assert rows.dtype == np.float64 and rows.tobytes() == want.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_score_flip_pair(self):
        dets, a, b = score_flip_pair()
        assert kept_records(dets, 0.5, "standard") == [a]
        assert kept_records(dets, 0.5, "iou_guided") == [b]


def _frozen_optimum():
    """A scenario and model sitting exactly at zero loss: the ground truth
    coincides with an anchor box (dyadic coordinates, offsets exactly 0)
    and one-hot features make every head output exact."""
    levels = build_levels((2,), (8.0,), (0.5, 0.5), aspect_ratios=(1.0,))
    anchors = generate_default_boxes(16.0, levels)
    n = len(anchors)
    gt = anchor_box(anchors, 0)
    gts = GroundTruths([gt.as_tuple()], [1])
    match = match_anchors(anchors, gts.boxes)
    features = np.eye(n)[None]
    heads = HeadOutputs(np.zeros((n, 4)), np.zeros((n, 2)), np.zeros(n))
    image = SceneImage("0", gts, match, heads, _measured_ious(anchors, match, gts, heads.offsets, match.positive_indices))
    cfg = replace(
        SMALL,
        n_classes=1,
        grids=(2,),
        image_size=16.0,
        n_images=1,
        fit=FitConfig(epochs=5, step=0.1, feature_dim=n),
    )
    scenario = Scenario(cfg, anchors, [image], [])

    model = ToyModel(
        w_off=np.zeros((4, n)),
        w_cls=np.zeros((2, n)),
        w_iou=np.zeros(n),
    )
    model.w_cls[0, :] = 1.0  # background exactly 1 everywhere
    for a in match.positive_indices:
        model.w_cls[1, a] = 1.0
        model.w_iou[a] = 1.0
    return scenario, model, cfg, features


class TestFit:
    def test_loss_trace_constant_zero_at_optimum(self):
        scenario, model, cfg, features = _frozen_optimum()
        before = model.w_cls.copy()
        result = fit_toy(model, scenario, features, cfg)
        assert [t["total"] for t in result.trace] == [0.0] * (cfg.fit.epochs + 1)
        np.testing.assert_array_equal(model.w_cls, before)

    def test_final_loss_below_initial(self):
        for seed in (0, 1, 2):
            cfg = replace(SMALL, seed=seed)
            scenario = generate_scenario(cfg)
            model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, seed)
            result = fit_toy(model, scenario, scenario_features(scenario), cfg)
            assert result.final_loss < result.initial_loss

    def test_divergence_aborts_with_diagnostic(self):
        cfg = replace(SMALL, fit=FitConfig(epochs=5, step=1e9, feature_dim=16))
        scenario = generate_scenario(cfg)
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, 0)
        with pytest.raises(NumericalError):
            fit_toy(model, scenario, scenario_features(scenario), cfg)

    def test_nan_box_message_names_python_floats(self):
        # the message carried each corner's NumPy repr: Box(x1=np.float64(nan), ...)
        cfg = ScenarioConfig()
        scenario = generate_scenario(cfg)
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed)
        model.w_off[0, 0] = math.nan  # feature 0 is 1 on every anchor
        with pytest.raises(NumericalError) as exc:
            fit_toy(model, scenario, scenario_features(scenario), cfg)
        assert str(exc.value) == ("loss diverged at epoch 0: negative box extent: "
                                  "Box(x1=nan, y1=6.118892913466276, x2=nan, y2=41.80234533072083)")

    def test_products_run_on_one_blas_thread_and_the_count_returns(self, monkeypatch):
        threads = toyfit._openblas_threads()
        if threads is None:
            pytest.skip("numpy bundles no OpenBLAS")
        get, set_ = threads
        forward, seen = ToyModel.forward, []
        monkeypatch.setattr(ToyModel, "forward", lambda self, features: (seen.append(get()), forward(self, features))[1])
        before = get()
        set_(2)
        try:
            scenario = generate_scenario(SMALL)
            fit_toy(init_toy_model(SMALL.n_classes, SMALL.fit.feature_dim, 0), scenario, scenario_features(scenario), SMALL)
            assert get() == 2
            diverging = replace(SMALL, fit=FitConfig(epochs=5, step=1e9, feature_dim=16))
            scenario = generate_scenario(diverging)
            with pytest.raises(NumericalError):
                fit_toy(init_toy_model(SMALL.n_classes, 16, 0), scenario, scenario_features(scenario), diverging)
            assert get() == 2
        finally:
            set_(before)
        assert seen and set(seen) == {1}

    def test_snapshot_schedule(self):
        cfg = replace(SMALL, fit=FitConfig(epochs=30, step=0.05, snapshots=4, feature_dim=16))
        scenario = generate_scenario(cfg)
        model = init_toy_model(cfg.n_classes, cfg.fit.feature_dim, 0)
        result = fit_toy(model, scenario, scenario_features(scenario), cfg)
        assert [e for e, _, _ in result.snapshots] == [0, 10, 20, 30]
        for _, edges, counts in result.snapshots:
            assert sum(counts) == sum(len(img.match.positive_indices) for img in scenario.images)

    @pytest.mark.parametrize("cfg", [SMALL, ScenarioConfig(seed=0)], ids=["small", "default"])
    def test_detections_are_the_decode_of_the_fitted_forward(self, cfg):
        # the path the fit's decode replaced: a second forward of the fitted
        # weights after the fit, on one BLAS thread, decoded image by image
        scenario = generate_scenario(cfg)
        features = scenario_features(scenario)
        fit = fit_toy(init_toy_model(cfg.n_classes, cfg.fit.feature_dim, cfg.seed), scenario, features, cfg)
        with toyfit.one_blas_thread():
            heads = fit.model.forward(features)
        want = {
            img.image_id: detections_from_heads(
                scenario.anchors, HeadOutputs(heads.offsets[i], heads.class_probs[i], heads.p_iou[i]),
                cfg.nms.score_floor, img.image_id)
            for i, img in enumerate(scenario.images)
        }
        assert list(fit.detections) == [img.image_id for img in scenario.images]
        assert sum(len(d) for d in want.values()) > 0 and bits(fit.detections) == bits(want)

    def test_snapshots_histogram_the_loss_iou_tar(self, monkeypatch):
        # each snapshot reads the iou_tar of its epoch's total_loss call
        seen = []
        monkeypatch.setattr(toyfit, "total_loss", lambda *args: (seen.append(losses_total_loss(*args)), seen[-1])[1])
        cfg = replace(SMALL, fit=FitConfig(epochs=6, step=0.05, snapshots=3, feature_dim=16))
        scenario = generate_scenario(cfg)
        result = fit_toy(init_toy_model(cfg.n_classes, 16, 0), scenario, scenario_features(scenario), cfg)
        assert [e for e, _, _ in result.snapshots] == [0, 3, 6]
        for epoch, edges, counts in result.snapshots:
            assert (edges, counts) == iou_histogram(seen[epoch].iou_tar)
            assert len(seen[epoch].iou_tar) == sum(seen[epoch].n_pos)


# the projection rule as it read the raw scores, before the clamp
def _projected_on_raw(grad, raw):
    allowed = ((raw > PROB_EPS) & (raw < 1.0)) | ((raw <= PROB_EPS) & (grad < 0.0)) | ((raw >= 1.0) & (grad > 0.0))
    return grad * allowed


def test_projection_reads_the_clamped_scores_as_the_raw_ones():
    scores = [PROB_EPS, np.nextafter(PROB_EPS, 0.0), np.nextafter(PROB_EPS, 1.0), 1.0, np.nextafter(1.0, 0.0),
              np.nextafter(1.0, 2.0), 0.0, math.inf, -math.inf, math.nan]
    grads = [1.0, -1.0, 0.0, -0.0, math.nan]
    raw, grad = (np.array(v, dtype=np.float64).ravel() for v in np.meshgrid(scores, grads))
    got = toyfit._projected(grad, np.clip(raw, PROB_EPS, 1.0))
    assert got.tobytes() == _projected_on_raw(grad, raw).tobytes()
    # the table reaches every branch: kept inside, admitted and frozen at both bounds
    assert {float(g) for g in got[np.isfinite(got)]} == {1.0, -1.0, 0.0}


class TestBatchedForward:
    """One stacked product over all images gives the bits of per-image,
    per-head products: each output element is the same dot product over
    the feature axis."""

    @pytest.mark.parametrize("threads", [contextlib.nullcontext, toyfit.one_blas_thread], ids=["default", "one"])
    def test_bits_of_per_image_per_head_products(self, threads):
        cfg = ScenarioConfig()
        block = scenario_features(generate_scenario(cfg))
        k, dim = cfg.n_classes + 1, cfg.fit.feature_dim
        models = [init_toy_model(cfg.n_classes, dim, cfg.seed)]
        rng = np.random.default_rng(0)
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            models.append(ToyModel(rng.normal(0.0, scale, (4, dim)), rng.normal(0.0, scale, (k, dim)),
                                   rng.normal(0.0, scale, dim)))
        with threads():
            for model in models:
                heads = model.forward(block)
                for i, features in enumerate(block):
                    assert heads.offsets[i].tobytes() == (features @ model.w_off.T).tobytes()
                    raw_cls, raw_iou = features @ model.w_cls.T, features @ model.w_iou
                    assert heads.class_probs[i].tobytes() == np.clip(raw_cls, PROB_EPS, 1.0).tobytes()
                    assert heads.p_iou[i].tobytes() == np.clip(raw_iou, PROB_EPS, 1.0).tobytes()


class TestNmsAb:
    def test_uniform_p_iou_makes_modes_identical(self):
        scenario = generate_scenario(SMALL)
        for img in scenario.images:
            img.heads.p_iou[:] = 1.0
        rep = run_nms_ab(scenario)
        assert rep.modes["standard"].report == rep.modes["iou_guided"].report
        assert rep.modes["standard"].kept_count == rep.modes["iou_guided"].kept_count

    def test_calibrated_p_iou_reduces_confident_bad_boxes(self):
        wins = 0
        for seed in range(10):
            scenario = generate_scenario(replace(SMALL, seed=seed))
            rep = run_nms_ab(scenario)
            std = rep.modes["standard"].high_score_low_iou
            gui = rep.modes["iou_guided"].high_score_low_iou
            wins += gui < std
        assert wins >= 9

    def test_guided_high_score_low_iou_is_zero_when_calibrated(self):
        # score > 0.5 with calibrated p_iou forces true IOU > 0.5
        scenario = generate_scenario(SMALL)
        rep = run_nms_ab(scenario)
        assert rep.modes["iou_guided"].high_score_low_iou == 0

    def test_scatter_covers_kept_boxes(self):
        scenario = generate_scenario(SMALL)
        rep = run_nms_ab(scenario)
        for res in rep.modes.values():
            assert len(res.scatter) == res.kept_count


class TestApAfterNms:
    """The fit path's NMS keeps only the rows per (image, class) that
    ``evaluate`` reads, and the AP is the uncapped one to the bit."""

    @pytest.fixture(scope="class")
    def fitted(self):
        scenario = generate_scenario(SMALL)
        features = scenario_features(scenario)
        fit = fit_toy(init_toy_model(SMALL.n_classes, SMALL.fit.feature_dim, 0), scenario, features, SMALL)
        return scenario, fit.detections

    @pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("mode", MODES)
    def test_ap_is_the_uncapped_one(self, fitted, mode, iou_threshold):
        scenario, decoded = fitted
        scenario = replace(scenario, cfg=replace(SMALL, nms=replace(SMALL.nms, iou_threshold=iou_threshold)))
        full = {img: greedy_nms(dets, iou_threshold, mode, SMALL.nms.score_floor) for img, dets in decoded.items()}
        want = evaluate(full, {img.image_id: img.gts for img in scenario.images}, mode)
        assert bits(ap_after_nms(scenario, decoded, mode)) == bits(want)

    def test_keeps_at_most_the_rows_evaluate_reads(self, fitted, monkeypatch):
        scenario, decoded = fitted
        seen = []
        monkeypatch.setattr(experiments, "evaluate", lambda kept, gts, mode: seen.append(kept))
        ap_after_nms(scenario, decoded, SMALL.nms.mode)
        # the uncapped NMS keeps over 470 rows of each class of each image here
        assert {max(Counter(kept.class_id.tolist()).values()) for kept in seen[0].values()} == {MAX_DETECTIONS_PER_IMAGE}


class TestAblation:
    def test_emits_all_combos(self):
        cfg = replace(SMALL, fit=FitConfig(epochs=10, step=0.05, feature_dim=16))
        rows = run_ablation(generate_scenario(cfg))
        assert [(r.cls_loss, r.iou_loss) for r in rows] == [("ceji", "l2"), ("ce", "r_iou"), ("ceji", "r_iou")]
        for r in rows:
            assert r.final_loss < r.initial_loss
            assert 0.0 <= r.report.ap <= 1.0


SVG_NS = "{http://www.w3.org/2000/svg}"
# titles and labels with the characters XML text escapes, quotes and
# non-ASCII; control characters and non-characters are not XML text
figure_text = st.text(
    st.one_of(st.sampled_from("&<>\"'é€漢😀 "), st.characters(blacklist_categories=("Cc", "Cs", "Cn"))), min_size=1,
)
figure_coord = st.one_of(st.sampled_from((0.0, 1.0, -0.0, -1.5, 2.5, math.nan)), st.floats())


class TestPlots:
    @settings(deadline=None)
    @given(st.lists(st.tuples(figure_coord, figure_coord), max_size=6), figure_text, figure_text, figure_text)
    def test_scatter_matches_the_element_tree_figure(self, points, title, xlabel, ylabel):
        svg = scatter_svg(points, title, xlabel, ylabel)
        assert svg == oracles.scatter_svg(points, title, xlabel, ylabel)
        assert [t.text for t in ET.fromstring(svg).iter(f"{SVG_NS}text")] == [title, xlabel, ylabel]

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.just(0), st.integers(0, 10**6)), max_size=8).flatmap(
        lambda counts: st.tuples(st.just(counts), st.lists(figure_coord, min_size=len(counts) + 1,
                                                           max_size=len(counts) + 1))),
        figure_text, figure_text)
    def test_histogram_matches_the_element_tree_figure(self, counts_edges, title, xlabel):
        counts, edges = counts_edges
        svg = histogram_svg(edges, counts, title, xlabel)
        assert svg == oracles.histogram_svg(edges, counts, title, xlabel)
        assert [t.text for t in ET.fromstring(svg).iter(f"{SVG_NS}text")] == [title, xlabel, "count"]

    def test_scatter_point_count(self):
        points = [(0.1, 0.2), (0.5, 0.9), (1.0, 0.0)]
        svg = scatter_svg(points, "t", "x", "y")
        root = ET.fromstring(svg)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle[@class='point']")) == 3

    def test_empty_scatter_is_valid_xml(self):
        root = ET.fromstring(scatter_svg([], "t", "x", "y"))
        assert root.tag.endswith("svg")
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 0

    def test_histogram_bin_count(self):
        edges, counts = iou_histogram([0.05, 0.15, 0.95, 0.99])
        svg = histogram_svg(edges, counts, "t", "iou")
        root = ET.fromstring(svg)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}rect[@class='bin']")) == len(counts)
