import importlib
import json
import math
import pkgutil
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import detkit
from detkit import cli, harness
from detkit.cli import main
from detkit.harness import ScenarioConfig, ToyModel, experiments, generate_scenario, load_config, run_ablation
from detkit.harness import scenario as scenario_module
from detkit.harness.config import FitConfig


def write_config(tmp_path, **overrides) -> Path:
    cfg = ScenarioConfig(
        seed=5,
        image_size=96.0,
        n_images=2,
        object_count=(2, 3),
        grids=(12, 6, 3),
        fit=FitConfig(epochs=15, step=0.05, feature_dim=16),
        output_dir=str(tmp_path / "out"),
    )
    cfg = replace(cfg, **overrides)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def read_all_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestGen:
    def test_writes_scenario_files(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("config.json", "anchors.json", "ground_truths.json", "detections.csv", "iou_tar_hist.csv"):
            assert (out / name).exists(), name
        header = (out / "detections.csv").read_text().splitlines()[0]
        assert header == "image_id,class_id,x1,y1,x2,y2,p_cls,p_iou"

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "9"])
        a = (tmp_path / "a" / "ground_truths.json").read_bytes()
        b = (tmp_path / "b" / "ground_truths.json").read_bytes()
        assert a != b

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"object_size_range": [0.5, 2.0]}')
        assert main(["gen", "--config", str(bad)]) == 2


class TestFit:
    def test_fit_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "fit_report.json").read_text())
        assert report["final_loss"] < report["initial_loss"]
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,total,cls,reg,iou"
        assert len(trace) == 1 + 15 + 1  # header + per-epoch + final
        hists = sorted(out.glob("iou_tar_hist_epoch*.csv"))
        assert len(hists) == 4

    def test_divergence_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, fit=FitConfig(epochs=5, step=1e9, feature_dim=16))
        assert main(["fit", "--config", str(cfg)]) == 3


class TestNmsEval:
    def test_nms_then_eval_pipeline(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", str(cfg)])
        out = tmp_path / "out"
        assert main([
            "nms", "--detections", str(out / "detections.csv"),
            "--mode", "iou_guided", "--out", str(tmp_path / "nmsout"),
        ]) == 0
        kept = tmp_path / "nmsout" / "kept.csv"
        summary = json.loads((tmp_path / "nmsout" / "nms_summary.json").read_text())
        assert kept.exists() and summary["mode"] == "iou_guided"
        assert summary["total_kept"] <= sum(v["input"] for v in summary["images"].values())

        assert main([
            "eval", "--detections", str(kept),
            "--ground-truths", str(out / "ground_truths.json"),
            "--mode", "iou_guided", "--out", str(tmp_path / "report.json"),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"}
        assert all(0.0 <= v <= 1.0 for v in report.values())


class TestNmsThreshold:
    # the threshold was checked only inside greedy_nms, which a file without
    # rows never calls: the run exited 0 and recorded the threshold
    @pytest.mark.parametrize("threshold", ["0", "1", "5", "nan"])
    def test_header_only_file_exits_2_with_one_line(self, tmp_path, capsys, threshold):
        dets = tmp_path / "detections.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n")
        out = tmp_path / "nms_out"
        assert main(["nms", "--detections", str(dets), "--iou-threshold", threshold, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "iou_threshold must lie in (0, 1)" in err
        assert not out.exists()


class TestRf:
    def test_builtin_table(self, tmp_path):
        out = tmp_path / "rf.csv"
        assert main(["rf", "--builtin", "dilated_extra", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("name,kind,kernel")
        assert len(lines) == 7

    def test_chain_json(self, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "initial": {"receptive_field": 1, "jump": 1},
            "layers": [{"kernel": 3, "dilation": 2, "in_channels": 4, "out_channels": 4}],
        }))
        out = tmp_path / "rf.csv"
        assert main(["rf", "--chain", str(chain), "--out", str(out)]) == 0
        assert "5,1" in out.read_text().splitlines()[1]

    def test_bad_chain_exits_2(self, tmp_path, capsys):
        # the KeyError printed only the key: "bad chain document: 'kernel'"
        chain = tmp_path / "chain.json"
        chain.write_text('{"layers": [{"stride": 2}]}')
        assert main(["rf", "--chain", str(chain), "--out", str(tmp_path / "rf.csv")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["config error: missing chain.layers[0] keys: ['kernel']"]

    def test_negative_padding_exits_2(self, tmp_path, capsys):
        # exited 0 and wrote padding -1, which the graph's conv2d cannot pad by
        chain = tmp_path / "chain.json"
        chain.write_text('{"layers": [{"kernel": 3, "padding": -1}]}')
        out = tmp_path / "rf.csv"
        assert main(["rf", "--chain", str(chain), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: chain.layers[0].padding must be at least 0, got -1"]
        assert not out.exists()

    # int() read each of these as a valid layer: 3.9 as kernel 3, true as
    # dilation 1, "3" as kernel 3
    @pytest.mark.parametrize(
        "layer,message",
        [
            ({"kernel": 3.9}, "chain.layers[0].kernel must be int, got 3.9"),
            ({"kernel": 3, "dilation": True}, "chain.layers[0].dilation must be int, got True"),
            ({"kernel": "3"}, "chain.layers[0].kernel must be int, got '3'"),
            ({"kernel": 3, "stride": 2.0}, "chain.layers[0].stride must be int, got 2.0"),
            # str() read these as the names "None" and "['a', 1]", and the kind null as 'None'
            ({"kernel": 3, "name": None}, "chain.layers[0].name must be str, got None"),
            ({"kernel": 3, "name": ["a", 1]}, "chain.layers[0].name must be str, got ['a', 1]"),
            ({"kernel": 3, "kind": None}, "chain.layers[0].kind must be one of ['conv', 'pool'], got None"),
        ],
        ids=["kernel-float", "dilation-bool", "kernel-str", "stride-integral-float", "name-null", "name-list",
             "kind-null"],
    )
    def test_non_integer_field_exits_2_with_one_line(self, tmp_path, capsys, layer, message):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"layers": [layer]}))
        out = tmp_path / "rf.csv"
        assert main(["rf", "--chain", str(chain), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not out.exists()

    # each raised an AttributeError or a TypeError, and rf exited 1 with a traceback
    @pytest.mark.parametrize(
        "doc,message",
        [
            ("[]", "chain must be object, got []"),
            ('{"layers": 5}', "chain.layers must be an array of object values, got 5"),
            ('{"layers": [5]}', "chain.layers[0] must be object, got 5"),
            ('{"initial": 5, "layers": [{"kernel": 3}]}', "chain.initial must be object, got 5"),
        ],
        ids=["list", "layers-int", "layer-int", "initial-int"],
    )
    def test_malformed_chain_document_exits_2_with_one_line(self, tmp_path, capsys, doc, message):
        chain = tmp_path / "chain.json"
        chain.write_text(doc)
        out = tmp_path / "rf.csv"
        assert main(["rf", "--chain", str(chain), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not out.exists()

    # each exited 0, the misspelt field left at its default
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"intial": {"receptive_field": 92, "jump": 8}, "layers": [{"kernel": 3}]},
             "unknown chain keys: ['intial']"),
            ({"initial": {"receptive_feild": 92, "jump": 8}, "layers": [{"kernel": 3}]},
             "unknown chain.initial keys: ['receptive_feild']"),
            ({"layers": [{"kernel": 3}, {"kernel": 3, "strides": 2, "dilaton": 2}]},
             "unknown chain.layers[1] keys: ['dilaton', 'strides']"),
        ],
        ids=["top-level", "initial", "layer"],
    )
    def test_unknown_key_exits_2_with_one_line(self, tmp_path, capsys, doc, message):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(doc))
        out = tmp_path / "rf.csv"
        assert main(["rf", "--chain", str(chain), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not out.exists()

    def test_non_integer_initial_state_exits_2(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"initial": {"jump": 1.5}, "layers": [{"kernel": 3}]}))
        assert main(["rf", "--chain", str(chain), "--out", str(tmp_path / "rf.csv")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["config error: chain.initial.jump must be int, got 1.5"]


class TestReport:
    def test_report_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["report", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        doc = json.loads((out / "nms_ab_report.json").read_text())
        assert set(doc["modes"]) == {"standard", "iou_guided"}
        for mode in ("standard", "iou_guided"):
            assert (out / f"scatter_{mode}.csv").exists()
            assert (out / f"scatter_{mode}.svg").exists()
        assert (out / "iou_tar_hist.svg").exists()

    def test_report_scatter_rederivable(self, tmp_path):
        # the counted numbers in the report must be re-derivable from the CSVs
        cfg = write_config(tmp_path)
        main(["report", "--config", str(cfg)])
        out = tmp_path / "out"
        doc = json.loads((out / "nms_ab_report.json").read_text())
        for mode in ("standard", "iou_guided"):
            rows = (out / f"scatter_{mode}.csv").read_text().splitlines()[1:]
            assert len(rows) == doc["modes"][mode]["kept"]
            bad = sum(1 for r in rows if float(r.split(",")[0]) > 0.5 and float(r.split(",")[1]) < 0.5)
            assert bad == doc["modes"][mode]["high_score_low_iou"]

    def test_ablation_synthesizes_the_scenario_once(self, tmp_path, monkeypatch):
        # run_ablation synthesized again the scenario that cmd_report had built
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return generate_scenario(cfg)

        for module in (cli, harness, experiments, scenario_module):
            if hasattr(module, "generate_scenario"):
                monkeypatch.setattr(module, "generate_scenario", counted)
        cfg = write_config(tmp_path, fit=FitConfig(epochs=2, step=0.05, feature_dim=16))
        assert main(["report", "--config", str(cfg), "--ablation"]) == 0
        assert len(calls) == 1

    def test_ablation_table(self, tmp_path):
        cfg = write_config(tmp_path, fit=FitConfig(epochs=8, step=0.05, feature_dim=16))
        assert main(["report", "--config", str(cfg), "--ablation"]) == 0
        lines = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
        header = ["cls_loss", "iou_loss", "reg_loss", "initial_loss", "final_loss",
                  "ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"]
        assert lines[0] == ",".join(header)
        # each row holds run_ablation's values, read by column name
        rows = run_ablation(generate_scenario(load_config(cfg)))
        assert len(lines) == 1 + len(rows)
        for line, r in zip(lines[1:], rows):
            values = {"cls_loss": r.cls_loss, "iou_loss": r.iou_loss, "reg_loss": r.reg_loss,
                      "initial_loss": r.initial_loss, "final_loss": r.final_loss, **r.report.as_dict()}
            assert line == ",".join(v if isinstance(v, str) else repr(v) for v in map(values.get, header))
        # a swap of two AP columns would show
        assert any(r.report.ap50 != r.report.ap75 for r in rows)


class TestDeterminism:
    @pytest.mark.parametrize("command", ["gen", "fit", "report"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = write_config(tmp_path, fit=FitConfig(epochs=8, step=0.05, feature_dim=16))
        main([command, "--config", str(cfg), "--out", str(tmp_path / "a")])
        main([command, "--config", str(cfg), "--out", str(tmp_path / "b")])
        a = read_all_bytes(tmp_path / "a")
        b = read_all_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{command}: {name} differs between runs"


NON_FINITE_BOXES = pytest.mark.parametrize(
    "box",
    [("0", "0", "inf", "inf"), ("-inf", "0", "4", "4"), ("0", "nan", "4", "4")],
    ids=["inf", "-inf", "nan"],
)


class TestNonFiniteDetections:
    # two identical rows per file: with an infinite box their IOU is NaN,
    # which NMS would read as "no overlap"
    @pytest.mark.parametrize("command", ["nms", "eval"])
    @NON_FINITE_BOXES
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, box):
        row = ",".join(["img0", "1", *box, "0.9", "0.8"])
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n" + row + "\n" + row + "\n")
        gts = tmp_path / "gts.json"
        gts.write_text(json.dumps({"images": [{"image_id": "img0", "objects": []}]}))
        argv = {
            "nms": ["nms", "--detections", str(dets), "--out", str(tmp_path / "nmsout")],
            "eval": ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                     "--out", str(tmp_path / "report.json")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "non-finite" in err
        assert not (tmp_path / "nmsout").exists() and not (tmp_path / "report.json").exists()


class TestMalformedDetectionNumber:
    # int() and float() alone read "1_0" as 10, " 2 " as 2 and "\u0663" as 3, so nms wrote them back changed;
    # int() raised on a class id spelled as a float, with a message that did not name the row
    @pytest.mark.parametrize("command", ["nms", "eval"])
    @pytest.mark.parametrize(
        "cells", [("1_0", "0.9"), (" 2 ", "0.9"), ("\u0663", "0.9"), ("1", "0.9 "), ("1", "0.2_5"),
                  ("1e3", "0.9"), ("1.5", "0.9"), ("2.0", "0.9"), ("inf", "0.9")],
        ids=["underscore", "spaces", "arabic_digit", "trailing_space", "float_underscore",
             "class_id_exponent", "class_id_fraction", "class_id_point_zero", "class_id_inf"])
    def test_exits_2_with_one_line_naming_the_row(self, tmp_path, capsys, command, cells):
        class_id, p_iou = cells
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n"
                        f"img7,{class_id},0,0,4,4,0.9,{p_iou}\n")
        gts = tmp_path / "gts.json"
        gts.write_text(json.dumps({"images": [{"image_id": "img0", "objects": []}]}))
        argv = {
            "nms": ["nms", "--detections", str(dets), "--out", str(tmp_path / "nmsout")],
            "eval": ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                     "--out", str(tmp_path / "report.json")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "malformed number" in err and "img7" in err
        assert not (tmp_path / "nmsout").exists() and not (tmp_path / "report.json").exists()

    def test_plain_spellings_read(self, tmp_path):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,+3,-0.0,.5,1E-5,5.,1e0,0.125\n"
                        "img1,-0,0,0,1,1,0.5,0.5\n")
        assert main(["nms", "--detections", str(dets), "--out", str(tmp_path / "nmsout")]) == 0
        kept = (tmp_path / "nmsout" / "kept.csv").read_text().splitlines()
        assert kept[1:] == ["img0,3,-0.0,0.5,1e-05,5.0,1.0,0.125", "img1,0,0.0,0.0,1.0,1.0,0.5,0.5"]


class TestNonFiniteGroundTruths:
    # next to a matched finite ground truth, a box at infinity lies outside
    # every area range and would be ignored, reporting AP = 1.0
    @NON_FINITE_BOXES
    def test_eval_exits_2_with_one_line(self, tmp_path, capsys, box):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n")
        objects = [{"box": [0, 0, 4, 4], "class_id": 1}, {"box": [float(v) for v in box], "class_id": 1}]
        gts = tmp_path / "gts.json"
        gts.write_text(json.dumps({"images": [{"image_id": "img0", "objects": objects}]}))
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        i = [math.isfinite(float(v)) for v in box].index(False)
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: ground_truths.images[0].objects[1].box[{i}] must be float, got {float(box[i])!r}"]
        assert not (tmp_path / "report.json").exists()


class TestNonIntegerGroundTruthClass:
    # int() would read each of these as class 1, matching the detection
    # and reporting AP = 1.0
    @pytest.mark.parametrize(
        "class_id", [1.7, True, "1", 1.0], ids=["float", "bool", "str", "integral-float"]
    )
    def test_eval_exits_2_with_one_line(self, tmp_path, capsys, class_id):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n")
        objects = [{"box": [0, 0, 4, 4], "class_id": class_id}]
        gts = tmp_path / "gts.json"
        gts.write_text(json.dumps({"images": [{"image_id": "img0", "objects": objects}]}))
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: ground_truths.images[0].objects[0].class_id must be int, got {class_id!r}"]
        assert not (tmp_path / "report.json").exists()


class TestMalformedGroundTruthBox:
    # Box(*coords) raised an uncaught TypeError for a wrong coordinate count
    @pytest.mark.parametrize(
        "box,message",
        [
            ([0, 0, 4], "box must be an array of 4 float values, got [0, 0, 4]"),
            ([0, 0, 4, 4, 4], "box must be an array of 4 float values, got [0, 0, 4, 4, 4]"),
            ("0 0 4 4", "box must be an array of 4 float values, got '0 0 4 4'"),
            ({"x1": 0, "y1": 0, "x2": 4, "y2": 4},
             "box must be an array of 4 float values, got {'x1': 0, 'y1': 0, 'x2': 4, 'y2': 4}"),
            ([0, 0, True, 4], "box[2] must be float, got True"),
        ],
        ids=["3-coords", "5-coords", "string", "object", "bool-coord"],
    )
    def test_eval_exits_2_with_one_line(self, tmp_path, capsys, box, message):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n")
        gts = tmp_path / "gts.json"
        gts.write_text(json.dumps({"images": [{"image_id": "img0", "objects": [{"box": box, "class_id": 1}]}]}))
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: ground_truths.images[0].objects[0].{message}"]
        assert not (tmp_path / "report.json").exists()


class TestMalformedGroundTruthDocument:
    # each raised a TypeError (the integer coordinate an OverflowError), and
    # eval exited 1 with a traceback
    @pytest.mark.parametrize(
        "doc,message",
        [
            ("[]", "ground_truths must be object, got []"),
            ('{"images": 5}', "ground_truths.images must be an array of object values, got 5"),
            ('{"images": [5]}', "ground_truths.images[0] must be object, got 5"),
            ('{"images": [{"image_id": "img0", "objects": 5}]}',
             "ground_truths.images[0].objects must be an array of object values, got 5"),
            ('{"images": [{"image_id": "img0", "objects": [5]}]}',
             "ground_truths.images[0].objects[0] must be object, got 5"),
            (
                '{"images": [{"image_id": "img0", "objects": [{"box": [0, 0, 1%s, 4], "class_id": 1}]}]}' % ("0" * 400),
                "bad ground truths in image 'img0': int too large to convert to float",
            ),
        ],
        ids=["list", "images-int", "image-int", "objects-int", "object-int", "coordinate-1e400"],
    )
    def test_eval_exits_2_with_one_line(self, tmp_path, capsys, doc, message):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n")
        gts = tmp_path / "gts.json"
        gts.write_text(doc)
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "report.json").exists()


class TestMissingGroundTruthKey:
    # a missing key raised KeyError, and eval printed only the key's name
    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"images": [{"objects": []}]}', "missing ground_truths.images[0] keys: ['image_id']"),
            ('{"images": [{"image_id": "img0", "objects": [{"class_id": 1}]}]}',
             "missing ground_truths.images[0].objects[0] keys: ['box']"),
            ('{"images": [{"image_id": "img0", "objects": [{"box": [0, 0, 4, 4]}]}]}',
             "missing ground_truths.images[0].objects[0] keys: ['class_id']"),
        ],
        ids=["image_id", "box", "class_id"],
    )
    def test_eval_exits_2_naming_the_key(self, tmp_path, capsys, doc, message):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n")
        gts = tmp_path / "gts.json"
        gts.write_text(doc)
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "report.json").exists()


class TestNonStringImageId:
    # json values other than strings passed through str(): image_id null read
    # as the image "None", so a detection on image None scored AP 1.0
    @pytest.mark.parametrize("image_id,csv_id", [("null", "None"), ("[1]", "[1]"), ("3", "3")],
                             ids=["null", "list", "int"])
    def test_eval_exits_2_naming_the_entry(self, tmp_path, capsys, image_id, csv_id):
        dets = tmp_path / "dets.csv"
        dets.write_text(f"image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n\"{csv_id}\",1,0,0,4,4,0.9,0.8\n")
        gts = tmp_path / "gts.json"
        gts.write_text('{"images": [{"image_id": %s, "objects": [{"box": [0, 0, 4, 4], "class_id": 1}]}]}' % image_id)
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"config error: ground_truths.images[0].image_id must be str, got {json.loads(image_id)!r}"]
        assert not (tmp_path / "report.json").exists()


class TestImageWithoutGroundTruths:
    # detections on an image the document lacks were scored as false
    # positives of an image with no objects: AP 0.000 and exit 0
    @pytest.mark.parametrize("other", ["img0", "img9"])
    def test_eval_exits_2_naming_the_image(self, tmp_path, capsys, other):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n"
                        f"{other},1,0,0,4,4,0.9,0.8\nimg7,1,0,0,4,4,0.9,0.8\n")
        gts = tmp_path / "gts.json"
        gts.write_text('{"images": [{"image_id": "img0", "objects": [{"box": [0, 0, 4, 4], "class_id": 1}]}]}')
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "config error: detections name image 'img7', which the ground-truth document lacks"]
        assert not (tmp_path / "report.json").exists()


class TestOverflowingArea:
    # finite corners whose area overflows to inf: such a box lay outside every
    # area range and was ignored, so eval reported AP 1.000 instead of 0.505
    # (a second ground truth) or 0.5 (a detection ranked above the true
    # positive); the detection also printed a numpy RuntimeWarning
    @pytest.mark.parametrize(
        "det_rows,objects",
        [
            (["img0,1,0,0,4,4,0.9,0.8"], [[0, 0, 4, 4], [-1e308, 0, 1e308, 10]]),
            (["img0,1,-1e308,0,1e308,4,0.9,0.8", "img0,1,0,0,4,4,0.8,0.8"], [[0, 0, 4, 4]]),
            # a finite area whose union with itself overflowed: the perfect
            # match read IOU 0 and eval reported AP 0.000
            (["img0,1,0,0,1e154,1.5e154,0.9,0.8"], [[0, 0, 1e154, 1.5e154]]),
        ],
        ids=["ground-truth", "detection", "union"],
    )
    def test_eval_exits_2_with_one_line(self, tmp_path, capsys, det_rows, objects):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n" + "\n".join(det_rows) + "\n")
        gts = tmp_path / "gts.json"
        doc = {"images": [{"image_id": "img0", "objects": [{"box": b, "class_id": 1} for b in objects]}]}
        gts.write_text(json.dumps(doc))
        argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts),
                "--out", str(tmp_path / "report.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "a box area overflows float64 in image 'img0'" in err
        assert not (tmp_path / "report.json").exists()


    # nms ranked the first box by an infinite area, and let the union of the
    # identical pair overflow so that their IOU read 0: both exited 0, keeping
    # both rows, and printed a numpy RuntimeWarning
    @pytest.mark.parametrize(
        "det_rows",
        [
            ["img0,1,-1e308,0,1e308,4,0.9,0.8", "img0,1,0,0,4,4,0.8,0.8"],
            ["img0,1,0,0,1e154,1.5e154,0.9,0.8", "img0,1,0,0,1e154,1.5e154,0.8,0.8"],
        ],
        ids=["infinite", "union"],
    )
    def test_nms_exits_2_with_one_line(self, tmp_path, capsys, det_rows):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n" + "\n".join(det_rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["nms", "--detections", str(dets), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "a box area overflows float64 in image 'img0'" in err
        assert not (tmp_path / "out").exists()


class TestNoScalarBox:
    # boxes in detkit are corner rows; the scalar Box is a test oracle, in tests/oracles.py
    def test_detkit_defines_no_box_dataclass(self):
        boxes = [
            f"{info.name}.{name}"
            for info in pkgutil.walk_packages(detkit.__path__, "detkit.")
            for name, obj in vars(importlib.import_module(info.name)).items()
            if isinstance(obj, type) and is_dataclass(obj)
            and tuple(f.name for f in fields(obj)) == ("x1", "y1", "x2", "y2")
        ]
        assert boxes == []


class TestMalformedConfig:
    @pytest.mark.parametrize("doc,message", [
        pytest.param('{"seed": 1.5}', "scenario.seed must be int", id="seed-float"),
        pytest.param('{"seed": true}', "scenario.seed must be int", id="seed-bool"),
        # numpy's "expected non-negative integer" named no field
        pytest.param('{"seed": -1}', "scenario.seed must be at least 0, got -1", id="seed-negative"),
        pytest.param('{"n_images": "4"}', "scenario.n_images must be int", id="n_images-str"),
        pytest.param('{"image_size": false}', "scenario.image_size must be float", id="image_size-bool"),
        pytest.param('{"image_size": Infinity}', "scenario.image_size must be float", id="image_size-inf"),
        pytest.param(
            '{"grids": [20, 10.5]}', "scenario.grids[1] must be int, got 10.5", id="grids-float-item"
        ),
        pytest.param(
            '{"object_count": [2, 3, 4]}', "scenario.object_count must be an array of 2 int", id="object_count-length"
        ),
        pytest.param('{"output_dir": 7}', "scenario.output_dir must be str", id="output_dir-int"),
        pytest.param(
            '{"noise": {"offset_sigma": "0.1"}}', "noise.offset_sigma must be float", id="offset_sigma-str"
        ),
        pytest.param('{"losses": {"detach_iou": 1}}', "losses.detach_iou must be bool", id="detach_iou-int"),
        pytest.param('{"fit": {"epochs": 60.0}}', "fit.epochs must be int", id="epochs-float"),
        pytest.param(
            '{"nms": {"score_floor": -1}}', "nms.score_floor must be at least 0", id="score_floor-negative"
        ),
        pytest.param('{"losses": {"cls": "focal"}}', "losses.cls must be one of ['ceji', 'ce']", id="cls-loss-unknown"),
        pytest.param(
            '{"noise": {"offset_sigma": -0.1}}', "noise.offset_sigma must be at least 0", id="offset_sigma-negative"
        ),
        pytest.param(
            '{"noise": {"distractor_offset_sigma": -1}}', "noise.distractor_offset_sigma must be at least 0",
            id="distractor_offset_sigma-negative",
        ),
        pytest.param(
            '{"noise": {"p_iou_sigma": -0.5}}', "noise.p_iou_sigma must be at least 0", id="p_iou_sigma-negative"
        ),
        pytest.param(
            '{"noise": {"distractor_rate": 1.5}}', "noise.distractor_rate must lie in [0, 1]",
            id="distractor_rate-above-1",
        ),
        pytest.param(
            '{"noise": {"distractor_rate": -0.1}}', "noise.distractor_rate must lie in [0, 1]",
            id="distractor_rate-negative",
        ),
        pytest.param(
            '{"noise": {"cls_confidence_range": [1.2, 1.5]}}', "noise.cls_confidence_range[0] must lie in [0, 1]",
            id="cls_confidence_range-above-1",
        ),
        pytest.param(
            '{"noise": {"cls_confidence_range": [0.9, 0.6]}}', "noise.cls_confidence_range must be [lo, hi]",
            id="cls_confidence_range-reversed",
        ),
        pytest.param(
            '{"noise": {"neg_background_range": [-0.5, 1.0]}}', "noise.neg_background_range[0] must lie in [0, 1]",
            id="neg_background_range-negative",
        ),
        pytest.param(
            '{"noise": {"neg_background_range": [1.0, 0.985]}}', "noise.neg_background_range must be [lo, hi]",
            id="neg_background_range-reversed",
        ),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(doc)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        # generate_scenario validates the config the override makes; numpy's
        # "expected non-negative integer" named no field
        cfg = tmp_path / "config.json"
        cfg.write_text("{}")
        assert main(["gen", "--config", str(cfg), "--seed", "-3", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["config error: scenario.seed must be at least 0, got -3"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen", "fit", "report"])
    def test_image_size_beyond_bound_exits_2(self, tmp_path, capsys, command):
        # areas derived from 1e308 overflow to inf, and a run would report
        # metrics computed from them
        cfg = tmp_path / "config.json"
        cfg.write_text('{"image_size": 1e308}')
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "image_size must lie in [0.001, 1e+06]" in err
        assert not (tmp_path / "out").exists()

    # every ground-truth area underflowed to 0, so no anchor was positive,
    # and fit printed "loss 0.105337 -> 0.000000, ap 0.0000" and exited 0
    @pytest.mark.parametrize("command", ["gen", "fit", "report"])
    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"image_size": 1e-300}', "image_size must lie in [0.001, 1e+06]"),
            ('{"object_size_range": [1e-200, 1e-200]}', "object_size_range[0] must lie in [0.001, 1]"),
        ],
        ids=["image_size", "object_size_range"],
    )
    def test_sizes_below_bound_exit_2(self, tmp_path, capsys, command, doc, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(doc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not (tmp_path / "out").exists()


class TestDecodeOverflow:
    # math.exp of a huge distractor offset overflowed while decoding, and
    # the run ended in a traceback (exit 1)
    @pytest.mark.parametrize("command", ["gen", "fit", "report"])
    def test_exits_3_with_one_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"noise": {"distractor_offset_sigma": 1e4}}')
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "overflows its decoded box" in err
        assert not (tmp_path / "out").exists()


class TestDivergingFit:
    # the replay that finds the failing positive measured the IOU of a huge
    # decoded box, and numpy's overflow warning on its squared union came
    # before the diagnostic; warnings are errors here, as the line count
    # on a terminal would show them
    @pytest.mark.parametrize("step", [3000, 4500])
    def test_exits_3_with_one_line(self, tmp_path, capsys, step):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fit": {"step": step, "epochs": 2}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "loss diverged at epoch 2" in err
        assert not (tmp_path / "out").exists()


class TestRisingLoss:
    # at seed 0 this step takes the loss from 8.578 to 5,551.1 and the AP to
    # 0, and the run exited 0 without a word; it still exits 0 and writes
    # the same files, and says so on stderr
    def test_warns_with_one_line_and_exits_0(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fit": {"step": 1000}}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"fit: loss 8.578325 -> 5551.095356, ap 0.0000; wrote {out}\n"
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "final loss 5551.095356 exceeds initial loss 8.578325" in err[0]
        report = json.loads((out / "fit_report.json").read_text())
        assert report["final_loss"] > report["initial_loss"]

    def test_falling_loss_prints_nothing_on_stderr(self, tmp_path, capsys):
        assert main(["fit", "--config", str(write_config(tmp_path))]) == 0
        assert capsys.readouterr().err == ""


class TestFittedDecode:
    # the fitted heads are decoded outside the loss's guard: an overflowing
    # exp ended in a traceback, a NaN box exited 2 as a config error, and a
    # NaN class probability dropped every detection and exited 0. The last
    # epoch's heads, which the fit decodes, are broken on a negative anchor
    # of image 0, whose offsets, object-class scores and p_iou the loss
    # does not read; a class-1 score of 1 keeps the anchor at the floor
    @pytest.mark.parametrize("field, index, value, message", [
        ("offsets", (2,), 4e3, "math range error"),
        ("offsets", (0,), math.nan, "negative box extent"),
        ("class_probs", (1,), math.nan, "NaN class probability"),
        ("p_iou", (), math.nan, "p_iou=nan"),
    ], ids=["overflow", "nan_box", "nan_class", "nan_iou"])
    def test_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch, field, index, value, message):
        config = write_config(tmp_path)
        cfg = harness.load_config(str(config))
        anchor = int(generate_scenario(cfg).images[0].match.negative_indices[0])
        forward, calls = ToyModel.forward, []

        def forward_then_break(model, features):
            heads = forward(model, features)
            calls.append(1)
            if len(calls) == cfg.fit.epochs + 1:
                heads.class_probs[0, anchor, 1] = 1.0
                getattr(heads, field)[(0, anchor, *index)] = value
            return heads

        monkeypatch.setattr(ToyModel, "forward", forward_then_break)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "fitted model decodes invalid detections" in err and message in err
        assert len(calls) == cfg.fit.epochs + 1
        assert not out.exists()


# Schema-valid configs whose numerics overflow: synthesis noise that
# overflows its offsets, a p_iou noise that np.clip saturates, and a step
# that overflows the weights. Each ends in one diagnosed line or in a clean
# exit, under the suite's RuntimeWarning policy
OVERFLOW_RUNS = [
    (config, command, code, line)
    for config, commands, code, line in [
        ({"noise": {"offset_sigma": 1e308}}, ("gen", "fit", "report"), 3,
         "numerical failure: image 0: a noisy offset overflows its decoded box (math range error)"),
        ({"noise": {"distractor_offset_sigma": 1e308, "distractor_rate": 1}}, ("gen", "fit", "report"), 3,
         "numerical failure: image 0: a noisy offset overflows its decoded box (math range error)"),
        ({"noise": {"p_iou_sigma": 1e308}}, ("gen", "fit", "report"), 0, None),
        ({"fit": {"step": 1e308}}, ("fit", "report --ablation"), 3,
         "numerical failure: loss diverged at epoch 1: math range error"),
    ]
    for command in commands
]


@pytest.mark.parametrize("config, command, code, line", OVERFLOW_RUNS,
                         ids=[f"{next(iter(c))}.{next(iter(next(iter(c.values()))))}-{cmd.replace(' --', '-')}"
                              for c, cmd, _, _ in OVERFLOW_RUNS])
def test_overflowing_config_keeps_the_one_line_contract(tmp_path, capsys, config, command, code, line):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(path), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ([line] if code else [])
    assert out.exists() == (code == 0)


# A directory where an input file is read, or a file where an output
# directory is made: each is a bad path, not a crash
@pytest.mark.parametrize("argv", [
    "nms --detections DIR --out OUT",
    "eval --detections DIR --ground-truths GTS --out OUT",
    "eval --detections DETS --ground-truths DIR --out OUT",
    "rf --chain DIR --out OUT",
    "gen --config CFG --out FILE",
    "nms --detections DETS --out FILE",
])
def test_unusable_path_exits_2_with_one_line(tmp_path, capsys, argv):
    paths = {"DIR": tmp_path / "dir", "OUT": tmp_path / "out", "FILE": tmp_path / "file",
             "CFG": tmp_path / "config.json", "DETS": tmp_path / "detections.csv",
             "GTS": tmp_path / "ground_truths.json"}
    paths["DIR"].mkdir()
    paths["FILE"].write_text("")
    paths["DETS"].write_text("image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\nimg0,1,0,0,4,4,0.9,0.8\n")
    paths["GTS"].write_text(json.dumps({"images": [{"image_id": "img0", "objects": []}]}))
    paths["CFG"].write_text("{}")
    assert main([str(paths.get(word, word)) for word in argv.split()]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("file error: ")


class TestClassIdBeyond64Bits:
    # class ids are any integers in both input files; relabelling the
    # classes changes neither which rows NMS keeps nor the AP report
    BIG, NEGATIVE = 2**64, -(2**70)

    @staticmethod
    def write_inputs(tmp_path, name, a, b):
        header = "image_id,class_id,x1,y1,x2,y2,p_cls,p_iou\n"
        dets = tmp_path / f"{name}.csv"
        dets.write_text(header + f"img0,{a},0,0,4,4,0.9,0.8\nimg0,{a},0,0,4,4,0.8,0.8\nimg0,{b},0,0,4,4,0.7,0.8\n")
        gts = tmp_path / f"{name}.json"
        objects = [{"box": [0, 0, 4, 4], "class_id": a}, {"box": [10, 10, 16, 16], "class_id": b}]
        gts.write_text(json.dumps({"images": [{"image_id": "img0", "objects": objects}]}))
        return dets, gts

    def test_nms_keeps_the_same_rows(self, tmp_path):
        kept = {}
        for name, a, b in (("small", 1, 2), ("big", self.BIG, self.NEGATIVE)):
            dets, _ = self.write_inputs(tmp_path, name, a, b)
            assert main(["nms", "--detections", str(dets), "--out", str(tmp_path / name)]) == 0
            kept[name] = (tmp_path / name / "kept.csv").read_text()
        relabelled = kept["small"].replace("img0,1,", f"img0,{self.BIG},").replace("img0,2,", f"img0,{self.NEGATIVE},")
        assert kept["big"] == relabelled and len(kept["big"].splitlines()) == 3

    def test_eval_report_unchanged(self, tmp_path):
        reports = {}
        for name, a, b in (("small", 1, 2), ("big", self.BIG, self.NEGATIVE)):
            dets, gts = self.write_inputs(tmp_path, name, a, b)
            out = tmp_path / f"{name}_report.json"
            argv = ["eval", "--detections", str(dets), "--ground-truths", str(gts), "--out", str(out)]
            assert main(argv) == 0
            reports[name] = json.loads(out.read_text())
        assert reports["big"] == reports["small"] and reports["big"]["ap50"] == 0.5
