import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detkit.anchors import (
    FeatureLevelSpec,
    GRIDS_320,
    STRIDES_320,
    DEFAULT_SCALE_RATIOS,
    build_levels,
    generate_default_boxes,
    match_anchors,
    detector_320_levels,
)

import oracles
from oracles import Box, iou_value
from conftest import anchor_box


def small_levels():
    return build_levels((4, 2, 1), (8.0, 16.0, 32.0), (0.2, 0.4, 0.6, 0.8))


class TestLevelSpec:
    def test_paper_scale_list_feeds_six_levels(self):
        levels = detector_320_levels()
        assert len(levels) == 6
        assert [lv.scale_ratio for lv in levels] == list(DEFAULT_SCALE_RATIOS[:6])
        assert [lv.next_scale_ratio for lv in levels] == list(DEFAULT_SCALE_RATIOS[1:])

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FeatureLevelSpec(0, 1, 8, 0.1, 0.2)
        with pytest.raises(ValueError):
            FeatureLevelSpec(1, 1, 8, 1.3, 0.2)
        with pytest.raises(ValueError):
            FeatureLevelSpec(1, 1, 8, 0.1, 0.2, aspect_ratios=(1.0, -2.0))


class TestGeneration:
    def test_320_pyramid_anchor_count(self):
        # sum of grid^2 over (40,20,10,5,3,1) times 4 templates = 8540
        anchors = generate_default_boxes(320, detector_320_levels())
        assert len(anchors) == sum(g * g for g in GRIDS_320) * 4

    def test_square_box_side_and_center(self):
        levels = build_levels((40,), (8.0,), (0.06, 0.15))
        anchors = generate_default_boxes(320, levels, clip=False)
        # first cell, first template: aspect 1 at scale 0.06*320 = 19.2
        b = anchor_box(anchors, 0)
        assert (b.cx, b.cy) == (4.0, 4.0)
        assert b.w == pytest.approx(19.2, abs=1e-12)
        assert b.h == pytest.approx(19.2, abs=1e-12)

    def test_extra_square_uses_geometric_mean_scale(self):
        levels = build_levels((1,), (320.0,), (0.87, 1.05))
        anchors = generate_default_boxes(320, levels, clip=False)
        extra = anchor_box(anchors, 3)  # templates: ar 1, 2, 0.5, then the extra square
        want = (0.87 * 1.05) ** 0.5 * 320
        assert extra.w == pytest.approx(want, abs=1e-9)
        assert extra.w == pytest.approx(extra.h, abs=1e-12)

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            generate_default_boxes(320, [])

    def test_determinism(self):
        a = generate_default_boxes(320, detector_320_levels())
        b = generate_default_boxes(320, detector_320_levels())
        assert a.boxes.tobytes() == b.boxes.tobytes()
        assert a.level_index.tolist() == b.level_index.tolist()

    @pytest.mark.parametrize("clip", [True, False])
    def test_matches_per_cell_loop(self, clip):
        # the 320 pyramid tiled with numpy gives the per-cell loop's boxes,
        # bit for bit, and its provenance indices
        anchors = generate_default_boxes(320, detector_320_levels(), clip=clip)
        boxes, level_index, cell_index, template_index = oracles.default_boxes(320, detector_320_levels(), clip=clip)
        assert anchors.boxes.dtype == np.float64
        assert anchors.boxes.tobytes() == np.array([b.as_tuple() for b in boxes], dtype=np.float64).tobytes()
        assert anchors.level_index.tolist() == level_index
        assert anchors.cell_index.tolist() == cell_index
        assert anchors.template_index.tolist() == template_index
        cwh = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64)
        assert anchors.cwh.tobytes() == cwh.tobytes()
        assert all(anchor_box(anchors, i) == b for i, b in enumerate(boxes))

    def test_unclipped_coordinate_bounds(self):
        input_size = 320
        anchors = generate_default_boxes(input_size, detector_320_levels(), clip=False)
        levels = detector_320_levels()
        for (x1, y1, x2, y2), lv in zip(anchors.boxes.tolist(), anchors.level_index.tolist()):
            s = max(levels[lv].scale_ratio, levels[lv].next_scale_ratio)
            lo, hi = -s * input_size, (1 + s) * input_size
            assert lo <= x1 <= hi and lo <= x2 <= hi
            assert lo <= y1 <= hi and lo <= y2 <= hi

    def test_clipped_boxes_inside_image_and_nondegenerate(self):
        anchors = generate_default_boxes(320, detector_320_levels(), clip=True)
        for b in (anchor_box(anchors, i) for i in range(len(anchors))):
            assert 0.0 <= b.x1 <= b.x2 <= 320.0
            assert 0.0 <= b.y1 <= b.y2 <= 320.0
            assert b.area > 0.0

    def test_json_export_schema(self):
        anchors = generate_default_boxes(32, small_levels())
        rows = json.loads(anchors.to_json())
        assert len(rows) == len(anchors)
        x1, y1, x2, y2, level, cell, template = rows[0]
        assert [level, cell, template] == [0, 0, 0]
        assert rows[0][:4] == anchors.boxes[0].tolist()


class TestMatching:
    def test_identity_anchor_positive(self):
        anchors = generate_default_boxes(32, small_levels())
        gt = anchor_box(anchors, 5)
        res = match_anchors(anchors, [gt.as_tuple()])
        assert 5 in res.positive_indices.tolist() and res.gt_index[5] == 0
        assert res.best_iou[5] == 1.0

    def test_all_disjoint_all_negative(self):
        anchors = generate_default_boxes(32, small_levels())
        res = match_anchors(anchors, [(1000, 1000, 1010, 1010)])
        assert res.positive_indices.tolist() == []
        assert res.negative_indices.tolist() == list(range(len(anchors)))

    def test_empty_gts_all_negative(self):
        anchors = generate_default_boxes(32, small_levels())
        res = match_anchors(anchors, [])
        assert res.positive_indices.tolist() == []
        assert res.negative_indices.tolist() == list(range(len(anchors)))
        assert res.best_iou.tolist() == [0.0] * len(anchors)

    def test_threshold_is_strict_inequality(self):
        anchors = generate_default_boxes(32, small_levels())
        # nested box covering 45% of anchor 0: IOU exactly 0.45, in the band
        # admitted as positive here and only later gated by the loss
        a0 = anchor_box(anchors, 0)
        gt = Box(a0.x1, a0.y1, a0.x1 + 0.45 * a0.w, a0.y2)
        res = match_anchors(anchors, [gt.as_tuple()])
        assert res.best_iou[0] == pytest.approx(0.45, abs=1e-12)
        positives = res.positive_indices.tolist()
        assert 0 in positives
        for a in range(len(anchors)):
            if res.best_iou[a] > 0.4:
                assert a in positives

    def test_best_match_guarantee(self):
        anchors = generate_default_boxes(32, small_levels())
        # a sliver overlapping only slightly: below threshold everywhere
        gt = Box(0.0, 0.0, 2.0, 2.0)
        res = match_anchors(anchors, [gt.as_tuple()])
        ious = [iou_value(anchor_box(anchors, i), gt) for i in range(len(anchors))]
        best = max(range(len(ious)), key=lambda i: (ious[i], -i))
        assert max(ious) < 0.4
        assert best in res.positive_indices.tolist()
        assert res.gt_index[best] == 0

    def test_recorded_iou_matches_geometry(self):
        anchors = generate_default_boxes(32, small_levels())
        gts = [Box(3.0, 4.0, 14.0, 13.0), Box(10.0, 10.0, 30.0, 28.0)]
        res = match_anchors(anchors, [g.as_tuple() for g in gts])
        for a in range(len(anchors)):
            want = max(iou_value(anchor_box(anchors, a), g) for g in gts)
            assert res.best_iou[a] == pytest.approx(want, abs=1e-14)

    def test_determinism(self):
        anchors = generate_default_boxes(32, small_levels())
        gts = [(3.0, 4.0, 14.0, 13.0)]
        r1 = match_anchors(anchors, gts)
        r2 = match_anchors(anchors, gts)
        assert r1.gt_index.tolist() == r2.gt_index.tolist()
        assert r1.positive_indices.tolist() == r2.positive_indices.tolist()

    def test_matches_per_anchor_loop(self):
        # random ground truths, some of them copies of anchors and of each
        # other, so several claim the same best anchor
        rng = np.random.default_rng(8)
        anchors = generate_default_boxes(32, small_levels())
        boxes = [anchor_box(anchors, i) for i in range(len(anchors))]
        for _ in range(40):
            gts = []
            for _ in range(int(rng.integers(0, 6))):
                kind = rng.integers(0, 3)
                if kind == 0:
                    gts.append(boxes[int(rng.integers(0, len(boxes)))])
                elif kind == 1 and gts:
                    gts.append(gts[-1])
                else:
                    x1, y1 = rng.uniform(-4.0, 30.0, 2)
                    gts.append(Box(x1, y1, x1 + rng.uniform(0.5, 20.0), y1 + rng.uniform(0.5, 20.0)))
            res = match_anchors(anchors, [g.as_tuple() for g in gts])
            gt_index, best_iou = oracles.match_anchors(boxes, gts)
            assert res.gt_index.tolist() == gt_index
            assert res.best_iou.tobytes() == np.array(best_iou, dtype=np.float64).tobytes()
            assert res.positive_indices.tolist() == [a for a, g in enumerate(gt_index) if g >= 0]
            assert res.negative_indices.tolist() == [a for a, g in enumerate(gt_index) if g < 0]
