"""detkit: detection-pipeline numerics and a synthetic experiment harness.

Core pieces: differentiable box geometry (`geometry`), default-box
generation and matching (`anchors`), IOU-aware losses with analytic
gradients (`losses`), receptive-field arithmetic (`rfcalc`), a toy NCHW
engine with the feature-enhancement forward blocks (`graph`), IOU-guided
NMS (`nms`), COCO-protocol AP (`evaluation`), and the experiment harness
plus CLI (`harness`, `cli`).
"""

from .geometry import Box, IouValue, OffsetEncoding, decode, encode, iou, iou_value
from .nms import Detections, greedy_nms

__all__ = [
    "Box",
    "IouValue",
    "OffsetEncoding",
    "iou",
    "iou_value",
    "encode",
    "decode",
    "Detections",
    "greedy_nms",
]

__version__ = "0.1.0"
