"""detkit: detection-pipeline numerics and a synthetic experiment harness.

Core pieces: box geometry on corner rows, with the IOU gradient and the
offset encoding as array kernels (`geometry`), default-box generation and
matching (`anchors`), IOU-aware losses with analytic gradients (`losses`),
receptive-field arithmetic (`rfcalc`), a toy NCHW engine with the
feature-enhancement forward blocks (`graph`), IOU-guided NMS (`nms`),
COCO-protocol AP (`evaluation`), and the experiment harness plus CLI
(`harness`, `cli`). The package exports the detection table and greedy
NMS; the other modules are imported by name.
"""

from .nms import Detections, greedy_nms

__all__ = ["Detections", "greedy_nms"]

__version__ = "0.1.0"
