"""Camera model and depth image containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CameraConfig
from ..errors import ContractError

# The camera model is the camera section of the config tree.
CameraModel = CameraConfig

STAGE_RAW = "raw"
STAGE_RANDOMIZED = "randomized"


@dataclass
class DepthImage:
    data: np.ndarray                       # (H, W) meters, in (0, max_range]
    pose_used: tuple[float, float, float, float]   # cam x, cam z, depression, yaw offset
    stage: str                             # STAGE_RAW or STAGE_RANDOMIZED


def validate_camera(cam: CameraModel) -> None:
    if cam.height < 4 or cam.width < 4:
        raise ContractError(f"camera resolution must be at least 4x4, got {cam.height}x{cam.width}")
    if cam.max_range <= 0:
        raise ContractError("max_range must be positive")


def dump_text(img: DepthImage) -> str:
    """Portable float-grid export of one frame."""
    h, w = img.data.shape
    lines = [
        "schema: depth-frame/v1",
        f"rows: {h}",
        f"cols: {w}",
        f"stage: {img.stage}",
        "pose: " + " ".join(repr(float(v)) for v in img.pose_used),
    ]
    lines += [" ".join(repr(float(v)) for v in row) for row in img.data]
    return "\n".join(lines) + "\n"

