"""Camera checks and the text export of one depth frame."""

from __future__ import annotations

import numpy as np

from ..config import CameraConfig
from ..errors import ContractError


def validate_camera(cam: CameraConfig) -> None:
    if cam.height < 4 or cam.width < 4:
        raise ContractError(f"camera resolution must be at least 4x4, got {cam.height}x{cam.width}")
    if not cam.max_range > 0:       # NaN fails too
        raise ContractError(f"max_range must be positive, got {cam.max_range}")


def dump_text(data: np.ndarray, pose: np.ndarray, randomized: bool) -> str:
    """Portable float-grid export of one (H, W) frame in meters and its pose
    row (cam x, cam z, depression, yaw offset) from `render_batch`."""
    h, w = data.shape
    lines = [
        "schema: depth-frame/v1",
        f"rows: {h}",
        f"cols: {w}",
        f"stage: {'randomized' if randomized else 'raw'}",
        "pose: " + " ".join(repr(float(v)) for v in pose),
    ]
    lines += [" ".join(repr(float(v)) for v in row) for row in data]
    return "\n".join(lines) + "\n"
