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


def parse_text(text: str) -> DepthImage:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = {}
    body_start = 0
    for i, ln in enumerate(lines):
        key, sep, val = ln.partition(":")
        if not sep or key.strip() not in ("schema", "rows", "cols", "stage", "pose"):
            body_start = i
            break
        header[key.strip()] = val.strip()
        body_start = i + 1
    if header.get("schema") != "depth-frame/v1":
        raise ContractError(f"unknown depth frame schema {header.get('schema')!r}")
    rows = int(header["rows"])
    data = np.array([[float(t) for t in ln.split()] for ln in lines[body_start:body_start + rows]])
    pose = tuple(float(t) for t in header["pose"].split())
    return DepthImage(data, pose, header["stage"])  # type: ignore[arg-type]
