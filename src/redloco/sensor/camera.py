"""The depth camera's fixed optics and mount, and the text export of one
depth frame."""

from __future__ import annotations

import numpy as np

# fields of view (rad); the mount sits ahead of and above the body origin (m),
# pitched down from the body axis (rad)
FOV_V = 1.0
FOV_H = 1.5
MOUNT_FORWARD = 0.10
MOUNT_UP = 0.05
MOUNT_PITCH = 0.8
MAX_RANGE = 2.0              # m
MIN_DEPTH = 0.01             # m
# the randomize stage's proportional and additive range noise
PROP_NOISE_STD = 0.01
ADD_NOISE_STD = 0.1


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
