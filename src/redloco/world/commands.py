"""Velocity commands and the two-level command curriculum."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from .terrain import N_LEVELS

YAW_CMD_RANGE = 0.4          # rad; headings are drawn from [-0.4, 0.4]
ZERO_CMD_SNAP = 0.02         # m/s; phase-2 speeds below this become a standstill
# the curriculum promotes at 80% of the commanded distance, demotes below 40%
PROMOTE_RATIO = 0.8
DEMOTE_RATIO = 0.4


def sample_command(rng: np.random.Generator, curriculum_phase: int) -> tuple[float, float]:
    """One command ``(c_x, c_yaw)``: the target forward speed in m/s and the
    heading, fixed per episode. Phase 1 draws speeds from [0.2, 1.0];
    phase 2 widens to [0, 1.0].

    Phase-2 draws below ``ZERO_CMD_SNAP`` collapse to an exact standstill
    command so zero-velocity episodes occur with positive probability.
    """
    if curriculum_phase not in (1, 2):
        raise ContractError(f"curriculum_phase must be 1 or 2, got {curriculum_phase}")
    if curriculum_phase == 1:
        c_x = float(rng.uniform(0.2, 1.0))
    else:
        c_x = float(rng.uniform(0.0, 1.0))
        if c_x < ZERO_CMD_SNAP:
            c_x = 0.0
    c_yaw = float(rng.uniform(-YAW_CMD_RANGE, YAW_CMD_RANGE))
    return c_x, c_yaw


def update_curriculum(level, distance, commanded):
    """Promote when the episode covered >= ``PROMOTE_RATIO`` of the commanded
    distance, demote below ``DEMOTE_RATIO``; zero-command episodes keep the level.
    Elementwise over arrays of episodes."""
    level = np.asarray(level)
    commanded = np.asarray(commanded, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = distance / commanded
    moved = np.where(ratio >= PROMOTE_RATIO, level + 1,
                     np.where(ratio < DEMOTE_RATIO, level - 1, level))
    return np.where(commanded <= 0.0, level, np.clip(moved, 0, N_LEVELS - 1))[()]
