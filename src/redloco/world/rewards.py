"""Per-step reward: command tracking plus shaping penalties.

The tracking term follows the capped-projection rule with a standstill
branch; shaping scales follow the pinned table in ``TERM_SCALES``.
Contributions are multiplied by dt (the pinned convention), so the collision
penalty lands as scale * dt per event. The legged hip-bias term has no
planar analog and is left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import DT, STAND_HEIGHT, BatchWorld

# term name -> scale, in summation order
TERM_SCALES = {
    "lin_vel_tracking": 1.5, "ang_vel_tracking": 0.5, "collision": -10.0,
    "joint_energy": -1e-5, "action_rate": -0.1, "default_pos": -0.04,
    "joint_acc": -2.5e-7, "orientation": -1.0,
}
ANG_VEL_SIGMA = 0.5
# deterministic gait-implied angular rate, GAIT_RATE_GAIN * (speed along the
# heading), tracked against the rate the command implies; the capped tracking
# term is flat above c_x, so this term alone prices overspeed
GAIT_RATE_GAIN = 3.0
# height deviation is measured in units of this length (squared, capped) so
# the planar posture analog matches joint-space penalty magnitudes
DEFAULT_POS_UNIT = 0.1
DEFAULT_POS_CAP = 25.0


@dataclass
class BatchReward:
    total: np.ndarray                     # (E,)
    values: dict[str, np.ndarray]         # raw, unweighted term per env
    contributions: dict[str, np.ndarray]


def linear_velocity_reward(c_x, v_along, v_norm):
    """Capped projection tracking with a standstill branch at c_x = 0;
    elementwise over arrays."""
    c_x = np.asarray(c_x, dtype=np.float64)
    return np.where(c_x != 0.0, np.minimum(v_along, c_x) / (c_x + 1e-5),
                    1.0 / (1.0 + np.asarray(v_norm)))[()]


def compute_reward(world: BatchWorld, collision: np.ndarray) -> BatchReward:
    """The reward of every env's last step, all read from ``world``: its state
    and command after the step, and its ax and action before it. Squares of
    scalar-model quantities use ``float_power``, C ``pow``; ``** 2`` on an
    array multiplies instead, which rounds differently for about one value in
    a thousand."""
    vx, c_x, c_yaw = world.vx, world.c_x, world.c_yaw
    v_along = vx * np.cos(c_yaw)
    # angular-rate tracking: the gait-implied rate grows with the speed along
    # the heading and is tracked against the rate the command implies. The
    # capped tracking term pays nothing above c_x, so this is the term that
    # makes running faster than commanded cost as running slower does
    rate_err = GAIT_RATE_GAIN * (v_along - c_x)
    support = world.support(world.x)
    dev = (world.z - (support + STAND_HEIGHT)) / DEFAULT_POS_UNIT
    values = {
        "lin_vel_tracking": linear_velocity_reward(c_x, v_along, np.abs(vx)),
        "ang_vel_tracking": np.exp(-np.float_power(rate_err, 2) / ANG_VEL_SIGMA),
        "collision": np.where(collision, 1.0, 0.0),
        "joint_energy": np.abs(world.ax * vx),
        "action_rate": ((world.last_action - world.prev_action) ** 2).sum(axis=1),
        "default_pos": np.where(support > -np.inf,
                                np.minimum(dev * dev, DEFAULT_POS_CAP), 0.0),
        "joint_acc": np.float_power((world.ax - world.prev_ax) / DT, 2),
        "orientation": np.float_power(world.pitch, 2),
    }
    contributions = {name: scale * values[name] * DT
                     for name, scale in TERM_SCALES.items()}
    return BatchReward(sum(contributions.values()), values, contributions)

