from .terrain import (DIFFICULT_KINDS, N_LEVELS, SIMPLE_KINDS, TERRAIN_KINDS,
                      Heightfield, generate_terrain)
from .commands import Command, make_command, sample_command, update_curriculum
from .batch import (FOOT_OFFSETS, OBS_DIM, PROFILE_SAMPLES, BatchEvents, BatchWorld,
                    PrivilegedInfo, StepEvents)
from .robot import PlanarWorld, RobotState
from .rewards import BatchReward, compute_reward, linear_velocity_reward

__all__ = [
    "DIFFICULT_KINDS", "N_LEVELS", "SIMPLE_KINDS", "TERRAIN_KINDS", "Heightfield",
    "generate_terrain", "Command", "make_command", "sample_command",
    "update_curriculum", "FOOT_OFFSETS", "OBS_DIM", "PROFILE_SAMPLES", "BatchEvents",
    "BatchWorld", "PrivilegedInfo", "StepEvents", "PlanarWorld", "RobotState",
    "BatchReward", "compute_reward", "linear_velocity_reward",
]
