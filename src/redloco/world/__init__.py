from .terrain import (DIFFICULT_KINDS, N_LEVELS, SIMPLE_KINDS, TERRAIN_KINDS,
                      Heightfield, difficulty_value, generate_terrain)
from .commands import Command, make_command, sample_command, update_curriculum
from .batch import OBS_DIM, BatchEvents, BatchWorld, PrivilegedInfo, StepEvents
from .robot import PlanarWorld, RobotState
from .rewards import BatchReward, compute_reward, linear_velocity_reward

__all__ = [
    "DIFFICULT_KINDS", "N_LEVELS", "SIMPLE_KINDS", "TERRAIN_KINDS", "Heightfield",
    "difficulty_value", "generate_terrain", "Command", "make_command",
    "sample_command", "update_curriculum", "OBS_DIM", "BatchEvents", "BatchWorld",
    "PrivilegedInfo", "StepEvents", "PlanarWorld", "RobotState", "BatchReward",
    "compute_reward", "linear_velocity_reward",
]
