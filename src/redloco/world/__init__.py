from .terrain import DIFFICULT_KINDS, N_LEVELS, TERRAIN_KINDS, Heightfield, generate_terrain
from .commands import Command, make_command, sample_command, update_curriculum
from .batch import (ACT_DIM, FOOT_OFFSETS, OBS_DIM, PROFILE_SAMPLES, BatchEvents,
                    BatchWorld, PrivilegedInfo)
from .rewards import BatchReward, compute_reward, linear_velocity_reward

__all__ = [
    "DIFFICULT_KINDS", "N_LEVELS", "TERRAIN_KINDS", "Heightfield", "generate_terrain",
    "Command", "make_command", "sample_command", "update_curriculum", "ACT_DIM",
    "FOOT_OFFSETS", "OBS_DIM", "PROFILE_SAMPLES", "BatchEvents", "BatchWorld", "PrivilegedInfo",
    "BatchReward", "compute_reward", "linear_velocity_reward",
]
