from .terrain import DIFFICULT_KINDS, N_LEVELS, TERRAIN_KINDS, generate_terrain
from .commands import sample_command, update_curriculum
from .batch import (ACT_DIM, FOOT_OFFSETS, OBS_DIM, PROFILE_SAMPLES, BatchEvents,
                    BatchWorld, PrivilegedInfo)
from .rewards import BatchReward, compute_reward, linear_velocity_reward

__all__ = [
    "DIFFICULT_KINDS", "N_LEVELS", "TERRAIN_KINDS", "generate_terrain", "sample_command",
    "update_curriculum", "ACT_DIM", "FOOT_OFFSETS", "OBS_DIM", "PROFILE_SAMPLES", "BatchEvents",
    "BatchWorld", "PrivilegedInfo", "BatchReward", "compute_reward", "linear_velocity_reward",
]
