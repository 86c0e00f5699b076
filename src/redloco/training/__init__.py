from .bundle import (CRITIC_OBS_DIM, POLICY_OBS_DIM, Networks, build_networks, load_bundle,
                     save_bundle)
from .policy import Critic, GaussianPolicy
from .ppo import PPOStats, normalize_advantages, ppo_update, surrogate_and_grad
from .rollout import RolloutBuffer
from .runner import RunnerState, StepData, TickData, VecRunner
from .schedule import AdaptationSchedule, PhaseTracker, terrain_class
from .supervised import AutoencoderStats, SupervisedStats, autoencoder_update, supervised_update
from .trainer import TrainResult, Trainer, train

__all__ = [
    "CRITIC_OBS_DIM", "POLICY_OBS_DIM", "Networks", "build_networks", "load_bundle",
    "save_bundle", "Critic", "GaussianPolicy", "PPOStats", "normalize_advantages",
    "ppo_update", "surrogate_and_grad", "RolloutBuffer", "RunnerState", "StepData",
    "TickData", "VecRunner", "AdaptationSchedule", "PhaseTracker", "terrain_class",
    "AutoencoderStats", "SupervisedStats", "autoencoder_update", "supervised_update",
    "TrainResult", "Trainer", "train",
]
