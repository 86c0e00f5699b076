"""Construction and persistence of the full network set."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import config as config_mod
from ..config import TrainConfig
from ..errors import CheckpointError, ConfigError
from ..estimators import HimTargetEncoder, OpEstimator, VpEstimator
from ..nn import LayerStack, TensorParam, load_checkpoint, save_checkpoint
from ..selector.autoencoder import build_autoencoder
from ..world import OBS_DIM
from .policy import Critic, GaussianPolicy


def policy_obs_dim(cfg: TrainConfig) -> int:
    return 2 * cfg.net.latent + OBS_DIM


def critic_obs_dim(cfg: TrainConfig) -> int:
    return policy_obs_dim(cfg) + 2 + cfg.world.profile_samples


@dataclass
class Networks:
    op: OpEstimator
    vp: VpEstimator
    him: HimTargetEncoder
    ae: LayerStack
    policy: GaussianPolicy
    critic: Critic

    def named_stacks(self) -> dict[str, LayerStack | TensorParam]:
        out: dict[str, LayerStack | TensorParam] = {}
        for name, s in self.op.stacks.items():
            out[f"op.{name}"] = s
        for name, s in self.vp.stacks.items():
            out[f"vp.{name}"] = s
        out["him.him"] = self.him.stacks["him"]
        out["ae"] = self.ae
        out["actor"] = self.policy.actor
        out["log_std"] = self.policy.log_std
        out["critic"] = self.critic.net
        return out


def build_networks(cfg: TrainConfig, rng: np.random.Generator) -> Networks:
    # the tick and the autoencoder both consume the newest frame pair
    if cfg.net.depth_frames != 2:
        raise ConfigError(f"net.depth_frames: only 2 is supported (the networks read the "
                          f"newest frame pair), got {cfg.net.depth_frames}")
    op = OpEstimator(cfg.net, OBS_DIM, rng)
    vp = VpEstimator(cfg.net, OBS_DIM, (cfg.camera.height, cfg.camera.width),
                     cfg.world.profile_samples, rng)
    him = HimTargetEncoder(cfg.net, OBS_DIM, rng)
    ae = build_autoencoder(cfg.selector, cfg.camera.height, cfg.camera.width, rng)
    policy = GaussianPolicy(cfg.net, policy_obs_dim(cfg), 2, rng)
    critic = Critic(cfg.net, critic_obs_dim(cfg), rng)
    return Networks(op, vp, him, ae, policy, critic)


def save_bundle(path: str | Path, cfg: TrainConfig, nets: Networks,
                extra_meta: dict | None = None) -> None:
    meta = {"config": config_mod.to_text(cfg)}
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, nets.named_stacks(), meta)


def load_bundle(path: str | Path) -> tuple[TrainConfig, Networks, dict]:
    """Rebuild the network set from a checkpoint and its embedded config."""
    entries, meta = load_checkpoint(path)
    if "config" not in meta:
        raise CheckpointError(f"{path}: missing embedded config")
    try:
        cfg = config_mod.parse_text(meta["config"])
        nets = build_networks(cfg, np.random.default_rng(0))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: embedded config: {exc}") from exc
    targets = nets.named_stacks()
    missing = sorted(targets.keys() - entries.keys())
    extra = sorted(entries.keys() - targets.keys())
    if missing or extra:
        raise CheckpointError(f"{path}: entries do not match the network set "
                              f"(missing {missing}, unexpected {extra})")
    for name, loaded in entries.items():
        want, got = _param_list(targets[name]), _param_list(loaded)
        if len(want) != len(got):
            raise CheckpointError(f"{path}: {name} holds {len(got)} params, "
                                  f"the network needs {len(want)}")
        for p_t, p_l in zip(want, got):
            if p_t.shape != p_l.shape:
                raise CheckpointError(
                    f"{path}: shape mismatch for {name}.{p_t.name}")
            p_t.values[...] = p_l.values
    return cfg, nets, meta


def _param_list(obj: LayerStack | TensorParam) -> list[TensorParam]:
    return [obj] if isinstance(obj, TensorParam) else list(obj.params())
