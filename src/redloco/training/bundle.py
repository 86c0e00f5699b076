"""Construction and persistence of the full network set."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import config as config_mod
from ..config import TrainConfig
from ..errors import CheckpointError, ConfigError
from ..estimators import NET, HimTargetEncoder, OpEstimator, VpEstimator
from ..nn import LayerStack, TensorParam, load_checkpoint, save_checkpoint
from ..selector.autoencoder import AE_NET, build_autoencoder
from ..world import OBS_DIM, PROFILE_SAMPLES
from .policy import Critic, GaussianPolicy


# the policy reads both estimator latents and the observation; the critic
# adds the privileged velocity and terrain profile
POLICY_OBS_DIM = 2 * NET.latent + OBS_DIM
CRITIC_OBS_DIM = POLICY_OBS_DIM + 2 + PROFILE_SAMPLES


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
    op = OpEstimator(NET, OBS_DIM, rng)
    vp = VpEstimator(NET, OBS_DIM, (cfg.camera.height, cfg.camera.width),
                     PROFILE_SAMPLES, rng)
    him = HimTargetEncoder(NET, OBS_DIM, rng)
    ae = build_autoencoder(AE_NET, cfg.camera.height, cfg.camera.width, rng)
    policy = GaussianPolicy(POLICY_OBS_DIM, rng)
    critic = Critic(CRITIC_OBS_DIM, rng)
    return Networks(op, vp, him, ae, policy, critic)


def _named_params(nets: Networks) -> dict[str, TensorParam]:
    """Every parameter of the network set by checkpoint name, in save order:
    ``entry/param`` for a stack's parameters (``vp.head_mt/L0.W``), the entry
    name alone for a standalone parameter (``log_std``)."""
    out: dict[str, TensorParam] = {}
    for entry, obj in nets.named_stacks().items():
        if isinstance(obj, TensorParam):
            out[entry] = obj
        else:
            out.update((f"{entry}/{p.name}", p) for p in obj.params())
    return out


def save_bundle(path: str | Path, cfg: TrainConfig, nets: Networks,
                extra_meta: dict | None = None) -> None:
    meta = {"config": config_mod.to_text(cfg)}
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, {name: p.values for name, p in _named_params(nets).items()}, meta)


def load_bundle(path: str | Path) -> tuple[TrainConfig, Networks, dict]:
    """Rebuild the network set from a checkpoint's embedded config, then fill
    every parameter from the array of its name. A missing, unexpected,
    mis-shaped or non-finite array is refused by name."""
    arrays, meta = load_checkpoint(path)
    if "config" not in meta:
        raise CheckpointError(f"{path}: missing embedded config")
    try:
        cfg = config_mod.parse_text(meta["config"])
        nets = build_networks(cfg, np.random.default_rng(0))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: embedded config: {exc}") from exc
    params = _named_params(nets)
    missing = sorted(params.keys() - arrays.keys())
    extra = sorted(arrays.keys() - params.keys())
    if missing or extra:
        raise CheckpointError(f"{path}: arrays do not match the network set "
                              f"(missing {missing}, unexpected {extra})")
    for name, p in params.items():
        if arrays[name].shape != p.shape:
            raise CheckpointError(f"{path}: {name} is stored as {arrays[name].shape}, "
                                  f"the network needs {p.shape}")
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: {name} holds non-finite values")
        p.values[...] = arrays[name]
    return cfg, nets, meta
