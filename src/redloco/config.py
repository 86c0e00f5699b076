"""Dataclass configuration tree with a flat ``key = value`` text format.

Nested fields are addressed with dotted keys (``world.dt = 0.02``).
Tuples are comma separated. A training run reads every key; a value with
one legal setting is a constant where it is used, not a key.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import ConfigError


@dataclass
class WorldConfig:
    dt: float = 0.02
    cell_size: float = 0.05
    terrain_cells: int = 480
    spawn_x: float = 2.0
    stand_height: float = 0.30
    foot_offsets: tuple[float, float] = (0.15, -0.15)
    max_step: float = 0.12
    gravity: float = 9.81
    accel_max: float = 8.0
    drag: float = 4.0
    v_hop: float = 3.5
    hop_threshold: float = 0.5
    impact_loss: float = 0.05
    osc_base_rate: float = 1.0
    osc_rate_per_speed: float = 12.0
    pitch_gain: float = 0.08
    pitch_relax: float = 10.0
    # gait-induced posture wobble grows with speed (random, so a single
    # observation cannot be inverted for the speed)
    pitch_wobble_per_speed: float = 0.03
    max_pitch: float = 1.2
    episode_steps: int = 400
    motor_gain_range: tuple[float, float] = (0.85, 1.15)
    init_speed_range: tuple[float, float] = (0.0, 0.5)
    yaw_cmd_range: float = 0.4
    zero_cmd_snap: float = 0.02
    max_clearance: float = 2.0
    profile_span: tuple[float, float] = (-0.5, 1.1)
    profile_samples: int = 17
    foot_patch: float = 0.05
    patch_samples: int = 5
    fall_margin: float = 1.0
    # linear difficulty schedules over curriculum levels 0..9
    gap_width_range: tuple[float, float] = (0.1, 0.8)
    platform_height_range: tuple[float, float] = (0.1, 0.5)
    step_height_range: tuple[float, float] = (0.05, 0.2)
    rough_amp_range: tuple[float, float] = (0.01, 0.1)


@dataclass
class CameraConfig:
    height: int = 48
    width: int = 64
    fov_v: float = 1.0
    fov_h: float = 1.5
    mount_forward: float = 0.10
    mount_up: float = 0.05
    mount_pitch: float = 0.8
    max_range: float = 2.0
    min_depth: float = 0.01
    pos_jitter: float = 0.01
    ang_jitter: float = 0.0872664626
    prop_noise_std: float = 0.01
    add_noise_std: float = 0.1
    edge_border: int = 4


@dataclass
class NetConfig:
    history_len: int = 10        # proprioception buffer length
    embed_hidden: int = 64
    embed_out: int = 32
    cnn_channels: tuple[int, int, int] = (8, 16, 32)
    cnn_kernel: int = 3
    cnn_stride: int = 2
    cnn_pad: int = 1
    encoder_hidden: int = 64
    encoder_out: int = 32
    gru_hidden: int = 64
    latent: int = 32
    z_dim: int = 16
    him_hidden: int = 32
    actor_hidden: tuple[int, int] = (128, 64)
    critic_hidden: tuple[int, int] = (128, 64)
    init_log_std: float = -0.7


@dataclass
class SelectorConfig:
    # the deployed beta and gamma are not training settings: beta comes from
    # calibration (--beta/--beta-file), gamma from ExperimentSpec.gamma
    tick_period: int = 5
    ae_channels: tuple[int, int, int] = (8, 16, 32)
    ae_bottleneck: int = 128
    ae_kernel: int = 3
    ae_stride: int = 2
    ae_pad: int = 1


@dataclass
class PPOConfig:
    lr: float = 3e-4
    est_lr: float = 1e-3
    ae_lr: float = 2e-3
    discount: float = 0.99
    gae_lambda: float = 0.95
    clip: float = 0.2
    epochs: int = 4
    minibatches: int = 4
    entropy_coef: float = 0.005
    value_coef: float = 0.5
    max_grad_norm: float = 1.0
    ae_batch: int = 256
    ae_epochs: int = 4


@dataclass
class RewardConfig:
    lin_vel: float = 1.5
    ang_vel: float = 0.5
    collision: float = -10.0
    joint_energy: float = -1e-5
    action_rate: float = -0.1
    default_pos: float = -0.04
    joint_acc: float = -2.5e-7
    orientation: float = -1.0
    ang_vel_sigma: float = 0.5
    # deterministic gait-implied angular rate, gait_rate_gain * (speed along
    # the heading), tracked against the rate the command implies; the capped
    # tracking term is flat above c_x, so this term alone prices overspeed
    gait_rate_gain: float = 3.0
    # height deviation is measured in units of this length (squared, capped)
    # so the planar posture analog matches joint-space penalty magnitudes
    default_pos_unit: float = 0.1
    default_pos_cap: float = 25.0


@dataclass
class TrainConfig:
    """Defaults are the joint run: 24 envs x 48 steps for 600 iterations
    over the 8-terrain mix."""
    seed: int = 0
    n_envs: int = 24
    horizon: int = 48
    iterations: int = 600
    terrain_mix: tuple[str, ...] = ("flat", "stairs_up", "gap", "flat", "stairs_down",
                                    "platform", "flat", "rough")
    flip_period: int = 20
    promote_ratio: float = 0.8
    demote_ratio: float = 0.4
    phase_threshold: float = 0.7
    phase_budget_frac: float = 0.6
    checkpoint_every: int = 0    # 0 = final only
    out_dir: str = "runs/default"
    world: WorldConfig = field(default_factory=WorldConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    net: NetConfig = field(default_factory=NetConfig)
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)


def desk_config(**overrides: Any) -> TrainConfig:
    """Desk-scale defaults: 12x16 depth, small border, fast training."""
    cfg = TrainConfig(**overrides)
    cfg.camera.height = 12
    cfg.camera.width = 16
    cfg.camera.edge_border = 1
    return cfg


def paper_shape_config(**overrides: Any) -> TrainConfig:
    """Full-resolution preset: 48x64 depth, 10-step history."""
    return TrainConfig(**overrides)


def tiny_config(**overrides: Any) -> TrainConfig:
    """Minimal preset for smoke tests: 4 envs on flat ground."""
    cfg = desk_config(**overrides)
    cfg.n_envs = 4
    cfg.horizon = 16
    cfg.iterations = 2
    cfg.terrain_mix = ("flat",)
    cfg.world.episode_steps = 80
    return cfg


PRESETS = {"desk": desk_config, "paper-shape": paper_shape_config, "tiny": tiny_config}


@dataclass(frozen=True)
class Bound:
    """The legal range of one numeric key: ``low`` to ``high``, inclusive
    unless ``open_low``."""
    low: float
    high: float = math.inf
    open_low: bool = False

    def admits(self, value: float) -> bool:
        above = value > self.low if self.open_low else value >= self.low
        return above and value <= self.high      # NaN fails both

    def __str__(self) -> str:
        close = ")" if self.high == math.inf else "]"
        return f"{'(' if self.open_low else '['}{self.low:g}, {self.high:g}{close}"


# One range per key. A key missing here is not range-checked yet. The upper
# ends are 5x the default step and 10x the default cell. Learning rates stop
# at 1: an Adam step moves each weight by up to about the learning rate.
# Periods and lengths count steps, ticks or iterations, so they start at 1.
# The PPO ratio clip is a fraction of 1; discount and lambda are weights.
BOUNDS = {
    "n_envs": Bound(1),
    "horizon": Bound(1),
    "flip_period": Bound(1),
    "world.dt": Bound(0.0, 0.1, open_low=True),
    "world.cell_size": Bound(0.0, 0.5, open_low=True),
    "world.episode_steps": Bound(1),
    "net.history_len": Bound(1),
    "selector.tick_period": Bound(1),
    "ppo.clip": Bound(0.0, 1.0, open_low=True),
    "ppo.discount": Bound(0.0, 1.0),
    "ppo.gae_lambda": Bound(0.0, 1.0),
    "ppo.epochs": Bound(1),
    "ppo.minibatches": Bound(1),
    "ppo.ae_epochs": Bound(1),
    "ppo.ae_batch": Bound(1),
    "ppo.est_lr": Bound(0.0, 1.0, open_low=True),
    "ppo.ae_lr": Bound(0.0, 1.0, open_low=True),
}


def validate(cfg: TrainConfig) -> TrainConfig:
    """Refuse a value outside its key's bound, naming the key, the value and
    the range."""
    for key, bound in BOUNDS.items():
        value = cfg
        for part in key.split("."):
            value = getattr(value, part)
        if not bound.admits(value):
            raise ConfigError(f"{key} = {value!r} is outside its range {bound}")
    return cfg


def _coerce(raw: str, typ: Any, key: str) -> Any:
    raw = raw.strip()
    origin = getattr(typ, "__origin__", None)
    if origin is tuple:
        args = typ.__args__
        parts = [p for p in (s.strip() for s in raw.split(",")) if p]
        if len(args) == 2 and args[1] is Ellipsis:
            if not parts:
                raise ConfigError(f"{key}: expected at least one comma-separated value")
            return tuple(_coerce(p, args[0], key) for p in parts)
        if len(parts) != len(args):
            raise ConfigError(f"{key}: expected {len(args)} comma-separated values, got {len(parts)}")
        return tuple(_coerce(p, a, key) for p, a in zip(parts, args))
    if typ in (int, float):
        try:
            return typ(raw)
        except ValueError:
            raise ConfigError(f"{key}: invalid {typ.__name__} {raw!r}") from None
    if typ is str:
        if not raw:
            raise ConfigError(f"{key}: expected a value, got an empty one")
        return raw
    raise ConfigError(f"{key}: unsupported field type {typ}")


def set_key(cfg: TrainConfig, key: str, raw: str) -> None:
    """Assign one dotted key from its text representation."""
    obj = cfg
    parts = key.split(".")
    for p in parts[:-1]:
        if not hasattr(obj, p):
            raise ConfigError(f"unknown config section {p!r} in key {key!r}")
        obj = getattr(obj, p)
    name = parts[-1]
    hints = typing.get_type_hints(type(obj))
    if name not in hints or not dataclasses.is_dataclass(obj):
        raise ConfigError(f"unknown config key {key!r}")
    setattr(obj, name, _coerce(raw, hints[name], key))


def _flatten(obj: Any, prefix: str, out: dict[str, str]) -> None:
    for f in fields(obj):
        val = getattr(obj, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(val):
            _flatten(val, key + ".", out)
        elif isinstance(val, tuple):
            out[key] = ", ".join(str(v) for v in val)
        else:
            out[key] = str(val)


def to_text(cfg: TrainConfig) -> str:
    flat: dict[str, str] = {}
    _flatten(cfg, "", flat)
    lines = ["# schema: redloco-config/v1"]
    lines += [f"{k} = {v}" for k, v in flat.items()]
    return "\n".join(lines) + "\n"


def parse_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Apply the text's keys over ``base``; each key may appear once in the text."""
    cfg = base if base is not None else TrainConfig()
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{key}: set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        set_key(cfg, key, raw)
    return validate(cfg)


def load(path: str | Path, base: TrainConfig | None = None) -> TrainConfig:
    return parse_text(Path(path).read_text(), base=base)


def save(cfg: TrainConfig, path: str | Path) -> None:
    Path(path).write_text(to_text(cfg))
