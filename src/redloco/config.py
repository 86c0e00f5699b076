"""Dataclass configuration tree with a flat ``key = value`` text format.

Nested fields are addressed with dotted keys (``camera.height = 12``).
Tuples are comma separated. A training run reads every key, and a key
stays only while a preset, a CLI flag, a program path or a benchmark
workload sets it; any other value is a constant in the module that reads it.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import ConfigError


@dataclass
class WorldConfig:
    episode_steps: int = 400


@dataclass
class CameraConfig:
    height: int = 48
    width: int = 64
    edge_border: int = 4


@dataclass
class NetConfig:
    history_len: int = 10        # proprioception buffer length
    embed_hidden: int = 64
    embed_out: int = 32
    cnn_channels: tuple[int, int, int] = (8, 16, 32)
    encoder_hidden: int = 64
    encoder_out: int = 32
    gru_hidden: int = 64
    latent: int = 32
    z_dim: int = 16
    him_hidden: int = 32


@dataclass
class SelectorConfig:
    # the deployed beta and gamma are not training settings: beta comes from
    # calibration (--beta/--beta-file), gamma from ExperimentSpec.gamma
    ae_channels: tuple[int, int, int] = (8, 16, 32)
    ae_bottleneck: int = 128


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
    checkpoint_every: int = 0    # 0 = final only
    out_dir: str = "runs/default"
    world: WorldConfig = field(default_factory=WorldConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    net: NetConfig = field(default_factory=NetConfig)
    selector: SelectorConfig = field(default_factory=SelectorConfig)


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
    """The legal range of one integer key: ``low`` and up."""
    low: int

    def admits(self, value: int) -> bool:
        return self.low <= value

    def __str__(self) -> str:
        return f"[{self.low}, inf)"


# One range per integer key. Periods, lengths, counts and layer widths count
# steps, iterations or units, so they start at 1. The camera renders at least
# 4x4 pixels.
BOUNDS = {
    "seed": Bound(0),
    "n_envs": Bound(1),
    "horizon": Bound(1),
    "iterations": Bound(1),
    "checkpoint_every": Bound(0),
    "world.episode_steps": Bound(1),
    "net.history_len": Bound(1),
    "net.embed_hidden": Bound(1),
    "net.embed_out": Bound(1),
    "net.encoder_hidden": Bound(1),
    "net.encoder_out": Bound(1),
    "net.gru_hidden": Bound(1),
    "net.latent": Bound(1),
    "net.z_dim": Bound(1),
    "net.him_hidden": Bound(1),
    "selector.ae_bottleneck": Bound(1),
    "camera.height": Bound(4),
    "camera.width": Bound(4),
    "camera.edge_border": Bound(0),
}


def validate(cfg: TrainConfig) -> TrainConfig:
    """Refuse a value outside its key's bound, naming the key, the value and
    the range; then a camera border that leaves no interior to resample."""
    for key, bound in BOUNDS.items():
        value = cfg
        for part in key.split("."):
            value = getattr(value, part)
        if not bound.admits(value):
            raise ConfigError(f"{key} = {value!r} is outside its range {bound}")
    cam = cfg.camera
    if 2 * cam.edge_border >= min(cam.height, cam.width):
        raise ConfigError(f"camera.edge_border = {cam.edge_border} crops the whole "
                          f"{cam.height}x{cam.width} frame: twice the border must be "
                          f"below the smaller side")
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
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: invalid int {raw!r}") from None
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
            raise ConfigError(f"unknown config key {key!r}")
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
