"""One environment as a view of a one-env `BatchWorld`.

`PlanarWorld` holds no dynamics, reward or label arithmetic of its own: it
keeps the single-env interface (``w.robot.vx = ...``, ``w.step([a0, a1])``)
that the benchmark's span map wraps by name and the tests use as a one-env
oracle, and delegates every computation to the batch code. Its terrain and
every array live in ``w.batch`` (``w.batch.set_terrain(0, hf)``,
``w.batch.heights[0]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..config import WorldConfig
from ..errors import ContractError
from .batch import JOINT_PHASE0, BatchWorld, PrivilegedInfo, StepEvents
from .commands import Command, make_command


@dataclass
class RobotState:
    """A copy of one env's body state."""
    x: float = 0.0
    z: float = 0.0
    vx: float = 0.0
    vz: float = 0.0
    pitch: float = 0.0
    airborne: bool = False
    ax: float = 0.0
    az: float = 0.0
    pitch_rate: float = 0.0
    joint_phase: np.ndarray = field(default_factory=lambda: np.array(JOINT_PHASE0))
    last_action: np.ndarray = field(default_factory=lambda: np.zeros(2))


STATE_FIELDS = tuple(f.name for f in fields(RobotState))


def _state_field(name: str) -> property:
    def get(self):
        return getattr(self._batch, name)[self._i]

    def set(self, value) -> None:
        getattr(self._batch, name)[self._i] = value

    return property(get, set)


class RobotView:
    """Live body state of env i of a batch; assignments write into the batch."""

    def __init__(self, batch: BatchWorld, i: int) -> None:
        self._batch = batch
        self._i = i


for _name in STATE_FIELDS:
    setattr(RobotView, _name, _state_field(_name))


class PlanarWorld:
    """One independently steppable environment instance."""

    def __init__(self, cfg: WorldConfig, kind: str, rng: np.random.Generator,
                 level: int = 0) -> None:
        self.batch = BatchWorld(cfg, [kind], [rng], [level])
        self.robot = RobotView(self.batch, 0)

    @property
    def cfg(self) -> WorldConfig:
        return self.batch.cfg

    @property
    def command(self) -> Command:
        return make_command(self.batch.c_x[0], self.batch.c_yaw[0])

    @property
    def motor_gain(self) -> float:
        return float(self.batch.motor_gain[0])

    def reset_episode(self, command: Command | None = None) -> None:
        self.batch.reset([0], None if command is None else [command])

    def step(self, action) -> StepEvents:
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (2,):
            raise ContractError(f"action must be 2 components, got {action!r}")
        return self.batch.step(a[None]).at(0)

    def observation(self) -> np.ndarray:
        return self.batch.observation()[0]

    def privileged(self) -> PrivilegedInfo:
        p = self.batch.privileged()
        return PrivilegedInfo(p.v_true[0], p.m_t[0], p.h_f[0])

    def snapshot(self) -> RobotState:
        values = {name: getattr(self.robot, name) for name in STATE_FIELDS}
        return RobotState(**{k: v.copy() if isinstance(v, np.ndarray) else v
                             for k, v in values.items()})
