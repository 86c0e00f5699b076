"""Mask and command-curriculum schedules for joint training.

Difficult terrains (gaps, platforms) always train the vision estimator
(mask 0). Simple terrains alternate the active estimator every
``flip_period`` iterations, with per-env phase offsets so both estimators
see data every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..world.terrain import DIFFICULT_KINDS, TERRAIN_KINDS
from ..errors import ContractError


def terrain_class(kind: str) -> str:
    if kind not in TERRAIN_KINDS:
        raise ContractError(f"unknown terrain kind {kind!r}")
    return "difficult" if kind in DIFFICULT_KINDS else "simple"


@dataclass
class AdaptationSchedule:
    kinds: list[str]
    flip_period: int
    offsets: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.classes = [terrain_class(k) for k in self.kinds]
        # stagger among the simple envs so both estimators drive the policy
        # somewhere every iteration
        self.offsets = []
        rank = 0
        for c in self.classes:
            self.offsets.append(rank % 2 if c == "simple" else 0)
            rank += c == "simple"

    def mask(self, iteration: int, env: int) -> int:
        if self.classes[env] == "difficult":
            return 0
        return ((iteration // self.flip_period) % 2) ^ self.offsets[env]

    def masks(self, iteration: int) -> np.ndarray:
        return np.array([self.mask(iteration, i) for i in range(len(self.kinds))],
                        dtype=np.int64)


class PhaseTracker:
    """Two-level command curriculum: phase 1 until the tracking moving average
    crosses the threshold or the iteration budget runs out, then phase 2
    forever."""

    def __init__(self, threshold: float, budget_iterations: int, window: int = 20) -> None:
        self.threshold = threshold
        self.budget = budget_iterations
        self.window = window
        self._history: list[float] = []
        self.phase = 1

    def update(self, iteration: int, tracking_value: float) -> int:
        if self.phase == 2:
            return 2
        self._history.append(float(tracking_value))
        ma = float(np.mean(self._history[-self.window:]))
        if (len(self._history) >= self.window and ma >= self.threshold) \
                or iteration >= self.budget:
            self.phase = 2
        return self.phase
