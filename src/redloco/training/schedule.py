"""Mask and command-curriculum schedules for joint training.

Difficult terrains (gaps, platforms) always train the vision estimator
(mask 0). Simple terrains alternate the active estimator every
``FLIP_PERIOD`` iterations, with per-env phase offsets so both estimators
see data every iteration.
"""

from __future__ import annotations

import numpy as np

from ..world.terrain import DIFFICULT_KINDS, TERRAIN_KINDS
from ..errors import ContractError

# the moving average of tracking that moves the command curriculum to phase 2
PHASE_THRESHOLD = 0.7
# iterations between flips of the simple envs' estimator mask
FLIP_PERIOD = 20


def terrain_class(kind: str) -> str:
    if kind not in TERRAIN_KINDS:
        raise ContractError(f"unknown terrain kind {kind!r}")
    return "difficult" if kind in DIFFICULT_KINDS else "simple"


class AdaptationSchedule:
    def __init__(self, kinds: list[str], flip_period: int) -> None:
        self.flip_period = flip_period
        self.simple = np.array([terrain_class(k) == "simple" for k in kinds], dtype=bool)
        # stagger among the simple envs (by their rank among them) so both
        # estimators drive the policy somewhere every iteration
        self.offsets = np.where(self.simple, (np.cumsum(self.simple) - 1) % 2, 0)

    def masks(self, iteration: int) -> np.ndarray:
        """(E,) int64 masks: 0 (vision) on difficult envs, the flipping
        phase XOR the env's offset on simple ones."""
        phase = (iteration // self.flip_period) % 2
        return np.where(self.simple, phase ^ self.offsets, 0)


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
