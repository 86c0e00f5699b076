"""One environment as a one-env `BatchWorld`.

No program path or test uses `PlanarWorld`. It stays only because the
benchmark's span map (`bench/spans.py`) wraps its five methods by name, and
it goes once that map wraps `BatchWorld` (ROADMAP items 2 and 11).
"""

from __future__ import annotations

import numpy as np

from ..config import WorldConfig
from .batch import BatchEvents, BatchWorld, PrivilegedInfo
from .commands import Command


class PlanarWorld:
    """Env 0 of ``self.batch``; each method is one call into the batch."""

    def __init__(self, cfg: WorldConfig, kind: str, rng: np.random.Generator,
                 level: int = 0) -> None:
        self.batch = BatchWorld(cfg, [kind], [rng], [level])

    def step(self, action) -> BatchEvents:
        return self.batch.step([action])

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: v[0].copy() for name, v in vars(self.batch).items()
                if isinstance(v, np.ndarray)}

    def privileged(self) -> PrivilegedInfo:
        p = self.batch.privileged()
        return PrivilegedInfo(p.v_true[0], p.m_t[0], p.h_f[0])

    def observation(self) -> np.ndarray:
        return self.batch.observation()[0]

    def reset_episode(self, command: Command | None = None) -> None:
        self.batch.reset([0], None if command is None else [command])
