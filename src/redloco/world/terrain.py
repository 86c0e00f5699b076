"""Procedural 1D heightfields with a 10-level difficulty curriculum.

Cells are piecewise constant columns; gap cells carry a dedicated void flag
(bottomless), never a sentinel height. Generation is deterministic per
(kind, level, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import WorldConfig
from ..errors import ContractError

TERRAIN_KINDS = ("flat", "rough", "stairs_up", "stairs_down", "gap", "platform")
SIMPLE_KINDS = ("flat", "rough", "stairs_up", "stairs_down")
DIFFICULT_KINDS = ("gap", "platform")
N_LEVELS = 10


@dataclass
class Heightfield:
    cell_size: float
    heights: np.ndarray          # meters, one per cell
    void: np.ndarray             # bool, one per cell
    kind: str
    level: int
    difficulty: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return len(self.heights)

    def cell_at(self, x: float) -> int:
        return min(max(int(np.floor(x / self.cell_size)), 0), self.n_cells - 1)

    def height_at(self, x: float) -> float:
        """Terrain height under x; void cells return -inf."""
        i = self.cell_at(x)
        return -np.inf if self.void[i] else float(self.heights[i])

    def is_void_at(self, x: float) -> bool:
        return bool(self.void[self.cell_at(x)])


def _lerp(span: tuple[float, float], level: int) -> float:
    return span[0] + (span[1] - span[0]) * level / (N_LEVELS - 1)


def generate_terrain(kind: str, level: int, seed: int, cfg: WorldConfig) -> Heightfield:
    """Build one heightfield. Difficulty grows linearly with level."""
    if kind not in TERRAIN_KINDS:
        raise ContractError(f"unknown terrain kind {kind!r}")
    if not 0 <= level < N_LEVELS:
        raise ContractError(f"level {level} outside 0..{N_LEVELS - 1}")
    n = cfg.terrain_cells
    cell = cfg.cell_size
    rng = np.random.default_rng([abs(seed) % (2 ** 31), TERRAIN_KINDS.index(kind), level])
    heights = np.zeros(n)
    void = np.zeros(n, dtype=bool)
    run_up = int((cfg.spawn_x + 1.0) / cell)       # flat approach before any feature
    diff: dict[str, float] = {}

    if kind == "flat":
        pass
    elif kind == "rough":
        amp = _lerp(cfg.rough_amp_range, level)
        diff["roughness"] = amp
        raw = rng.uniform(-amp, amp, size=n)
        kernel = np.ones(5) / 5.0
        smooth = np.convolve(raw, kernel, mode="same")
        heights[run_up:] = smooth[run_up:]
    elif kind in ("stairs_up", "stairs_down"):
        step_h = _lerp(cfg.step_height_range, level)
        diff["step_height"] = step_h
        tread = max(int(0.3 / cell), 1)
        n_steps = 8
        i = run_up
        if kind == "stairs_up":
            for k in range(n_steps):
                heights[i:i + tread] = step_h * (k + 1)
                i += tread
        else:
            # spawn on a raised landing, descend to ground level
            top = step_h * n_steps
            heights[:run_up] = top
            for k in range(n_steps):
                heights[i:i + tread] = top - step_h * (k + 1)
                i += tread
        heights[i:] = heights[i - 1]
    elif kind == "gap":
        width = _lerp(cfg.gap_width_range, level)
        diff["gap_width"] = width
        gap_cells = max(int(round(width / cell)), 1)
        solid = int(1.5 / cell)
        i = run_up + int(1.0 / cell)
        while i + gap_cells < n - solid:
            void[i:i + gap_cells] = True
            i += gap_cells + solid
    elif kind == "platform":
        p_h = _lerp(cfg.platform_height_range, level)
        diff["platform_height"] = p_h
        plat = int(1.2 / cell)
        spacing = int(2.0 / cell)
        i = run_up + int(1.0 / cell)
        while i + plat < n:
            heights[i:i + plat] = p_h
            i += plat + spacing

    return Heightfield(cell, heights, void, kind, level, diff)


def difficulty_value(kind: str, level: int, cfg: WorldConfig) -> float:
    """The kind's primary difficulty parameter at a level (for monotonicity checks)."""
    span = {"flat": (0.0, 0.0), "rough": cfg.rough_amp_range,
            "stairs_up": cfg.step_height_range, "stairs_down": cfg.step_height_range,
            "gap": cfg.gap_width_range, "platform": cfg.platform_height_range}[kind]
    return _lerp(span, level)
