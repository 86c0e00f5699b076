"""Procedural 1D heightfields with a 10-level difficulty curriculum.

Cells are piecewise constant columns; gap cells carry a dedicated void flag
(bottomless), never a sentinel height. Generation is deterministic per
(kind, level, seed).
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError

TERRAIN_KINDS = ("flat", "rough", "stairs_up", "stairs_down", "gap", "platform")
DIFFICULT_KINDS = ("gap", "platform")
N_LEVELS = 10

CELL_SIZE = 0.05             # m
TERRAIN_CELLS = 480          # 24 m
SPAWN_X = 2.0                # m; every episode starts here, on a flat approach
# linear difficulty schedules over curriculum levels 0..9, in m
GAP_WIDTH_RANGE = (0.1, 0.8)
PLATFORM_HEIGHT_RANGE = (0.1, 0.5)
STEP_HEIGHT_RANGE = (0.05, 0.2)
ROUGH_AMP_RANGE = (0.01, 0.1)


def _lerp(span: tuple[float, float], level: int) -> float:
    return span[0] + (span[1] - span[0]) * level / (N_LEVELS - 1)


def generate_terrain(kind: str, level: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One heightfield as ``(heights, void)``: meters and a bool flag per
    cell. Difficulty grows linearly with level."""
    if kind not in TERRAIN_KINDS:
        raise ContractError(f"unknown terrain kind {kind!r}")
    if not 0 <= level < N_LEVELS:
        raise ContractError(f"level {level} outside 0..{N_LEVELS - 1}")
    n = TERRAIN_CELLS
    cell = CELL_SIZE
    rng = np.random.default_rng([abs(seed) % (2 ** 31), TERRAIN_KINDS.index(kind), level])
    heights = np.zeros(n)
    void = np.zeros(n, dtype=bool)
    run_up = int((SPAWN_X + 1.0) / cell)           # flat approach before any feature

    if kind == "flat":
        pass
    elif kind == "rough":
        amp = _lerp(ROUGH_AMP_RANGE, level)
        raw = rng.uniform(-amp, amp, size=n)
        kernel = np.ones(5) / 5.0
        smooth = np.convolve(raw, kernel, mode="same")
        heights[run_up:] = smooth[run_up:]
    elif kind in ("stairs_up", "stairs_down"):
        step_h = _lerp(STEP_HEIGHT_RANGE, level)
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
        width = _lerp(GAP_WIDTH_RANGE, level)
        gap_cells = max(int(round(width / cell)), 1)
        solid = int(1.5 / cell)
        i = run_up + int(1.0 / cell)
        while i + gap_cells < n - solid:
            void[i:i + gap_cells] = True
            i += gap_cells + solid
    elif kind == "platform":
        p_h = _lerp(PLATFORM_HEIGHT_RANGE, level)
        plat = int(1.2 / cell)
        spacing = int(2.0 / cell)
        i = run_up + int(1.0 / cell)
        while i + plat < n:
            heights[i:i + plat] = p_h
            i += plat + spacing

    return heights, void
