"""Deployment-time depth corruptions used by the robustness protocol.

Each injector takes one (H, W) frame and returns a new frame inside the
camera's depth range [MIN_DEPTH, MAX_RANGE]; the input is left untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from .camera import MAX_RANGE, MIN_DEPTH

GAUSSIAN_SIGMA_MAX = 0.5   # std in meters at the 100% level


def inject_gaussian(data: np.ndarray, level_pct: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Additive zero-mean noise, std = (level/100) * 0.5 m, re-clipped."""
    if not 0.0 <= level_pct <= 100.0:
        raise ContractError(f"noise level {level_pct} outside [0, 100]")
    if level_pct == 0.0:
        return data.copy()
    sigma = (level_pct / 100.0) * GAUSSIAN_SIGMA_MAX
    return np.clip(data + sigma * rng.standard_normal(data.shape), MIN_DEPTH, MAX_RANGE)


def inject_salt_pepper(data: np.ndarray, level_pct: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Exactly round(level% of pixels), chosen without replacement, forced to
    the near floor or max range with equal probability. Other pixels are
    bitwise untouched."""
    if not 0.0 <= level_pct <= 100.0:
        raise ContractError(f"noise level {level_pct} outside [0, 100]")
    data = data.copy()
    n = data.size
    count = int(round(level_pct / 100.0 * n))
    if count:
        chosen = rng.choice(n, size=count, replace=False)
        salt = rng.random(count) < 0.5
        flat = data.reshape(-1)
        flat[chosen] = np.where(salt, MAX_RANGE, MIN_DEPTH)
    return data


def inject_occlusion(data: np.ndarray) -> np.ndarray:
    """Full close-range occlusion: every pixel at the near floor."""
    return np.full_like(data, MIN_DEPTH)
