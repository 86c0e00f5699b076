"""Deployment-time depth corruptions used by the robustness protocol.

Each injector takes one (H, W) frame and the camera's depth bounds and
returns a new frame; the input is left untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError

GAUSSIAN_SIGMA_MAX = 0.5   # std in meters at the 100% level


def inject_gaussian(data: np.ndarray, level_pct: float, rng: np.random.Generator,
                    max_range: float, min_depth: float) -> np.ndarray:
    """Additive zero-mean noise, std = (level/100) * 0.5 m, re-clipped."""
    if not 0.0 <= level_pct <= 100.0:
        raise ContractError(f"noise level {level_pct} outside [0, 100]")
    if level_pct == 0.0:
        return data.copy()
    sigma = (level_pct / 100.0) * GAUSSIAN_SIGMA_MAX
    return np.clip(data + sigma * rng.standard_normal(data.shape), min_depth, max_range)


def inject_salt_pepper(data: np.ndarray, level_pct: float, rng: np.random.Generator,
                       max_range: float, min_depth: float) -> np.ndarray:
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
        flat[chosen] = np.where(salt, max_range, min_depth)
    return data


def inject_occlusion(data: np.ndarray, min_depth: float) -> np.ndarray:
    """Full close-range occlusion: every pixel at the near floor."""
    return np.full_like(data, min_depth)
