"""Masked concatenation of the two estimator latents.

Exactly one half of the fused vector is zero, the other is the source latent
verbatim, so the policy input width never changes when the mode switches.
mask = 1 selects the proprioception-only latent, mask = 0 the vision latent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError


@dataclass(frozen=True)
class FusedLatent:
    h: np.ndarray
    mask: int


def fuse_latent(h_b: np.ndarray, h_v: np.ndarray, mask: int) -> FusedLatent:
    """Fusion of one pair of (latent,) vectors: the one-row `fuse_batch`."""
    if mask not in (0, 1):
        raise ContractError(f"mask must be 0 or 1, got {mask!r}")
    h_b = np.asarray(h_b, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_b.ndim != 1:
        raise ContractError(f"latent shapes differ: {h_b.shape} vs {h_v.shape}")
    return FusedLatent(fuse_batch(h_b[None], h_v[None], np.array([mask]))[0], int(mask))


def fuse_batch(h_b: np.ndarray, h_v: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row-wise fusion of (B, latent) latents; masks is (B,) of {0, 1}."""
    h_b = np.asarray(h_b, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    masks = np.asarray(masks)
    if h_b.ndim != 2 or h_b.shape != h_v.shape or masks.shape != h_b.shape[:1]:
        raise ContractError(f"latent shapes {h_b.shape} vs {h_v.shape} with masks "
                            f"{masks.shape}: want (B, latent) twice and (B,)")
    if not np.isin(masks, (0, 1)).all():
        raise ContractError("masks must contain only 0 or 1")
    m = masks.astype(np.float64)[:, None]
    left = np.where(m == 1.0, h_b, 0.0)
    right = np.where(m == 0.0, h_v, 0.0)
    return np.concatenate([left, right], axis=1)
