"""Adaptive-moment parameter updates."""

from __future__ import annotations

import numpy as np

from .stack import TensorParam


BETAS = (0.9, 0.999)    # decay rates of the first and second moments
EPS = 1e-8


def adam_update(param: TensorParam, lr: float) -> bool:
    """One bias-corrected moment update; zeroes the grad.

    Returns False (and leaves values/moments/step untouched) when the grad
    is non-finite, so a caller can flag the rejection in its training log.
    """
    g = param.grad
    if not np.isfinite(g).all():
        param.zero_grad()
        return False
    b1, b2 = BETAS
    param.step_count += 1
    t = param.step_count
    param.moment1 *= b1
    param.moment1 += (1.0 - b1) * g
    param.moment2 *= b2
    param.moment2 += (1.0 - b2) * (g * g)
    mhat = param.moment1 / (1.0 - b1 ** t)
    vhat = param.moment2 / (1.0 - b2 ** t)
    param.values -= lr * mhat / (np.sqrt(vhat) + EPS)
    param.zero_grad()
    return True


class Adam:
    """Steps a fixed parameter list; counts rejected (non-finite) updates."""

    def __init__(self, params, lr: float) -> None:
        self.params = list(params)
        self.lr = lr
        self.rejected = 0

    def step(self) -> int:
        bad = 0
        for p in self.params:
            if not adam_update(p, self.lr):
                bad += 1
        self.rejected += bad
        return bad


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_grad_norm(params, max_norm: float) -> float:
    """Scales all grads so the global norm is at most ``max_norm``."""
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            p.grad *= scale
    return norm
