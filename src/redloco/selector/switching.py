"""Anomaly-gated estimator selection with a low-pass switching filter.

Each update thresholds the anomaly score (the autoencoder's reconstruction
loss plus its plausibility term, see ``autoencoder.anomaly_scores``) against
beta into a binary vote, low-passes the vote into a vision-trust probability
P <- (1-gamma) P + gamma vote, and selects the vision estimator exactly when
P > 0.5 (strict). gamma = 1 disables the filter (instantaneous switching).
Updates are order-dependent; keep one state per robot and update it
sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ContractError
from ..estimators.fusion import FusedLatent, fuse_latent

MODE_VP = "VP"
MODE_OP = "OP"


@dataclass(frozen=True)
class SelectorState:
    p: float = 1.0
    beta: float = float("nan")
    gamma: float = 0.1
    mode: str = MODE_VP
    switched: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ContractError(f"P must lie in [0, 1], got {self.p}")
        if not 0.0 < self.gamma <= 1.0:
            raise ContractError(f"gamma must lie in (0, 1], got {self.gamma}")


def make_selector(beta: float, gamma: float = 0.1, init_p: float = 1.0) -> SelectorState:
    if not np.isfinite(beta):
        raise ContractError("selector requires a calibrated finite beta")
    mode = MODE_VP if init_p > 0.5 else MODE_OP
    return SelectorState(p=init_p, beta=float(beta), gamma=float(gamma), mode=mode)


def calibrate_beta(clean_losses) -> float:
    """Threshold = the maximum anomaly score seen on clean test episodes."""
    losses = list(clean_losses)
    if not losses:
        raise ContractError("beta calibration needs at least one clean loss")
    return float(max(losses))


def filter_update(state: SelectorState, loss_value: float) -> SelectorState:
    """One selector tick: threshold vote, low-pass, mode decision."""
    vote = 1.0 if loss_value < state.beta else 0.0
    p = (1.0 - state.gamma) * state.p + state.gamma * vote
    mode = MODE_VP if p > 0.5 else MODE_OP
    return replace(state, p=p, mode=mode, switched=mode != state.mode)


def select_latent(state: SelectorState, h_b: np.ndarray, h_v: np.ndarray) -> FusedLatent:
    """Fuse with mask 1 (proprio half) in OP mode, mask 0 (vision half) in VP."""
    return fuse_latent(h_b, h_v, 1 if state.mode == MODE_OP else 0)


def min_flip_ticks(gamma: float) -> int:
    """Consecutive opposing votes needed to flip from a saturated P of 0 or 1."""
    if gamma >= 1.0:
        return 1
    k = int(np.ceil(np.log(0.5) / np.log(1.0 - gamma)))
    # guard the boundary case (1-gamma)^k == 0.5, which does not yet flip
    while (1.0 - gamma) ** k > 0.5:
        k += 1
    return k


def trace_record(state: SelectorState, sim_step: int, loss_value: float) -> dict:
    return {"schema": "selector-trace/v1", "step": sim_step,
            "loss_ad": float(loss_value), "beta": state.beta, "P": state.p,
            "mode": state.mode, "switched": state.switched}
