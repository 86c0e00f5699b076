"""Anomaly-gated estimator selection with a low-pass switching filter.

Each update thresholds the anomaly score (the autoencoder's reconstruction
loss plus its plausibility term, see ``autoencoder.anomaly_scores``) against
beta into a binary vote, low-passes the vote into a vision-trust probability
P <- (1-gamma) P + gamma vote, and selects the vision estimator exactly when
P > 0.5 (strict; `runs_vision`). gamma = 1 disables the filter (instantaneous
switching).
Updates are order-dependent. `filter_step` advances every robot's P as arrays;
the one-robot `SelectorState`/`filter_update` form is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ContractError

MODE_VP = "VP"
MODE_OP = "OP"


@dataclass(frozen=True)
class SelectorState:
    p: float
    beta: float
    gamma: float
    mode: str = MODE_VP
    switched: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ContractError(f"P must lie in [0, 1], got {self.p}")
        if not 0.0 < self.gamma <= 1.0:
            raise ContractError(f"gamma must lie in (0, 1], got {self.gamma}")


def runs_vision(p):
    """The vision rule: a robot runs the vision estimator exactly where its
    trust P > 0.5 (strict). ``p`` is one P or an array of them."""
    return p > 0.5


def make_selector(beta: float, gamma: float, init_p: float = 1.0) -> SelectorState:
    if not np.isfinite(beta):
        raise ContractError("selector requires a calibrated finite beta")
    mode = MODE_VP if runs_vision(init_p) else MODE_OP
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
    mode = MODE_VP if runs_vision(p) else MODE_OP
    return replace(state, p=p, mode=mode, switched=mode != state.mode)


def filter_step(p: np.ndarray, losses: np.ndarray, valid: np.ndarray, beta: float,
                gamma: float) -> np.ndarray:
    """`filter_update` over a robot axis: the new (robots,) P, where a robot
    without a valid pair keeps its P; `runs_vision` reads the mode off it."""
    vote = np.where(losses < beta, 1.0, 0.0)
    return np.where(valid, (1.0 - gamma) * p + gamma * vote, p)


def min_flip_ticks(gamma: float) -> int:
    """Consecutive opposing votes needed to flip from a saturated P of 0 or 1."""
    if gamma >= 1.0:
        return 1
    k = int(np.ceil(np.log(0.5) / np.log(1.0 - gamma)))
    # guard the boundary case (1-gamma)^k == 0.5, which does not yet flip
    while (1.0 - gamma) ** k > 0.5:
        k += 1
    return k


def trace_record(sim_step: int, loss_value: float, beta: float, p: float, switched: bool) -> dict:
    """One selector tick as a JSON-ready record; ``p`` is P after the tick."""
    return {"schema": "selector-trace/v1", "step": int(sim_step),
            "loss_ad": float(loss_value), "beta": float(beta), "P": float(p),
            "mode": MODE_VP if runs_vision(p) else MODE_OP, "switched": bool(switched)}
