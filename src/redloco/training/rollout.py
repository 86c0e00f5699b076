"""Fixed-horizon rollout storage with generalized advantage estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RolloutAbort
from ..world import ACT_DIM
from .ppo import DISCOUNT, GAE_LAMBDA
from .runner import TickData


@dataclass
class RolloutBuffer:
    n_envs: int
    horizon: int
    obs_dim: int
    critic_dim: int

    def __post_init__(self) -> None:
        t, e = self.horizon, self.n_envs
        self.obs = np.zeros((t, e, self.obs_dim))
        self.critic_obs = np.zeros((t, e, self.critic_dim))
        self.actions = np.zeros((t, e, ACT_DIM))
        self.log_probs = np.zeros((t, e))
        self.values = np.zeros((t, e))
        self.rewards = np.zeros((t, e))
        self.lin_vel = np.zeros((t, e))
        self.terminated = np.zeros((t, e), dtype=bool)
        self.truncated = np.zeros((t, e), dtype=bool)
        self.collisions = np.zeros((t, e), dtype=bool)
        # the iteration's estimator mask per env: one row, fixed for the rollout
        self.masks = np.zeros(e, dtype=np.int64)
        self.ticks: list[TickData] = []
        self.ptr = 0

    @property
    def size(self) -> int:
        return self.ptr * self.n_envs

    def add_step(self, obs, critic_obs, action, log_prob, value, reward, lin_vel,
                 terminated, truncated, collisions) -> None:
        t = self.ptr
        if t >= self.horizon:
            raise RolloutAbort("rollout buffer overflow")
        self.obs[t] = obs
        self.critic_obs[t] = critic_obs
        self.actions[t] = action
        self.log_probs[t] = log_prob
        self.values[t] = value
        self.rewards[t] = reward
        self.lin_vel[t] = lin_vel
        self.terminated[t] = terminated
        self.truncated[t] = truncated
        self.collisions[t] = collisions
        self.ptr += 1

    def add_tick(self, tick: TickData) -> None:
        self.ticks.append(tick)

    def compute_advantages(self, bootstrap_value: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
        """GAE over the stored horizon. Timeouts bootstrap with the step's own
        value estimate (added to the reward), then count as chain breaks."""
        t_max = self.ptr
        rewards = self.rewards[:t_max].copy()
        rewards[self.truncated[:t_max]] += DISCOUNT * self.values[:t_max][
            self.truncated[:t_max]]
        done = self.terminated[:t_max] | self.truncated[:t_max]
        adv = np.zeros((t_max, self.n_envs))
        lastgae = np.zeros(self.n_envs)
        for t in reversed(range(t_max)):
            next_v = bootstrap_value if t == t_max - 1 else self.values[t + 1]
            nonterm = 1.0 - done[t].astype(np.float64)
            delta = rewards[t] + DISCOUNT * next_v * nonterm - self.values[t]
            lastgae = delta + DISCOUNT * GAE_LAMBDA * nonterm * lastgae
            adv[t] = lastgae
        returns = adv + self.values[:t_max]
        return adv, returns

    def flat(self, arr: np.ndarray) -> np.ndarray:
        return arr[:self.ptr].reshape(self.ptr * self.n_envs, *arr.shape[2:])
