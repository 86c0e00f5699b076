"""Diagonal-Gaussian actor and value critic over the fused latent."""

from __future__ import annotations

import numpy as np

from ..nn import Elu, LayerStack, Linear, TensorParam

LOG_2PI = float(np.log(2.0 * np.pi))
ACTOR_HIDDEN = (128, 64)
CRITIC_HIDDEN = (128, 64)
INIT_LOG_STD = -0.7


class GaussianPolicy:
    """MLP mean head with a state-independent learned log-std."""

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator) -> None:
        h1, h2 = ACTOR_HIDDEN
        self.actor = LayerStack([Linear(obs_dim, h1), Elu(), Linear(h1, h2), Elu(),
                                 Linear(h2, act_dim)], (obs_dim,), rng)
        self.log_std = TensorParam("log_std", np.full(act_dim, INIT_LOG_STD))
        self.act_dim = act_dim

    def params(self):
        yield from self.actor.params()
        yield self.log_std

    def mean(self, obs: np.ndarray) -> np.ndarray:
        mu, _, _ = self.actor.forward(obs)
        return mu

    def act(self, obs: np.ndarray, rng: np.random.Generator
            ) -> tuple[np.ndarray, np.ndarray]:
        """Sample actions and their log-probs."""
        mu, _, _ = self.actor.forward(obs)
        std = np.exp(self.log_std.values)
        actions = mu + std * rng.standard_normal(mu.shape)
        return actions, self._logp(mu, actions)

    def _logp(self, mu: np.ndarray, actions: np.ndarray) -> np.ndarray:
        std = np.exp(self.log_std.values)
        zs = (actions - mu) / std
        return (-0.5 * (zs * zs).sum(axis=1)
                - self.log_std.values.sum()
                - 0.5 * self.act_dim * LOG_2PI)

    def evaluate(self, obs: np.ndarray, actions: np.ndarray):
        """Log-probs with a tape for the surrogate backward pass."""
        mu, _, tape = self.actor.forward(obs)
        return self._logp(mu, actions), mu, tape

    def backward_logp(self, tape, mu: np.ndarray, actions: np.ndarray,
                      g_logp: np.ndarray, g_mu_extra: np.ndarray | None = None) -> None:
        """Accumulate d(sum g_logp * logp)/d params, plus ``g_mu_extra`` as a
        direct gradient on the action mean."""
        std = np.exp(self.log_std.values)
        diff = actions - mu
        g_mu = g_logp[:, None] * diff / (std * std)
        if g_mu_extra is not None:
            g_mu = g_mu + g_mu_extra
        self.actor.backward(tape, g_mu, need_input_grad=False)
        d_logstd = (diff * diff) / (std * std) - 1.0
        self.log_std.grad += (g_logp[:, None] * d_logstd).sum(axis=0)

    def entropy(self) -> float:
        return float(self.log_std.values.sum() + 0.5 * self.act_dim * (1.0 + LOG_2PI))

    def entropy_grad_logstd(self) -> np.ndarray:
        return np.ones(self.act_dim)


class Critic:
    def __init__(self, obs_dim: int, rng: np.random.Generator) -> None:
        h1, h2 = CRITIC_HIDDEN
        self.net = LayerStack([Linear(obs_dim, h1), Elu(), Linear(h1, h2), Elu(),
                               Linear(h2, 1)], (obs_dim,), rng)

    def params(self):
        yield from self.net.params()

    def value(self, obs: np.ndarray) -> np.ndarray:
        v, _, _ = self.net.forward(obs)
        return v[:, 0]

    def evaluate(self, obs: np.ndarray):
        v, _, tape = self.net.forward(obs)
        return v[:, 0], tape

    def backward_value(self, tape, g_v: np.ndarray) -> None:
        self.net.backward(tape, g_v[:, None], need_input_grad=False)
