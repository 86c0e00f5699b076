"""Clipped-surrogate policy update with a separate value critic.

Stands in for the constrained multi-critic solver used upstream of this
artifact; penalties already live in the reward table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PPOConfig
from ..nn import Adam, clip_grad_norm
from .policy import Critic, GaussianPolicy

# The environment clips actions to [-1, 1], so a mean far outside that box
# samples the same clipped action every time and the surrogate stops seeing
# it: the policy gets stuck at, say, full throttle. A quadratic penalty on the
# mean's excess over the box keeps it where the reward can move it.
MEAN_BOUND = 1.0
ENTROPY_COEF = 0.005
VALUE_COEF = 0.5
MAX_GRAD_NORM = 1.0
# the usual constants of Schulman et al. (2017): the Adam learning rate of the
# policy and the critic, the ratio clip, and the discount and lambda of GAE
LR = 3e-4
CLIP = 0.2
DISCOUNT = 0.99
GAE_LAMBDA = 0.95


def mean_bound_loss(mu: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over samples of the squared excess of |mu| over ``MEAN_BOUND``,
    summed over action components, and its gradient w.r.t. mu."""
    excess = np.maximum(np.abs(mu) - MEAN_BOUND, 0.0) * np.sign(mu)
    n = mu.shape[0]
    return float((excess * excess).sum() / n), 2.0 * excess / n


@dataclass
class PPOStats:
    surrogate: float
    value_loss: float
    entropy: float
    clip_fraction: float
    adv_norm_skipped: bool


def normalize_advantages(adv: np.ndarray) -> tuple[np.ndarray, bool]:
    var = float(adv.var())
    if var < 1e-12:
        return adv, True
    return (adv - adv.mean()) / np.sqrt(var), False


def surrogate_and_grad(ratio: np.ndarray, adv: np.ndarray, clip: float
                       ) -> tuple[float, np.ndarray]:
    """Pessimistic clipped objective and its gradient w.r.t. the ratio.

    Gradient follows the selected branch: the clipped branch contributes
    nothing once the ratio saturates outside [1-clip, 1+clip].
    """
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv
    take_unclipped = unclipped <= clipped
    value = float(np.minimum(unclipped, clipped).mean())
    inside = (ratio > 1.0 - clip) & (ratio < 1.0 + clip)
    dmin_dr = np.where(take_unclipped, adv, np.where(inside, adv, 0.0))
    return value, dmin_dr / ratio.size


def ppo_update(policy: GaussianPolicy, critic: Critic, policy_opt: Adam,
               critic_opt: Adam, obs: np.ndarray, critic_obs: np.ndarray,
               actions: np.ndarray, log_probs_old: np.ndarray, advantages: np.ndarray,
               returns: np.ndarray, cfg: PPOConfig, rng: np.random.Generator) -> PPOStats:
    n = obs.shape[0]
    adv, skipped = normalize_advantages(advantages)
    surr_vals, v_losses, clip_fracs = [], [], []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for mb in np.array_split(perm, cfg.minibatches):
            o, co, a = obs[mb], critic_obs[mb], actions[mb]
            lp_old, ad, ret = log_probs_old[mb], adv[mb], returns[mb]

            lp, mu, tape = policy.evaluate(o, a)
            ratio = np.exp(lp - lp_old)
            surr, g_min_dr = surrogate_and_grad(ratio, ad, CLIP)
            # loss = -surrogate - ENTROPY_COEF * entropy + mean bound
            g_logp = -g_min_dr * ratio
            _, g_bound = mean_bound_loss(mu)
            policy.backward_logp(tape, mu, a, g_logp, g_bound)
            policy.log_std.grad -= ENTROPY_COEF * policy.entropy_grad_logstd()
            clip_grad_norm(policy_opt, MAX_GRAD_NORM)
            policy_opt.step()

            v, vtape = critic.evaluate(co)
            diff = v - ret
            v_loss = float(np.mean(diff * diff))
            critic.backward_value(vtape, VALUE_COEF * 2.0 * diff / diff.size)
            clip_grad_norm(critic_opt, MAX_GRAD_NORM)
            critic_opt.step()

            surr_vals.append(surr)
            v_losses.append(v_loss)
            clip_fracs.append(float(np.mean(np.abs(ratio - 1.0) > CLIP)))
    return PPOStats(float(np.mean(surr_vals)), float(np.mean(v_losses)),
                    policy.entropy(), float(np.mean(clip_fracs)), skipped)
