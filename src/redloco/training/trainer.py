"""Joint training loop: rollouts, policy update, supervised estimator and
autoencoder updates, curriculum and adaptation schedules, metrics, and
checkpoints. Fully deterministic under a fixed master seed: the autoencoder
update runs on a worker thread beside the others and gives the same bits."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import config as config_mod
from ..config import TrainConfig
from ..errors import ConfigError, RolloutAbort
from ..nn import Adam
from ..world import TERRAIN_KINDS
from .bundle import Networks, build_networks, critic_obs_dim, policy_obs_dim, save_bundle
from .ppo import DISCOUNT, GAE_LAMBDA, LR, PPOStats, ppo_update
from .rollout import RolloutBuffer
from .runner import VecRunner
from .schedule import FLIP_PERIOD, PHASE_THRESHOLD, AdaptationSchedule, PhaseTracker, terrain_class
from .supervised import (AE_LR, EST_LR, AutoencoderStats, SupervisedStats,
                         autoencoder_update, supervised_update)

METRICS_SCHEMA = "train-metrics/v1"
METRICS_COLUMNS = (
    "iteration", "mean_reward", "mean_lin_vel", "loss_op", "loss_vp", "loss_ad",
    "surrogate", "value_loss", "entropy", "clip_fraction", "mean_level", "phase",
    "mask_vp_fraction", "resets", "collisions", "adv_norm_skipped", "rejected_updates",
)


@dataclass
class TrainResult:
    checkpoint: Path
    metrics: Path
    masks_log: Path
    iterations: int
    final_mean_lin_vel: float
    duration: float = 0.0


class Trainer:
    def __init__(self, cfg: TrainConfig, out_dir: str | Path | None = None) -> None:
        # a config built in code gets the range checks a config file gets
        self.cfg = config_mod.validate(cfg)
        if unknown := [k for k in cfg.terrain_mix if k not in TERRAIN_KINDS]:
            raise ConfigError(f"terrain_mix: unknown terrain kind {unknown[0]!r}; known "
                              f"kinds: {', '.join(TERRAIN_KINDS)}")
        ss = np.random.SeedSequence(cfg.seed)
        child = ss.spawn(5 + cfg.n_envs)
        self.net_rng = np.random.default_rng(child[0])
        self.sample_rng = np.random.default_rng(child[1])
        self.shuffle_rng = np.random.default_rng(child[2])
        self.ae_rng = np.random.default_rng(child[3])
        env_rngs = [np.random.default_rng(c) for c in child[5:]]
        self.nets: Networks = build_networks(cfg, self.net_rng)
        mix = list(cfg.terrain_mix)
        self.kinds = [mix[i % len(mix)] for i in range(cfg.n_envs)]
        self.runner = VecRunner(cfg, self.kinds, env_rngs, self.nets.op, self.nets.vp)
        self.schedule = AdaptationSchedule(self.kinds, FLIP_PERIOD)
        self.phase = PhaseTracker(PHASE_THRESHOLD,
                                  int(cfg.phase_budget_frac * cfg.iterations))
        self.policy_opt = Adam(self.nets.policy.params(), LR)
        self.critic_opt = Adam(self.nets.critic.params(), LR)
        self.op_opt = Adam(self.nets.op.params(), EST_LR)
        self.vp_opt = Adam(self.nets.vp.params(), EST_LR)
        self.him_opt = Adam(self.nets.him.params(), EST_LR)
        self.ae_opt = Adam(self.nets.ae.params(), AE_LR)
        # the run directory exists only once the config has built everything
        self.out_dir = Path(out_dir if out_dir is not None else cfg.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def collect(self, iteration: int) -> tuple[RolloutBuffer, np.ndarray]:
        cfg = self.cfg
        runner = self.runner
        masks = self.schedule.masks(iteration)
        buf = RolloutBuffer(cfg.n_envs, cfg.horizon, policy_obs_dim(cfg),
                            critic_obs_dim(cfg))
        pending = None
        for _ in range(cfg.horizon):
            if runner.is_tick_step():
                tick = runner.tick_estimators()
                runner.set_latents(masks)
                tick.masks = masks.copy()
                buf.add_tick(tick)
                pending = tick
            obs_p = runner.policy_obs()
            obs_c = runner.critic_obs()
            actions, log_probs = self.nets.policy.act(obs_p, self.sample_rng)
            values = self.nets.critic.value(obs_c)
            if not (np.isfinite(obs_p).all() and np.isfinite(actions).all()):
                diag = self._dump_diagnostics(iteration, obs_p, actions)
                raise RolloutAbort(f"non-finite rollout data at iteration {iteration}; see {diag}")
            sd = runner.step(np.clip(actions, -1.0, 1.0))
            if not np.isfinite(sd.rewards).all():
                diag = self._dump_diagnostics(iteration, obs_p, actions)
                raise RolloutAbort(f"non-finite reward at iteration {iteration}; see {diag}")
            if pending is not None:
                pending.next_obs = runner.obs.copy()
                pending.loss_valid = ~sd.resets
                pending = None
            buf.add_step(obs_p, obs_c, actions, log_probs, values, sd.rewards,
                         sd.lin_vel, sd.terminated, sd.truncated, masks,
                         sd.collisions)
        bootstrap = self.nets.critic.value(runner.critic_obs())
        return buf, bootstrap

    def _dump_diagnostics(self, iteration: int, obs: np.ndarray, actions: np.ndarray) -> Path:
        path = self.out_dir / f"diagnostics_iter{iteration}.json"
        path.write_text(json.dumps({
            "schema": "rollout-diagnostics/v1", "iteration": iteration,
            "bad_obs_envs": np.where(~np.isfinite(obs).all(axis=1))[0].tolist(),
            "bad_action_envs": np.where(~np.isfinite(actions).all(axis=1))[0].tolist(),
        }, indent=2))
        return path

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        """Train for ``cfg.iterations``. Each iteration's autoencoder update
        runs on one worker thread (the lane) while PPO and the estimator
        update run on this one; the lane is joined before the iteration is
        logged, and before ``run`` returns or raises."""
        import time
        t_start = time.time()
        cfg = self.cfg
        metrics_path = self.out_dir / "metrics.csv"
        masks_path = self.out_dir / "masks.csv"
        mfile = open(metrics_path, "w")
        mfile.write(f"# schema: {METRICS_SCHEMA}\n")
        mfile.write(",".join(METRICS_COLUMNS) + "\n")
        kfile = open(masks_path, "w")
        kfile.write("# schema: train-masks/v1\n")
        kfile.write("iteration,env,kind,terrain_class,mask\n")
        mean_lin = 0.0
        try:
            with ThreadPoolExecutor(max_workers=1) as lane:
                for it in range(cfg.iterations):
                    self.runner.phase = self.phase.phase
                    buf, bootstrap = self.collect(it)
                    adv, ret = buf.compute_advantages(bootstrap, DISCOUNT, GAE_LAMBDA)
                    # the autoencoder shares no parameter, optimizer or generator
                    # with PPO and the estimators, and both lanes only read the
                    # rollout, so the order of their steps cannot change a bit
                    ae_job = lane.submit(autoencoder_update, self.nets.ae, self.ae_opt,
                                         buf.ticks, self.ae_rng)
                    stats = ppo_update(
                        self.nets.policy, self.nets.critic, self.policy_opt,
                        self.critic_opt, buf.flat(buf.obs), buf.flat(buf.critic_obs),
                        buf.flat(buf.actions), buf.flat(buf.log_probs),
                        adv.reshape(-1), ret.reshape(-1), cfg.ppo, self.shuffle_rng)
                    sup = supervised_update(self.nets.op, self.nets.vp, self.nets.him,
                                            self.op_opt, self.vp_opt, self.him_opt,
                                            buf.ticks)
                    ae = ae_job.result()
                    mean_lin = float(buf.lin_vel[:buf.ptr].mean())
                    self.phase.update(it, mean_lin)
                    mfile.write(self._metrics_row(it, buf, stats, sup, ae, mean_lin))
                    masks = self.schedule.masks(it)
                    for i, kind in enumerate(self.kinds):
                        kfile.write(f"{it},{i},{kind},{terrain_class(kind)},{masks[i]}\n")
                    if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                        save_bundle(self.out_dir / f"checkpoint_{it + 1}.ckpt", cfg,
                                    self.nets, {"iteration": it + 1})
                    # the ticks hold their forward tapes: free this rollout
                    # before the next one is collected
                    del buf
        finally:
            mfile.close()
            kfile.close()
        ckpt = self.out_dir / "checkpoint.ckpt"
        save_bundle(ckpt, cfg, self.nets, {"iteration": cfg.iterations})
        config_mod.save(cfg, self.out_dir / "config.resolved.cfg")
        return TrainResult(ckpt, metrics_path, masks_path, cfg.iterations, mean_lin,
                           duration=time.time() - t_start)

    def _metrics_row(self, it: int, buf: RolloutBuffer, stats: PPOStats,
                     sup: SupervisedStats, ae: AutoencoderStats, mean_lin: float) -> str:
        """Iteration ``it``'s metrics.csv line, once the phase tracker has
        seen the iteration."""
        row = (
            it, float(buf.rewards[:buf.ptr].mean()), mean_lin, sup.loss_op,
            sup.loss_vp, ae.loss_ad, stats.surrogate, stats.value_loss,
            stats.entropy, stats.clip_fraction,
            float(np.mean(self.runner.levels())), self.phase.phase,
            float(np.mean(buf.masks[:buf.ptr] == 0)),
            int(buf.terminated[:buf.ptr].sum() + buf.truncated[:buf.ptr].sum()),
            int(buf.collisions[:buf.ptr].sum()),
            int(stats.adv_norm_skipped), sup.rejected_updates + ae.rejected_updates,
        )
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def train(cfg: TrainConfig, out_dir: str | Path | None = None) -> TrainResult:
    return Trainer(cfg, out_dir).run()
