"""Joint training loop: rollouts, policy update, supervised estimator and
autoencoder updates, curriculum and adaptation schedules, metrics, and
checkpoints. Deterministic under a fixed master seed: the autoencoder update
runs in a worker process beside the next rollout and gives the same bits."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import pickle
import signal
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .. import config as config_mod
from ..config import TrainConfig
from ..errors import RolloutAbort
from ..nn import Adam, LayerStack
from .bundle import CRITIC_OBS_DIM, POLICY_OBS_DIM, Networks, build_networks, save_bundle
from .ppo import LR, PPOStats, ppo_update
from .rollout import RolloutBuffer
from .runner import VecRunner
from .schedule import AdaptationSchedule, PhaseTracker, terrain_class
from .supervised import (AE_LR, EST_LR, AutoencoderStats, SupervisedStats,
                         autoencoder_update, clean_pairs, supervised_update)

METRICS_SCHEMA = "train-metrics/v1"
METRICS_COLUMNS = (
    "iteration", "mean_reward", "mean_lin_vel", "loss_op", "loss_vp", "loss_ad",
    "surrogate", "value_loss", "entropy", "clip_fraction", "mean_level", "phase",
    "mask_vp_fraction", "resets", "collisions", "adv_norm_skipped", "rejected_updates",
)
LANE_EXIT_S = 10.0    # how long a stopped lane may take to exit before it is killed


def _lane_main(conn, ae: LayerStack, ae_opt: Adam, ae_rng: np.random.Generator) -> None:
    """The lane process: one autoencoder update per pool received, until
    ``None``. Each reply is the stats and all the state it moved, or the error."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)     # Ctrl-C is the parent's to handle
    while (pool := conn.recv()) is not None:
        try:
            stats = autoencoder_update(ae, ae_opt, pool, ae_rng)
            reply = (stats, (ae_opt.values, ae_opt.moment1, ae_opt.moment2),
                     [p.step_count for p in ae_opt.params], ae_opt.rejected,
                     ae_rng.bit_generator.state)
        except Exception as exc:
            try:
                reply = pickle.loads(pickle.dumps(exc))
            except Exception:    # it cannot cross the pipe: send its name, text and trace
                reply = RuntimeError(f"autoencoder update raised {type(exc).__qualname__}: "
                                     f"{exc}\n{traceback.format_exc()}")
        conn.send(reply)


class AutoencoderLane:
    """The process that runs one training run's autoencoder updates, in order.
    Forked while no other thread runs, it owns copies of the autoencoder, its
    optimizer and its generator; ``join`` copies what an update moved into
    the trainer's and hands its stats to ``on_stats``."""

    def __init__(self, ae: LayerStack, ae_opt: Adam, ae_rng: np.random.Generator) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_lane_main, args=(child_conn, ae, ae_opt, ae_rng),
                                daemon=True)
        self.proc.start()
        child_conn.close()       # so that the pipe reads EOF once the child is gone
        self.ae_opt, self.ae_rng = ae_opt, ae_rng
        self.busy, self.on_stats = False, lambda stats: None

    def submit(self, pool: np.ndarray) -> None:
        self.conn.send(pool)
        self.busy, self.on_stats = True, lambda stats: None

    def join(self) -> None:
        """Waits for the update out, if any; raises its error or the lane's death."""
        if not self.busy:
            return
        self.busy = False
        try:
            reply = self.conn.recv()
        except EOFError:
            self.proc.join(LANE_EXIT_S)
            raise RuntimeError(f"the autoencoder lane died with exit code "
                               f"{self.proc.exitcode}") from None
        if isinstance(reply, BaseException):
            raise reply
        stats, arena, steps, self.ae_opt.rejected, rng_state = reply
        self.ae_opt.values[...], self.ae_opt.moment1[...], self.ae_opt.moment2[...] = arena
        for p, n in zip(self.ae_opt.params, steps):
            p.step_count = n
        self.ae_rng.bit_generator.state = rng_state
        self.on_stats(stats)

    def close(self) -> None:
        """Joins the update out, dropping its error (the caller is raising
        already), then stops the process; kills it if it outlives LANE_EXIT_S."""
        with contextlib.suppress(Exception):
            self.join()
        with contextlib.suppress(OSError):     # the process is gone
            self.conn.send(None)
        self.proc.join(LANE_EXIT_S)
        self.proc.terminate()    # a no-op unless the join timed out
        self.proc.join()
        self.conn.close()


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
        # a config built in code gets the checks a config file gets
        self.cfg = config_mod.validate(cfg)
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
        self.schedule = AdaptationSchedule(self.kinds)
        self.phase = PhaseTracker(cfg.iterations)
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
        buf = RolloutBuffer(cfg.n_envs, cfg.horizon, POLICY_OBS_DIM, CRITIC_OBS_DIM)
        buf.masks[...] = masks
        pending = None
        for _ in range(cfg.horizon):
            if runner.is_tick_step():
                tick = runner.tick_estimators()
                runner.set_latents(masks)
                buf.add_tick(tick)
                pending = tick
            obs_p = runner.policy_obs()
            obs_c = runner.critic_obs()
            # the policy and the critic refuse a non-finite input, so check it
            # first; the critic's observation holds the policy's columns
            if not np.isfinite(obs_c).all():
                self._abort(iteration, "observation", obs_c)
            actions, log_probs = self.nets.policy.act(obs_p, self.sample_rng)
            values = self.nets.critic.value(obs_c)
            if not np.isfinite(actions).all():
                self._abort(iteration, "action", obs_p, actions)
            sd = runner.step(np.clip(actions, -1.0, 1.0))
            if not np.isfinite(sd.rewards).all():
                self._abort(iteration, "reward", obs_p, actions)
            if pending is not None:
                pending.next_obs = runner.obs.copy()
                pending.loss_valid = ~sd.resets
                pending = None
            buf.add_step(obs_p, obs_c, actions, log_probs, values, sd.rewards,
                         sd.lin_vel, sd.terminated, sd.truncated, sd.collisions)
        bootstrap = self.nets.critic.value(runner.critic_obs())
        return buf, bootstrap

    def _abort(self, iteration: int, what: str, obs: np.ndarray,
               actions: np.ndarray | None = None) -> NoReturn:
        """Write the envs with non-finite observations and actions (none
        before the policy acted) and raise `RolloutAbort`."""
        def rows(a):
            return [] if a is None else np.flatnonzero(~np.isfinite(a).all(axis=1)).tolist()

        path = self.out_dir / f"diagnostics_iter{iteration}.json"
        path.write_text(json.dumps({
            "schema": "rollout-diagnostics/v1", "iteration": iteration,
            "bad_obs_envs": rows(obs), "bad_action_envs": rows(actions)}, indent=2))
        raise RolloutAbort(f"non-finite {what} at iteration {iteration}; see {path}")

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        """Train for ``cfg.iterations``. Iteration i's autoencoder update runs
        in the lane beside PPO, the estimator update and iteration i+1's
        collect, and is joined (and its rows written) after that collect,
        before a checkpoint or at the end. Any exception closes the lane."""
        import time
        t_start = time.time()
        cfg = self.cfg
        metrics_path = self.out_dir / "metrics.csv"
        masks_path = self.out_dir / "masks.csv"
        mean_lin = 0.0
        lane = AutoencoderLane(self.nets.ae, self.ae_opt, self.ae_rng)
        mfile = kfile = None
        try:
            mfile = open(metrics_path, "w")
            mfile.write(f"# schema: {METRICS_SCHEMA}\n")
            mfile.write(",".join(METRICS_COLUMNS) + "\n")
            kfile = open(masks_path, "w")
            kfile.write("# schema: train-masks/v1\n")
            kfile.write("iteration,env,kind,terrain_class,mask\n")
            for it in range(cfg.iterations):
                self.runner.phase = self.phase.phase
                buf, bootstrap = self.collect(it)
                lane.join()          # the previous update ran beside this collect
                adv, ret = buf.compute_advantages(bootstrap)
                # the autoencoder shares no parameter, optimizer or generator with
                # PPO and the estimators, so the order of their steps cannot change a bit
                lane.submit(clean_pairs(buf.ticks))
                stats = ppo_update(
                    self.nets.policy, self.nets.critic, self.policy_opt,
                    self.critic_opt, buf.flat(buf.obs), buf.flat(buf.critic_obs),
                    buf.flat(buf.actions), buf.flat(buf.log_probs),
                    adv.reshape(-1), ret.reshape(-1), self.shuffle_rng)
                sup = supervised_update(self.nets.op, self.nets.vp, self.nets.him,
                                        self.op_opt, self.vp_opt, self.him_opt, buf.ticks,
                                        buf.masks)
                mean_lin = float(buf.lin_vel[:buf.ptr].mean())
                self.phase.update(it, mean_lin)
                lane.on_stats = self._row_writer(mfile, kfile, it, buf, stats, sup, mean_lin)
                if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                    lane.join()
                    save_bundle(self.out_dir / f"checkpoint_{it + 1}.ckpt", cfg,
                                self.nets, {"iteration": it + 1})
                # the ticks hold their forward tapes: free this rollout
                # before the next one is collected
                del buf
            lane.join()
        finally:
            lane.close()
            for f in filter(None, (mfile, kfile)):
                f.close()
        ckpt = self.out_dir / "checkpoint.ckpt"
        save_bundle(ckpt, cfg, self.nets, {"iteration": cfg.iterations})
        config_mod.save(cfg, self.out_dir / "config.resolved.cfg")
        return TrainResult(ckpt, metrics_path, masks_path, cfg.iterations, mean_lin,
                           duration=time.time() - t_start)

    def _row_writer(self, mfile, kfile, it: int, buf: RolloutBuffer, stats: PPOStats,
                    sup: SupervisedStats, mean_lin: float):
        """The writer of iteration ``it``'s metrics.csv and masks.csv rows, to
        call with its autoencoder stats. It reads the levels and the phase now,
        before the next collect moves them, and keeps no reference to the rollout."""
        head = (it, float(buf.rewards[:buf.ptr].mean()), mean_lin, sup.loss_op, sup.loss_vp)
        tail = (stats.surrogate, stats.value_loss, stats.entropy, stats.clip_fraction,
                float(np.mean(self.runner.levels())), self.phase.phase,
                float(np.mean(buf.masks == 0)),
                int(buf.terminated[:buf.ptr].sum() + buf.truncated[:buf.ptr].sum()),
                int(buf.collisions[:buf.ptr].sum()), int(stats.adv_norm_skipped))
        masks = buf.masks

        def write(ae: AutoencoderStats) -> None:
            row = head + (ae.loss_ad,) + tail + (sup.rejected_updates + ae.rejected_updates,)
            mfile.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
            for i, kind in enumerate(self.kinds):
                kfile.write(f"{it},{i},{kind},{terrain_class(kind)},{masks[i]}\n")
        return write


def train(cfg: TrainConfig, out_dir: str | Path | None = None) -> TrainResult:
    return Trainer(cfg, out_dir).run()
