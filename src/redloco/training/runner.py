"""Vectorized stepping engine shared by the trainer and the eval harness.

Owns the environments, history buffers, estimator hidden states, and the
10 Hz-analog estimator tick (every ``TICK_PERIOD`` sim steps). The caller
decides the fusion masks each tick, so the trainer can apply the adaptation
schedule while the eval harness runs the anomaly selector or pins a mask.
`VecRunner.capture` takes the runner's state as named arrays and `restore`
puts it back, so a run can continue from any step bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import TrainConfig
from ..errors import ContractError
from ..estimators import (DepthBuffer, EstimatorOutput, OpEstimator, ProprioBuffer,
                          VpEstimator, fuse_batch)
from ..selector.autoencoder import anomaly_scores
from ..sensor import edge_truncate_resize, render_batch
from ..world import OBS_DIM, PROFILE_SAMPLES, BatchWorld, compute_reward, update_curriculum
from ..nn import LayerStack

# sim steps per estimator tick: 10 Hz at the 0.02 s sim step
TICK_PERIOD = 5


@dataclass
class TickData:
    flat_obs: np.ndarray           # (E, H1 * od)
    depth_pairs: np.ndarray        # (E, 2, H, W)
    op_out: EstimatorOutput
    vp_out: EstimatorOutput
    op_rec: dict                   # forward tapes, replayed by the BPTT update
    vp_rec: dict
    v_true: np.ndarray             # (E, 2)
    h_f: np.ndarray                # (E, 2)
    m_t: np.ndarray                # (E, K)
    losses: np.ndarray | None      # (E,) anomaly scores, when an AE is attached
    pair_valid: np.ndarray         # (E,) every buffered frame is a real render
    clean_stage: np.ndarray        # (E,) every buffered frame is randomize-stage only
    resets_before: np.ndarray      # (E,) env reset since the previous tick
    next_obs: np.ndarray | None = None   # (E, od) filled one step later
    loss_valid: np.ndarray | None = None  # (E,) no episode boundary crossed


@dataclass
class StepData:
    rewards: np.ndarray
    lin_vel: np.ndarray            # raw tracking term per env
    terminated: np.ndarray
    truncated: np.ndarray
    resets: np.ndarray
    collisions: np.ndarray


@dataclass
class RunnerState:
    """A `VecRunner` between two steps, as plain named arrays: ``arrays`` maps
    "world.x", "proprio.data", "depth.rendered", "runner.latents" and so on
    to copies of every array of the world, the two history buffers and the
    runner. It holds no networks and no config."""
    arrays: dict[str, np.ndarray]
    rng_states: list[dict]         # each world generator's bit_generator.state
    global_step: int
    phase: int


class VecRunner:
    def __init__(self, cfg: TrainConfig, kinds: list[str],
                 env_rngs: list[np.random.Generator],
                 op: OpEstimator, vp: VpEstimator, ae: LayerStack | None = None,
                 fixed_commands=None, start_levels: list[int] | None = None) -> None:
        self.cfg = cfg
        self.n = len(kinds)
        self.kinds = kinds
        self.op = op
        self.vp = vp
        self.ae = ae
        # eval runs fix each env's command: resets keep it, the curriculum stays put
        self.fixed_commands = fixed_commands
        self.phase = 1
        self.world = BatchWorld(cfg.world, kinds, env_rngs, start_levels)
        if fixed_commands is not None:
            self.world.reset(range(self.n), fixed_commands)
        self.proprio = ProprioBuffer(self.n, cfg.net.history_len)
        self.depth = DepthBuffer(self.n, cfg.camera.height, cfg.camera.width)
        self.op_hidden = op.zero_hidden(self.n)
        self.vp_hidden = vp.zero_hidden(self.n)
        self.latents = np.zeros((self.n, 2 * cfg.net.latent))
        self.m_t_held = np.zeros((self.n, PROFILE_SAMPLES))
        self.obs = np.zeros((self.n, OBS_DIM))
        self.global_step = 0
        self.resets_since_tick = np.ones(self.n, dtype=bool)
        self._last_op_h = np.zeros((self.n, cfg.net.latent))
        self._last_vp_h = np.zeros((self.n, cfg.net.latent))
        self._push_obs()

    def _push_obs(self) -> None:
        self.obs = self.world.observation()
        self.proprio.push(self.obs)

    def v_true(self) -> np.ndarray:
        return np.column_stack([self.world.vx, self.world.vz])

    def levels(self) -> np.ndarray:
        return self.world.level.copy()

    def policy_obs(self) -> np.ndarray:
        return np.concatenate([self.latents, self.obs], axis=1)

    def critic_obs(self) -> np.ndarray:
        return np.concatenate([self.latents, self.obs, self.v_true(), self.m_t_held],
                              axis=1)

    # -- estimator tick ------------------------------------------------------
    def tick_estimators(self, noise_hook=None) -> TickData:
        """One estimator tick. ``noise_hook(frames, step)`` may corrupt the
        (E, H, W) frame stack at sim step ``step``; it returns the stack and
        an (E,) mask of the rows it corrupted."""
        cam = self.cfg.camera
        frames, _ = render_batch(self.world, cam, self.world.rngs, randomize=True)
        frames = edge_truncate_resize(frames, cam.edge_border)
        # deployment corruption lands on the processed image the networks consume
        corrupted = np.zeros(self.n, dtype=bool)
        if noise_hook is not None:
            frames, corrupted = noise_hook(frames, self.global_step)
        self.depth.push(frames, corrupted)
        depth_pairs = self.depth.newest_pair()
        flat_obs = self.proprio.flat()
        pair_valid = self.depth.rendered.all(axis=1)
        clean_stage = self.depth.clean.all(axis=1)
        op_out, op_rec = self.op.forward(flat_obs, self.op_hidden)
        vp_out, vp_rec = self.vp.forward(flat_obs, depth_pairs, self.vp_hidden)
        self.op_hidden = op_out.gru_hidden
        self.vp_hidden = vp_out.gru_hidden
        self._last_op_h = op_out.h
        self._last_vp_h = vp_out.h
        losses = None
        if self.ae is not None:
            recon, _, _ = self.ae.forward(depth_pairs)
            losses = anomaly_scores(depth_pairs, recon)
        priv = self.world.privileged()
        self.m_t_held = priv.m_t
        resets_before = self.resets_since_tick.copy()
        self.resets_since_tick[...] = False
        return TickData(flat_obs, depth_pairs, op_out, vp_out, op_rec, vp_rec, priv.v_true,
                        priv.h_f, priv.m_t, losses, pair_valid, clean_stage, resets_before)

    def set_latents(self, masks: np.ndarray) -> None:
        self.latents = fuse_batch(self._last_op_h, self._last_vp_h, masks)

    # -- one sim step over all envs -------------------------------------------
    def step(self, actions: np.ndarray) -> StepData:
        w = self.world
        ev = w.step(actions)
        reward = compute_reward(w, ev.collision)
        done = ev.done
        ids = np.flatnonzero(done)
        if ids.size:
            if self.fixed_commands is None:
                w.level[ids] = update_curriculum(w.level[ids], w.along[ids],
                                                 w.commanded_distance[ids])
                w.curriculum_phase[ids] = self.phase
            w.reset(ids, None if self.fixed_commands is None
                    else [self.fixed_commands[i] for i in ids])
            self.proprio.reset(ids)
            self.depth.reset(ids)
            # rebind, never write in place: the last tick's tapes and labels
            # hold these arrays until the BPTT update replays them
            keep = ~done[:, None]
            self.op_hidden, self.vp_hidden, self.latents, self.m_t_held = (
                np.where(keep, arr, 0.0)
                for arr in (self.op_hidden, self.vp_hidden, self.latents, self.m_t_held))
            self.resets_since_tick[ids] = True
        self._push_obs()
        self.global_step += 1
        return StepData(reward.total, reward.values["lin_vel_tracking"], ev.terminated,
                        ev.truncated, done, ev.collision)

    def is_tick_step(self) -> bool:
        return self.global_step % TICK_PERIOD == 0

    # -- state as named arrays -------------------------------------------------
    def _parts(self) -> dict:
        return {"world": self.world, "proprio": self.proprio, "depth": self.depth,
                "runner": self}

    def _arrays(self) -> dict[str, np.ndarray]:
        """Every array attribute of the world, the buffers and the runner, by
        name (not copied)."""
        return {f"{part}.{key}": value for part, obj in self._parts().items()
                for key, value in vars(obj).items() if isinstance(value, np.ndarray)}

    def capture(self) -> RunnerState:
        """The runner's state before its next step or tick."""
        return RunnerState({name: arr.copy() for name, arr in self._arrays().items()},
                           [rng.bit_generator.state for rng in self.world.rngs],
                           self.global_step, self.phase)

    def restore(self, state: RunnerState) -> None:
        """Put a capture back. The runner must be built from the same config,
        terrain kinds and estimators; the capture stays reusable."""
        mine = self._arrays()
        if mine.keys() != state.arrays.keys() or len(state.rng_states) != self.n:
            raise ContractError("runner state does not fit this runner: its arrays or "
                                "generators are not this runner's")
        for name, arr in state.arrays.items():
            if arr.shape != mine[name].shape or arr.dtype != mine[name].dtype:
                raise ContractError(f"runner state {name} is {arr.dtype} {arr.shape}, this "
                                    f"runner's is {mine[name].dtype} {mine[name].shape}")
        parts = self._parts()
        for name, arr in state.arrays.items():
            part, _, key = name.partition(".")
            setattr(parts[part], key, arr.copy())
        for rng, rng_state in zip(self.world.rngs, state.rng_states):
            rng.bit_generator.state = rng_state
        self.global_step, self.phase = state.global_step, state.phase
