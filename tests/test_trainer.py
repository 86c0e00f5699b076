"""Rollout bookkeeping, supervised gating, determinism, abort diagnostics."""

import dataclasses
import importlib
import io
import json
import math
import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from redloco.config import desk_config, tiny_config
from redloco.errors import ContractError, RolloutAbort
from redloco.nn import load_checkpoint
from redloco.nn.gradcheck import fd_grad, rel_err
from redloco.selector.autoencoder import PAIR_FRAMES, SelectorConfig, build_autoencoder
from redloco.sensor.camera import MAX_RANGE, MIN_DEPTH
from redloco.training import RolloutBuffer, Trainer, load_bundle, ppo_update, train
from redloco.training.ppo import DISCOUNT, GAE_LAMBDA
from redloco.training.runner import TICK_PERIOD
from redloco.training.supervised import (AE_BATCH, autoencoder_update, clean_pairs,
                                        supervised_update)

trainer_mod = importlib.import_module("redloco.training.trainer")


def test_buffer_holds_exactly_horizon_times_envs_records():
    buf = RolloutBuffer(n_envs=8, horizon=100, obs_dim=5, critic_dim=7)
    for _ in range(100):
        buf.add_step(np.zeros((8, 5)), np.zeros((8, 7)), np.zeros((8, 2)),
                     np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(8),
                     np.zeros(8, bool), np.zeros(8, bool), np.zeros(8, bool))
    assert buf.size == 800
    with pytest.raises(RolloutAbort):
        buf.add_step(np.zeros((8, 5)), np.zeros((8, 7)), np.zeros((8, 2)),
                     np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(8),
                     np.zeros(8, bool), np.zeros(8, bool), np.zeros(8, bool))


def test_gae_matches_reference_recursion():
    buf = RolloutBuffer(n_envs=1, horizon=4, obs_dim=1, critic_dim=1)
    rewards = [1.0, 0.5, -0.2, 2.0]
    values = [0.3, 0.1, 0.4, 0.2]
    for t in range(4):
        buf.add_step(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 2)),
                     np.zeros(1), np.array([values[t]]), np.array([rewards[t]]),
                     np.zeros(1), np.zeros(1, bool), np.zeros(1, bool), np.zeros(1, bool))
    bootstrap = np.array([0.7])
    adv, ret = buf.compute_advantages(bootstrap)
    # reference recursion, coded independently
    assert (DISCOUNT, GAE_LAMBDA) == (0.99, 0.95)
    want = np.zeros(4)
    lastgae = 0.0
    vals = values + [0.7]
    for t in reversed(range(4)):
        delta = rewards[t] + 0.99 * vals[t + 1] - vals[t]
        lastgae = delta + 0.99 * 0.95 * lastgae
        want[t] = lastgae
    np.testing.assert_allclose(adv[:, 0], want, atol=1e-12)
    np.testing.assert_allclose(ret[:, 0], want + np.array(values), atol=1e-12)


def test_termination_cuts_the_advantage_chain():
    buf = RolloutBuffer(n_envs=1, horizon=3, obs_dim=1, critic_dim=1)
    for t, done in enumerate([False, True, False]):
        buf.add_step(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 2)),
                     np.zeros(1), np.array([0.5]), np.array([1.0]), np.zeros(1),
                     np.array([done]), np.zeros(1, bool), np.zeros(1, bool))
    adv, _ = buf.compute_advantages(np.array([0.0]))
    # step 1 is terminal: its advantage sees no bootstrap from step 2
    assert adv[1, 0] == pytest.approx(1.0 - 0.5, abs=1e-12)


class TestTinyTraining:
    def test_two_iterations_produce_two_metric_rows(self, tmp_path):
        cfg = tiny_config()
        cfg.iterations = 2
        res = train(cfg, tmp_path / "run")
        rows = [ln for ln in res.metrics.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("iteration")]
        assert len(rows) == 2
        assert res.checkpoint.exists()

    def test_same_seed_gives_byte_identical_metrics_and_checkpoints(self, tmp_path):
        cfg1 = tiny_config()
        cfg1.iterations = 3
        cfg1.terrain_mix = ("flat", "gap")
        r1 = train(cfg1, tmp_path / "a")
        cfg2 = tiny_config()
        cfg2.iterations = 3
        cfg2.terrain_mix = ("flat", "gap")
        r2 = train(cfg2, tmp_path / "b")
        assert r1.metrics.read_text() == r2.metrics.read_text()
        assert r1.checkpoint.read_bytes() == r2.checkpoint.read_bytes()

    def test_checkpoint_every_writes_a_loadable_checkpoint_per_period(self, tmp_path):
        cfg = tiny_config()
        cfg.checkpoint_every = 1
        res = train(cfg, tmp_path)
        assert (sorted(p.name for p in tmp_path.glob("checkpoint_*.ckpt"))
                == ["checkpoint_1.ckpt", "checkpoint_2.ckpt"])
        for it in (1, 2):
            _, _, meta = load_bundle(tmp_path / f"checkpoint_{it}.ckpt")
            assert meta["iteration"] == it
        last, _ = load_checkpoint(tmp_path / "checkpoint_2.ckpt")
        final, _ = load_checkpoint(res.checkpoint)
        assert list(last) == list(final)
        assert all(np.array_equal(last[k], final[k]) for k in final)

    def test_different_seed_changes_the_run(self, tmp_path):
        cfg1 = tiny_config()
        r1 = train(cfg1, tmp_path / "a")
        cfg2 = tiny_config()
        cfg2.seed = 1
        r2 = train(cfg2, tmp_path / "b")
        assert r1.checkpoint.read_bytes() != r2.checkpoint.read_bytes()

    def test_nan_policy_aborts_with_diagnostics(self, tmp_path):
        cfg = tiny_config()
        tr = Trainer(cfg, tmp_path / "run")
        bad = next(iter(tr.nets.policy.actor.params()))
        bad.values[...] = np.nan
        with pytest.raises(RolloutAbort):
            tr.collect(0)
        dumps = list((tmp_path / "run").glob("diagnostics_*.json"))
        assert dumps
        payload = json.loads(dumps[0].read_text())
        assert payload["schema"] == "rollout-diagnostics/v1"

    def test_a_nan_latent_aborts_before_the_policy_and_names_the_envs(self, tmp_path):
        # a NaN OP head reaches the policy input of the envs on the OP latent
        # (mask 1); the policy and the critic would refuse that input
        tr = Trainer(tiny_config(), tmp_path / "run")
        for p in tr.nets.op.stacks["head_h"].params():
            p.values[...] = np.nan
        with pytest.raises(RolloutAbort, match="at iteration 0; see .*diagnostics_iter0"):
            tr.collect(0)
        payload = json.loads((tmp_path / "run" / "diagnostics_iter0.json").read_text())
        op_envs = np.flatnonzero(tr.schedule.masks(0) == 1).tolist()
        assert op_envs and payload["bad_obs_envs"] == op_envs
        assert payload["bad_action_envs"] == []


def recompute_tapes(op, vp, ticks, op_h0, vp_h0):
    """Reference for the tapes a rollout's ticks record: both estimators run
    forward again over the tick sequence from the hiddens before the first
    tick, with the hidden chain cut at every reset."""
    out = []
    op_h, vp_h = op_h0, vp_h0
    for tk in ticks:
        keep = (~tk.resets_before)[:, None]
        op_out, op_rec = op.forward(tk.flat_obs, op_h * keep)
        vp_out, vp_rec = vp.forward(tk.flat_obs, tk.depth_pairs, vp_h * keep)
        op_h, vp_h = op_out.gru_hidden, vp_out.gru_hidden
        out.append(dataclasses.replace(tk, op_out=op_out, op_rec=op_rec,
                                       vp_out=vp_out, vp_rec=vp_rec))
    return out


def collect_with_hiddens(tr, iteration=0):
    """One rollout, with the estimator hiddens it started from."""
    op_h0, vp_h0 = tr.runner.op_hidden.copy(), tr.runner.vp_hidden.copy()
    buf, _ = tr.collect(iteration)
    return buf, op_h0, vp_h0


class GradGrab:
    """Stands in for an optimizer: keeps the accumulated grads, moves no weight."""

    def __init__(self, params):
        self.params = list(params)
        self.grads = None

    def step(self):
        self.grads = [p.grad.copy() for p in self.params]
        for p in self.params:
            p.zero_grad()
        return 0


def _arrays(obj):
    """Every array reachable from a tick record (tapes, outputs, labels)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


class TestTapeReplay:
    def _short_episode_trainer(self, tmp_path):
        cfg = tiny_config()
        cfg.world.episode_steps = 7          # resets fall between ticks
        cfg.horizon = 32
        return Trainer(cfg, tmp_path / "run")

    def _grads(self, tr, ticks, masks):
        grabs = [GradGrab(net.params()) for net in (tr.nets.op, tr.nets.vp, tr.nets.him)]
        stats = supervised_update(tr.nets.op, tr.nets.vp, tr.nets.him, *grabs, ticks, masks)
        return stats, [g.grads for g in grabs]

    def test_replayed_tapes_give_the_grads_of_a_recompute(self, tmp_path):
        tr = self._short_episode_trainer(tmp_path)
        tr.collect(0)                         # carry hiddens into the next rollout
        buf, op_h0, vp_h0 = collect_with_hiddens(tr, 1)
        vision = np.zeros_like(buf.masks)    # every row trains the vision estimator
        assert any(tk.resets_before.any() for tk in buf.ticks)
        assert op_h0.any() and vp_h0.any()   # the chain starts mid-episode
        reference = recompute_tapes(tr.nets.op, tr.nets.vp, buf.ticks, op_h0, vp_h0)
        got_stats, got = self._grads(tr, buf.ticks, vision)
        want_stats, want = self._grads(tr, reference, vision)
        assert (got_stats.loss_op, got_stats.loss_vp) == (want_stats.loss_op, want_stats.loss_vp)
        assert got_stats.n_vp_rows > 0
        for net_got, net_want in zip(got, want):
            for g, w in zip(net_got, net_want):
                assert np.array_equal(g, w)

    def test_reset_after_a_tick_leaves_its_tapes_unchanged(self, tmp_path):
        tr = self._short_episode_trainer(tmp_path)
        runner = tr.runner
        n = tr.cfg.n_envs
        runner.tick_estimators()
        for _ in range(TICK_PERIOD):
            runner.step(np.zeros((n, 2)))
        tick = runner.tick_estimators()       # hiddens are non-zero from here on
        assert tick.op_out.gru_hidden.any() and tick.vp_out.gru_hidden.any()
        before = [a.copy() for a in _arrays(tick)]
        resets = np.zeros(n, dtype=bool)
        for _ in range(TICK_PERIOD - 1):
            resets |= runner.step(np.zeros((n, 2))).resets
        assert resets.any()
        after = list(_arrays(tick))
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


class TestSupervisedGating:
    def _setup(self, tmp_path):
        cfg = tiny_config()
        tr = Trainer(cfg, tmp_path / "run")
        buf, _ = tr.collect(0)
        return tr, buf

    def test_all_proprio_masks_skip_the_vision_update(self, tmp_path):
        tr, buf = self._setup(tmp_path)
        before = [p.values.copy() for p in tr.nets.vp.params()]
        stats = supervised_update(tr.nets.op, tr.nets.vp, tr.nets.him,
                                  tr.op_opt, tr.vp_opt, tr.him_opt, buf.ticks,
                                  np.ones_like(buf.masks))
        assert stats.n_vp_rows == 0
        assert np.isnan(stats.loss_vp)
        for p, b in zip(tr.nets.vp.params(), before):
            np.testing.assert_array_equal(p.values, b)

    def test_a_rollout_stores_its_mask_row_once(self, tmp_path):
        tr, buf = self._setup(tmp_path)
        assert buf.masks.shape == (tr.cfg.n_envs,) and buf.masks.dtype == np.int64
        assert buf.masks.tolist() == tr.schedule.masks(0).tolist()

    def test_deployment_noised_pairs_never_reach_the_autoencoder(self, tmp_path):
        tr, buf = self._setup(tmp_path)
        for tick in buf.ticks:
            tick.clean_stage[...] = False   # as if every pair were deployment-noised
        before = [p.values.copy() for p in tr.nets.ae.params()]
        stats = autoencoder_update(tr.nets.ae, tr.ae_opt, clean_pairs(buf.ticks), tr.ae_rng)
        assert stats.n_ae_pairs == 0
        for p, b in zip(tr.nets.ae.params(), before):
            np.testing.assert_array_equal(p.values, b)

    def test_a_second_update_on_one_rollout_refuses_its_stale_tapes(self, tmp_path):
        tr, buf = self._setup(tmp_path)
        args = (tr.nets.op, tr.nets.vp, tr.nets.him, tr.op_opt, tr.vp_opt, tr.him_opt,
                buf.ticks, buf.masks)
        supervised_update(*args)
        # the first update stepped the weights the tapes were recorded under
        with pytest.raises(ContractError, match="stepped"):
            supervised_update(*args)

    def test_losses_drop_when_overfitting_a_frozen_rollout(self, tmp_path):
        tr = Trainer(tiny_config(), tmp_path / "run")
        buf, op_h0, vp_h0 = collect_with_hiddens(tr)
        first = last = first_ae = last_ae = None
        for k in range(60):
            # the update replays tapes, so each pass records them under the new weights
            ticks = recompute_tapes(tr.nets.op, tr.nets.vp, buf.ticks, op_h0, vp_h0)
            stats = supervised_update(tr.nets.op, tr.nets.vp, tr.nets.him,
                                      tr.op_opt, tr.vp_opt, tr.him_opt, ticks, buf.masks)
            ae_stats = autoencoder_update(tr.nets.ae, tr.ae_opt, clean_pairs(ticks), tr.ae_rng)
            if k == 0:
                first, first_ae = stats, ae_stats
            last, last_ae = stats, ae_stats
        assert last.loss_op < first.loss_op
        assert last_ae.loss_ad < first_ae.loss_ad


def test_autoencoder_update_applies_the_gradient_of_its_weighted_loss():
    # the applied gradient is that of mean_i(w_i * per_i) over the pool's
    # pairs, each weight w_i = per_i / mean(per) held at its first-forward value
    rng = np.random.default_rng(41)
    ae = build_autoencoder(SelectorConfig(ae_channels=(2, 2, 2), ae_bottleneck=4), 4, 4, rng)
    pool = rng.uniform(MIN_DEPTH, MAX_RANGE, (5, PAIR_FRAMES, 4, 4))
    assert len(pool) <= AE_BATCH       # the whole pool in every step, no draw
    grab = GradGrab(ae.params())       # moves no weight, so every step's grads agree
    autoencoder_update(ae, grab, pool, np.random.default_rng(0))

    def per_pair():
        recon, _, _ = ae.forward(pool)
        diff = recon - pool
        return np.mean(diff * diff, axis=(1, 2, 3))

    per = per_pair()
    weight = per / per.mean()
    worst = max(rel_err(got, fd_grad(lambda: float(np.mean(weight * per_pair())), p.values))
                for p, got in zip(grab.params, grab.grads))
    assert worst < 1e-4


class Boom(Exception):
    """Raised by a patched update; module-level, so it crosses the lane's pipe."""


class TestUpdateLanes:
    OPTIMIZERS = ("policy_opt", "critic_opt", "op_opt", "vp_opt", "him_opt", "ae_opt")

    def test_lanes_give_the_bits_of_serial_updates(self, tmp_path):
        # 32 envs pool more clean pairs than one autoencoder batch holds, so
        # every update draws its batches from ae_rng
        lanes = Trainer(desk_config(seed=5, iterations=3, n_envs=32), tmp_path / "lanes")
        serial = Trainer(desk_config(seed=5, iterations=3, n_envs=32), tmp_path / "serial")
        unmoved = serial.ae_rng.bit_generator.state
        cfg = serial.cfg
        rows = io.StringIO()
        for it in range(cfg.iterations):
            serial.runner.phase = serial.phase.phase
            buf, bootstrap = serial.collect(it)
            adv, ret = buf.compute_advantages(bootstrap)
            stats = ppo_update(serial.nets.policy, serial.nets.critic, serial.policy_opt,
                               serial.critic_opt, buf.flat(buf.obs),
                               buf.flat(buf.critic_obs), buf.flat(buf.actions),
                               buf.flat(buf.log_probs), adv.reshape(-1), ret.reshape(-1),
                               serial.shuffle_rng)
            sup = supervised_update(serial.nets.op, serial.nets.vp, serial.nets.him,
                                    serial.op_opt, serial.vp_opt, serial.him_opt, buf.ticks,
                                    buf.masks)
            ae = autoencoder_update(serial.nets.ae, serial.ae_opt, clean_pairs(buf.ticks),
                                    serial.ae_rng)
            mean_lin = float(buf.lin_vel[:buf.ptr].mean())
            serial.phase.update(it, mean_lin)
            serial._row_writer(rows, io.StringIO(), it, buf, stats, sup, mean_lin)(ae)
        rows = rows.getvalue().splitlines(keepends=True)
        assert serial.ae_rng.bit_generator.state != unmoved
        res = lanes.run()
        got = res.metrics.read_text().splitlines(keepends=True)[2:]
        assert got == rows
        # the autoencoder trained in every iteration, so the lanes overlapped
        loss_ad = trainer_mod.METRICS_COLUMNS.index("loss_ad")
        assert all(math.isfinite(float(r.split(",")[loss_ad])) for r in got)
        for name in self.OPTIMIZERS:
            a, b = getattr(lanes, name), getattr(serial, name)
            for arena in ("values", "moment1", "moment2"):
                assert np.array_equal(getattr(a, arena), getattr(b, arena)), (name, arena)
            assert a.rejected == b.rejected, name
            assert ([p.step_count for p in a.params]
                    == [p.step_count for p in b.params]), name
        # the lane's state came back: its generator stands where the serial one does
        assert lanes.ae_rng.bit_generator.state == serial.ae_rng.bit_generator.state
        assert all(p.step_count == 3 * 4 for p in lanes.ae_opt.params)

    @staticmethod
    def _track_open(monkeypatch):
        """The files the trainer opens, as it opens them."""
        opened = []

        def tracked_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(trainer_mod, "open", tracked_open, raising=False)
        return opened

    @staticmethod
    def _assert_left_clean(opened, threads):
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
        assert [Path(f.name).name for f in opened] == ["metrics.csv", "masks.csv"]
        assert all(f.closed for f in opened)

    @pytest.mark.parametrize("target", ["autoencoder_update", "ppo_update"])
    def test_a_failing_update_is_raised_after_the_lane_is_joined(self, tmp_path,
                                                                 monkeypatch, target):
        def boom(*args, **kwargs):
            raise Boom(target)

        opened = self._track_open(monkeypatch)
        monkeypatch.setattr(trainer_mod, target, boom)
        threads = threading.active_count()
        with pytest.raises(Boom, match=target):
            Trainer(tiny_config(), tmp_path).run()
        self._assert_left_clean(opened, threads)

    def test_an_error_that_cannot_cross_the_pipe_comes_back_by_name(self, tmp_path,
                                                                    monkeypatch):
        class LocalBoom(Exception):
            pass

        def boom(*args, **kwargs):
            raise LocalBoom("the pool was bad")

        opened = self._track_open(monkeypatch)
        monkeypatch.setattr(trainer_mod, "autoencoder_update", boom)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="LocalBoom: the pool was bad") as info:
            Trainer(tiny_config(), tmp_path).run()
        assert info.match("Traceback")
        self._assert_left_clean(opened, threads)

    def test_a_dead_lane_is_raised_with_its_exit_code(self, tmp_path, monkeypatch):
        opened = self._track_open(monkeypatch)
        monkeypatch.setattr(trainer_mod, "autoencoder_update", lambda *args: os._exit(3))
        threads = threading.active_count()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="exit code 3"):
            Trainer(tiny_config(), tmp_path).run()
        assert time.monotonic() - t0 < 30
        self._assert_left_clean(opened, threads)

    def test_an_abort_in_the_next_collect_keeps_the_previous_row(self, tmp_path,
                                                                  monkeypatch):
        cfg = tiny_config()
        res = train(cfg, tmp_path / "whole")
        whole = res.metrics.read_text().splitlines(keepends=True)
        whole_masks = res.masks_log.read_text().splitlines(keepends=True)
        collect = Trainer.collect

        def abort_second(tr, iteration):
            if iteration == 1:     # iteration 0's autoencoder update is out by now
                raise RolloutAbort("forced at iteration 1")
            return collect(tr, iteration)

        monkeypatch.setattr(Trainer, "collect", abort_second)
        with pytest.raises(RolloutAbort, match="forced"):
            Trainer(tiny_config(), tmp_path / "aborted").run()
        assert multiprocessing.active_children() == []
        got = (tmp_path / "aborted" / "metrics.csv").read_text().splitlines(keepends=True)
        assert got == whole[:3]
        got_masks = (tmp_path / "aborted" / "masks.csv").read_text().splitlines(keepends=True)
        assert got_masks == whole_masks[:2 + cfg.n_envs]


def test_mask_log_matches_schedule(tmp_path):
    cfg = tiny_config()
    cfg.iterations = 4
    cfg.terrain_mix = ("flat", "gap")
    res = train(cfg, tmp_path / "run")
    rows = [ln.split(",") for ln in res.masks_log.read_text().splitlines()[2:]]
    assert len(rows) == 4 * cfg.n_envs
    for it, env, kind, cls, mask in rows:
        if cls == "difficult":
            assert mask == "0"
