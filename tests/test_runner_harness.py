"""Vectorized runner mechanics and harness plumbing on tiny checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

from redloco.config import tiny_config
from redloco.errors import ContractError
from redloco.harness import (ExperimentSpec, NoiseEvent, run_episode, run_noise_robustness,
                             run_trace, switch_delay_text)
from redloco.harness.protocols import _make_noise_hook, max_switch_delay
from redloco.sensor.camera import STAGE_DEPLOYMENT, STAGE_RANDOMIZED
from redloco.training import Trainer, load_bundle, train
from redloco.training.runner import VecRunner
from redloco.world import make_command


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    cfg = tiny_config()
    cfg.iterations = 3
    cfg.terrain_mix = ("flat",)
    out = tmp_path_factory.mktemp("tiny_ckpt")
    return train(cfg, out).checkpoint


class TestRunner:
    def _runner(self, n=3, ae=False, cfg=None):
        cfg = cfg or tiny_config()
        tr = Trainer(cfg, "/tmp/_unused_runner")
        rngs = [np.random.default_rng([9, i]) for i in range(n)]
        return cfg, VecRunner(cfg, ["flat"] * n, rngs, tr.nets.op, tr.nets.vp,
                              ae=tr.nets.ae if ae else None)

    def test_tick_marks_warmup_pairs_invalid_then_valid(self):
        _, runner = self._runner()
        t1 = runner.tick_estimators()
        assert not t1.pair_valid.any()      # one real frame, one zero pad
        runner.set_latents(np.zeros(3, dtype=np.int64))
        for _ in range(5):
            runner.step(np.zeros((3, 2)))
        t2 = runner.tick_estimators()
        assert t2.pair_valid.all()
        assert t2.clean_stage.all()

    def test_reset_zeroes_hiddens_buffers_and_latents(self):
        cfg, runner = self._runner()
        runner.tick_estimators()
        runner.set_latents(np.ones(3, dtype=np.int64))
        for _ in range(cfg.world.episode_steps + 1):
            sd = runner.step(np.zeros((3, 2)))
            if sd.resets.any():
                break
        assert sd.resets.all()              # lockstep timeout
        assert (runner.op_hidden == 0).all()
        assert (runner.latents == 0).all()
        tick = runner.tick_estimators()
        assert tick.resets_before.all()
        assert not tick.pair_valid.any()

    def test_one_noisy_tick_taints_exactly_the_next_depth_frames_ticks(self):
        cfg, runner = self._runner()
        period = cfg.selector.tick_period
        noisy = 2 * period                   # the third tick
        rngs = [np.random.default_rng([4, i]) for i in range(3)]
        hook = _make_noise_hook([NoiseEvent("gaussian", 30.0, noisy, noisy + 1)], rngs,
                                cfg.camera)
        clean = []
        for step in range(0, 8 * period):
            if runner.is_tick_step():
                tick = runner.tick_estimators(hook)
                assert tick.pair_valid.all() == (step > 0)
                clean.append(bool(tick.clean_stage.all()) if step > 0 else None)
                assert tick.clean_stage.any() == tick.clean_stage.all()
                runner.set_latents(np.zeros(3, dtype=np.int64))
            assert not runner.step(np.zeros((3, 2))).resets.any()
        taint = cfg.net.depth_frames
        assert clean == [None, True] + [False] * taint + [True] * (6 - taint)

    def test_a_later_reset_leaves_the_stored_tick_labels_alone(self):
        # 14-step episodes reset 3 and then 2 steps after a tick
        cfg = tiny_config()
        cfg.world.episode_steps = 14
        _, runner = self._runner(cfg=cfg)
        ticks, late_resets = [], 0
        for step in range(30):
            if runner.is_tick_step():
                tick = runner.tick_estimators()
                ticks.append((tick, tick.m_t.copy()))
                last_tick = step
                runner.set_latents(np.zeros(3, dtype=np.int64))
            resets = runner.step(np.zeros((3, 2))).resets
            late_resets += bool(resets.any()) and step - last_tick >= 2
        assert late_resets == 2
        for tick, m_t in ticks:
            assert (m_t != 0).any()
            np.testing.assert_array_equal(tick.m_t, m_t)

    def test_anomaly_losses_need_an_attached_autoencoder(self):
        _, plain = self._runner(ae=False)
        assert plain.tick_estimators().losses is None
        _, with_ae = self._runner(ae=True)
        assert with_ae.tick_estimators().losses is not None

    def test_policy_obs_width_is_constant_across_mask_flips(self):
        _, runner = self._runner()
        runner.tick_estimators()
        widths = set()
        for mask in (0, 1, 0, 1):
            runner.set_latents(np.full(3, mask, dtype=np.int64))
            widths.add(runner.policy_obs().shape[1])
        assert len(widths) == 1


class TestHarness:
    def test_deployment_noise_hook_changes_frame_stage(self, tiny_ckpt):
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=0.5, robots=2, steps=30,
                              seed=4, noise_events=[NoiseEvent("occlusion", 0.0, 0)])
        ep = run_episode(cfg, nets, spec, "vp_only")
        assert ep.vx.shape == (30, 2)

    def test_trace_line_count_is_ticks_plus_steps(self, tiny_ckpt, tmp_path):
        steps = 60
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=0.5, robots=1, steps=steps,
                              seed=4, noise_events=[NoiseEvent("occlusion", 0.0, 30, 45)])
        summary = run_trace(spec, tmp_path)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == summary["tick_lines"] + steps
        kinds = {json.loads(ln)["kind"] for ln in lines}
        assert kinds == {"tick", "step"}
        for ln in lines:
            assert "schema" in json.loads(ln)

    def test_occlusion_mid_run_drives_mode_to_op(self, tiny_ckpt, tmp_path):
        # beta tiny so the untrained autoencoder flags the occluded frames
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e-9, robots=1, steps=120,
                              seed=4, noise_events=[NoiseEvent("occlusion", 0.0, 30)])
        summary = run_trace(spec, tmp_path)
        assert summary["final_mode"] == "OP"
        assert summary["mode_flips"] >= 1

    def test_arm_names_validated(self, tiny_ckpt):
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=0.5, robots=1, steps=10, seed=0)
        with pytest.raises(ContractError):
            run_episode(cfg, nets, spec, "both")

    def test_noise_event_bounds_validated(self, tiny_ckpt):
        with pytest.raises(ContractError):
            ExperimentSpec("t", str(tiny_ckpt), beta=0.5, steps=100,
                           noise_events=[NoiseEvent("gaussian", 30.0, 150)])

    def test_same_spec_same_outputs(self, tiny_ckpt, tmp_path):
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=0.5, robots=2, steps=40,
                              seed=13, noise_events=[NoiseEvent("salt_pepper", 70.0, 20)])
        cfg, nets, _ = load_bundle(tiny_ckpt)
        a = run_episode(cfg, nets, spec, "auto")
        cfg2, nets2, _ = load_bundle(tiny_ckpt)
        b = run_episode(cfg2, nets2, spec, "auto")
        assert a.vx.tobytes() == b.vx.tobytes()
        assert a.losses.tobytes() == b.losses.tobytes()


class TestNoiseProtocolReport:
    def test_max_delay_needs_every_robot_to_switch(self):
        assert max_switch_delay([7, 9, 8]) == 9
        assert max_switch_delay([7, -1, 8]) == -1
        assert max_switch_delay([]) == -1

    def test_unswitched_robots_are_reported_and_velocities_are_plain_floats(
            self, tiny_ckpt, tmp_path):
        # a huge beta means no tick votes anomalous, so no robot switches
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e9, robots=2, steps=410,
                              noise_onset=150, seed=2)
        summary = run_noise_robustness(spec, tmp_path, conditions=(("gaussian", 30.0),))
        cond = summary["conditions"][0]
        assert cond["switch_delay_ticks"] == [-1, -1]
        assert cond["max_switch_delay_ticks"] == -1
        assert switch_delay_text(cond) == "2/2 robots never switched"
        lines = (tmp_path / "velocity_gaussian_30.csv").read_text().splitlines()
        assert len(lines) == 2 + spec.steps
        for line in lines[2:]:
            step, auto, vp = line.split(",")
            assert int(step) >= 0
            assert np.isfinite(float(auto)) and np.isfinite(float(vp))
