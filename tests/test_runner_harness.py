"""Vectorized runner mechanics and harness plumbing on tiny checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

from redloco.config import tiny_config
from redloco.errors import ContractError
from redloco.harness import (ExperimentSpec, NoiseEvent, calibrate_beta_run, run_episode,
                             run_gamma_sweep, run_noise_robustness, run_trace,
                             switch_delay_text)
from redloco.harness import protocols
from redloco.harness.protocols import _make_noise_hook, max_switch_delay, switch_delays
from redloco.selector.autoencoder import PAIR_FRAMES
from redloco.sensor import inject_gaussian, inject_occlusion, inject_salt_pepper
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
        taint = PAIR_FRAMES
        assert clean == [None, True] + [False] * taint + [True] * (6 - taint)

    def test_noise_hook_draws_robot_by_robot_in_event_order(self):
        cam = tiny_config().camera
        events = [NoiseEvent("gaussian", 60.0, 5, 20), NoiseEvent("salt_pepper", 40.0, 10),
                  NoiseEvent("occlusion", 0.0, 30, 35)]
        hook_rngs = [np.random.default_rng([4, i]) for i in range(3)]
        hook = _make_noise_hook(events, hook_rngs, cam)
        ref_rngs = [np.random.default_rng([4, i]) for i in range(3)]
        frames = np.random.default_rng(8).uniform(0.2, 1.8, (3, cam.height, cam.width))
        for step in range(0, 40, 5):
            want = frames.copy()
            for i, rng in enumerate(ref_rngs):
                for ev in events:
                    if not ev.active(step):
                        continue
                    if ev.kind == "gaussian":
                        want[i] = inject_gaussian(want[i], ev.level, rng, cam.max_range,
                                                  cam.min_depth)
                    elif ev.kind == "salt_pepper":
                        want[i] = inject_salt_pepper(want[i], ev.level, rng, cam.max_range,
                                                     cam.min_depth)
                    else:
                        want[i] = inject_occlusion(want[i], cam.min_depth)
            got, corrupted = hook(frames.copy(), step)
            assert got.tobytes() == want.tobytes(), step
            assert corrupted.tolist() == [any(ev.active(step) for ev in events)] * 3
        assert ([r.bit_generator.state for r in hook_rngs]
                == [r.bit_generator.state for r in ref_rngs])

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
        with pytest.raises(ContractError):
            run_episode(cfg, nets, spec, "op_only")

    def test_noise_event_bounds_validated(self, tiny_ckpt):
        with pytest.raises(ContractError):
            ExperimentSpec("t", str(tiny_ckpt), beta=0.5, steps=100,
                           noise_events=[NoiseEvent("gaussian", 30.0, 150)])

    def test_spec_refuses_an_uncalibrated_beta_and_a_gamma_outside_the_unit_interval(self):
        for beta, gamma in ((float("nan"), 0.1), (float("inf"), 0.1), (0.5, 0.0), (0.5, 1.5)):
            with pytest.raises(ContractError):
                ExperimentSpec("t", "unused.ckpt", beta=beta, gamma=gamma)

    def test_unknown_noise_kind_is_refused_when_the_event_is_built(self):
        with pytest.raises(ContractError, match="'smoke'"):
            NoiseEvent("smoke", 30.0, 10)
        with pytest.raises(ContractError, match="outside"):
            NoiseEvent("gaussian", 130.0, 10)

    @pytest.mark.parametrize("offset", [200, 300])
    def test_a_noise_window_must_end_after_its_onset(self, offset):
        with pytest.raises(ContractError, match=f"ends at step {offset}, at or before its "
                                                f"onset 300"):
            NoiseEvent("occlusion", 0.0, 300, offset)
        assert NoiseEvent("occlusion", 0.0, 300, 301).active(300)

    def test_same_spec_same_outputs(self, tiny_ckpt, tmp_path):
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=0.5, robots=2, steps=40,
                              seed=13, noise_events=[NoiseEvent("salt_pepper", 70.0, 20)])
        cfg, nets, _ = load_bundle(tiny_ckpt)
        a = run_episode(cfg, nets, spec, "auto")
        cfg2, nets2, _ = load_bundle(tiny_ckpt)
        b = run_episode(cfg2, nets2, spec, "auto")
        assert a.vx.tobytes() == b.vx.tobytes()
        assert a.losses.tobytes() == b.losses.tobytes()

    def test_calibration_drives_the_deployment_loop_without_run_episode(
            self, tiny_ckpt, monkeypatch):
        # a benchmark that times each run_episode call as one operation would
        # count calibration's robot-steps twice if calibration went through it
        def refuse(*_args):
            raise AssertionError("calibration called run_episode")
        monkeypatch.setattr(protocols, "run_episode", refuse)
        res = calibrate_beta_run(tiny_ckpt, episodes=3, seed=1, steps=40)
        assert res["losses_count"] == len(res["losses"]) > 0
        assert res["beta"] == max(res["losses"])


class TestNoiseProtocolReport:
    def test_max_delay_needs_every_robot_to_switch(self):
        assert max_switch_delay([7, 9, 8]) == 9
        assert max_switch_delay([7, -1, 8]) == -1
        assert max_switch_delay([]) == -1

    def test_switch_delays_count_from_the_onset_tick(self):
        # ticks at steps 0, 5, ..., 35; onset 12 falls before the tick at step 15
        modes = np.array([[0, 1, 1], [1, 1, 1], [1, 1, 1], [1, 0, 1],
                          [0, 1, 1], [1, 0, 1], [0, 0, 1], [0, 0, 1]])
        delays, shares = switch_delays(modes, list(range(0, 40, 5)), 12)
        assert delays.tolist() == [2, 1, -1]
        assert shares.tolist() == [3 / 4, 4 / 5, 0.0]

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

    def test_a_sweep_where_no_robot_switches_writes_strict_json(self, tiny_ckpt, tmp_path):
        # a huge beta means no robot switches, so no switch delay has a mean
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e9, robots=2, steps=560, seed=0)
        res = run_gamma_sweep(spec, [0.1, 1.0], tmp_path)

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")
        strict = json.loads((tmp_path / "gamma_sweep.json").read_text(),
                            parse_constant=refuse)
        assert strict == res
        assert [r["mean_delay_ticks"] for r in res["rows"]] == [None, None]
        rows = (tmp_path / "gamma_sweep.csv").read_text().splitlines()[2:]
        assert [row.split(",")[3] for row in rows] == ["nan", "nan"]
