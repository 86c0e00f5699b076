"""Vectorized runner mechanics and harness plumbing on tiny checkpoints."""

import dataclasses
import json
import tempfile

import numpy as np
import pytest

from redloco.config import desk_config, tiny_config
from redloco.errors import ContractError
from redloco.harness import (ExperimentSpec, NoiseEvent, calibrate_beta_run, clean_prefix,
                             run_episode, run_gamma_sweep, run_noise_robustness, run_trace,
                             switch_delay_text)
from redloco.harness import protocols
from redloco.harness.protocols import _make_noise_hook, max_switch_delay, switch_delays
from redloco.selector.autoencoder import PAIR_FRAMES
from redloco.sensor import inject_gaussian, inject_occlusion, inject_salt_pepper
from redloco.training import Trainer, build_networks, load_bundle, train
from redloco.training.runner import TICK_PERIOD, VecRunner


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
        with tempfile.TemporaryDirectory() as unused:
            tr = Trainer(cfg, unused)
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
        _, runner = self._runner()
        period = TICK_PERIOD
        noisy = 2 * period                   # the third tick
        rngs = [np.random.default_rng([4, i]) for i in range(3)]
        hook = _make_noise_hook([NoiseEvent("gaussian", 30.0, noisy, noisy + 1)], rngs)
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
        hook = _make_noise_hook(events, hook_rngs)
        ref_rngs = [np.random.default_rng([4, i]) for i in range(3)]
        frames = np.random.default_rng(8).uniform(0.2, 1.8, (3, cam.height, cam.width))
        for step in range(0, 40, 5):
            want = frames.copy()
            for i, rng in enumerate(ref_rngs):
                for ev in events:
                    if not ev.active(step):
                        continue
                    if ev.kind == "gaussian":
                        want[i] = inject_gaussian(want[i], ev.level, rng)
                    elif ev.kind == "salt_pepper":
                        want[i] = inject_salt_pepper(want[i], ev.level, rng)
                    else:
                        want[i] = inject_occlusion(want[i])
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


class TestCaptureRestore:
    """A runner captured as named arrays continues bit for bit once restored."""

    @pytest.fixture(scope="class")
    def desk(self):
        cfg = desk_config(n_envs=8)
        cfg.world.episode_steps = 23       # every env times out, and resets, at step 23
        return cfg, build_networks(cfg, np.random.default_rng(0))

    @staticmethod
    def _runner(desk, seed):
        cfg, nets = desk
        mix = list(cfg.terrain_mix)
        kinds = [mix[i % len(mix)] for i in range(cfg.n_envs)]
        rngs = [np.random.default_rng([seed, i]) for i in range(cfg.n_envs)]
        return VecRunner(cfg, kinds, rngs, nets.op, nets.vp)

    @staticmethod
    def _advance(runner, desk):
        """One sim step on the policy mean, after a tick when one is due."""
        if runner.is_tick_step():
            runner.tick_estimators()
            runner.set_latents(np.arange(runner.n) % 2)
        actions = np.clip(desk[1].policy.mean(runner.policy_obs()), -1.0, 1.0)
        return runner.step(actions)

    def test_a_restored_capture_replays_the_run_bit_for_bit(self, desk):
        runner = self._runner(desk, seed=1)
        runner.phase = 2                   # curriculum resets draw phase-2 commands
        # 0 and 10 are tick steps, 23 comes right after the timeout resets
        ks, m = (0, 10, 23, 31), 50
        captures, reset_steps = {}, []
        while runner.global_step < m:
            if runner.global_step in ks:
                captures[runner.global_step] = runner.capture()
            if self._advance(runner, desk).resets.any():
                reset_steps.append(runner.global_step)
        assert 23 in reset_steps and sorted(captures) == list(ks)
        want = runner.capture()
        for k, state in captures.items():
            # other generators and a phase-1 start: the capture must overwrite all of it
            fresh = self._runner(desk, seed=2)
            fresh.restore(state)
            while fresh.global_step < m:
                self._advance(fresh, desk)
            got = fresh.capture()
            assert got.arrays.keys() == want.arrays.keys()
            for name, arr in want.arrays.items():
                assert np.array_equal(got.arrays[name], arr), (k, name)
            assert got.rng_states == want.rng_states, k
            assert (got.global_step, got.phase) == (m, 2)

    def test_the_capture_holds_every_array_of_the_world_the_buffers_and_the_runner(
            self, desk):
        runner = self._runner(desk, seed=1)
        for _ in range(7):
            self._advance(runner, desk)
        state = runner.capture()
        parts = {"world": runner.world, "proprio": runner.proprio, "depth": runner.depth,
                 "runner": runner}
        names = [f"{part}.{key}" for part, obj in parts.items()
                 for key, value in vars(obj).items() if isinstance(value, np.ndarray)]
        assert sorted(state.arrays) == sorted(names)
        for name in names:
            part, _, key = name.partition(".")
            live = getattr(parts[part], key)
            assert state.arrays[name] is not live and np.array_equal(state.arrays[name], live)
        assert state.rng_states == [rng.bit_generator.state for rng in runner.world.rngs]
        assert (state.global_step, state.phase) == (7, 1)

    def test_a_capture_of_other_robots_is_refused(self, desk):
        cfg, nets = desk
        small = VecRunner(cfg, ["flat"] * 3, [np.random.default_rng(i) for i in range(3)],
                          nets.op, nets.vp)
        with pytest.raises(ContractError, match="does not fit"):
            self._runner(desk, seed=1).restore(small.capture())


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


def _files(d):
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*"))}


def _assert_same_episode(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


class TestFork:
    """The noise protocol and the gamma sweep run their clean prefix once and
    fork every arm, condition and gamma from it; the reference runs each of
    them from step 0."""
    ROBOTS, SEED, ONSET = 3, 3, 152        # 152 is off the 5-step tick grid

    @pytest.fixture(scope="class")
    def betas(self, tiny_ckpt):
        """Betas at which the prefix reaches the first tick at or after the
        onset, stops after the first valid tick, and stops at it."""
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e9, robots=self.ROBOTS, steps=560,
                              seed=self.SEED)
        scores = clean_prefix(cfg, nets, spec, 200).episode.losses
        first_valid = np.nanmax(scores[1])            # tick 0 has no valid pair
        return {"full": 1.01 * float(np.nanmax(scores)),
                "midway": float(np.nextafter(first_valid, np.inf)), "first": 1e-9}

    @staticmethod
    def _run(monkeypatch, protocol, forked):
        """Runs ``protocol()`` forked, or with every episode from step 0; returns
        its (spec, arm, episode) calls and the forks of the prefixes built."""
        calls, forks, building = [], [], []
        run, build = protocols.run_episode, protocols.clean_prefix

        def recorded(cfg, nets, spec, arm):
            assert not building, "the prefix builder called run_episode"
            calls.append((spec, arm, run(cfg, nets, spec, arm)))
            return calls[-1][2]

        def prefix(*args):
            building.append(True)
            start = build(*args)
            building.pop()
            forks.append(start.fork)
            return start if forked else None
        with monkeypatch.context() as m:
            m.setattr(protocols, "run_episode", recorded)
            m.setattr(protocols, "clean_prefix", prefix)
            protocol()
        return calls, forks

    def _compare(self, tmp_path, monkeypatch, protocol):
        """The forked run's files and episodes equal the reference's; returns
        the forked run's calls and its one fork."""
        runs = {}
        for forked in (True, False):
            out = tmp_path / ("forked" if forked else "reference")
            runs[forked] = (*self._run(monkeypatch, lambda: protocol(out), forked), _files(out))
        (calls, forks, files), (ref_calls, ref_forks, ref_files) = runs[True], runs[False]
        assert files == ref_files and len(files) > 0
        assert len(forks) == 1 and forks == ref_forks
        assert len(calls) == len(ref_calls)
        for (spec, arm, ep), (ref_spec, ref_arm, ref_ep) in zip(calls, ref_calls):
            assert spec.start is not None and spec.start.fork == forks[0]
            assert ref_spec.start is None
            assert (spec, arm) == (ref_spec, ref_arm)      # start is not compared
            _assert_same_episode(ep, ref_ep)
        return calls, forks[0]

    @staticmethod
    def _fork_fits(kind, fork, ticks, onset):
        first_valid, at_onset = ticks[1], next(t for t in ticks if t >= onset)
        if kind == "full":
            return fork == at_onset
        if kind == "first":
            return fork == first_valid
        return first_valid < fork < at_onset

    @pytest.mark.parametrize("kind", ["full", "midway"])
    def test_the_forked_noise_protocol_gives_the_bits_of_unforked_runs(
            self, tiny_ckpt, tmp_path, monkeypatch, betas, kind):
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=betas[kind], robots=self.ROBOTS,
                              steps=400, noise_onset=self.ONSET, seed=self.SEED)
        conditions = (("salt_pepper", 30.0), ("gaussian", 0.0))     # level 0: no noise
        calls, fork = self._compare(
            tmp_path, monkeypatch,
            lambda out: run_noise_robustness(spec, out, conditions=conditions))
        # one full-length run_episode per (condition, arm), as a benchmark clock counts
        assert [(c.robots, c.steps, len(c.noise_events), arm) for c, arm, _ in calls] == [
            (3, 400, 1, "auto"), (3, 400, 1, "vp_only"), (3, 400, 0, "auto"),
            (3, 400, 0, "vp_only")]
        assert self._fork_fits(kind, fork, calls[0][2].tick_steps, self.ONSET), fork

    @pytest.mark.parametrize("kind", ["full", "first"])
    def test_the_forked_gamma_sweep_gives_the_bits_of_unforked_runs(
            self, tiny_ckpt, tmp_path, monkeypatch, betas, kind):
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=betas[kind], robots=self.ROBOTS,
                              steps=560, seed=self.SEED)
        calls, fork = self._compare(
            tmp_path, monkeypatch, lambda out: run_gamma_sweep(spec, [0.05, 0.3, 1.0], out))
        assert [(c.robots, c.steps, c.gamma, arm) for c, arm, _ in calls] == [
            (3, 560, 0.05, "auto"), (3, 560, 0.3, "auto"), (3, 560, 1.0, "auto")]
        assert self._fork_fits(kind, fork, calls[0][2].tick_steps, 200), fork

    def test_an_onset_at_step_0_forks_before_the_first_tick(self, tiny_ckpt):
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=0.5, robots=self.ROBOTS, steps=40,
                              seed=self.SEED, noise_events=[NoiseEvent("occlusion", 0.0, 0)])
        start = clean_prefix(cfg, nets, spec, 0)
        assert start.fork == 0 and start.episode.vx.shape == (0, self.ROBOTS)
        for arm in ("auto", "vp_only"):
            _assert_same_episode(run_episode(cfg, nets, dataclasses.replace(spec, start=start),
                                             arm),
                                 run_episode(cfg, nets, spec, arm))

    def test_the_prefix_builder_drives_the_loop_without_run_episode(self, tiny_ckpt,
                                                                    monkeypatch):
        def refuse(*_args):
            raise AssertionError("the prefix builder called run_episode")
        monkeypatch.setattr(protocols, "run_episode", refuse)
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e9, robots=self.ROBOTS, steps=200,
                              seed=self.SEED)
        start = clean_prefix(cfg, nets, spec, 100)
        assert start.fork == 100 and start.episode.vx.shape == (100, self.ROBOTS)
        assert start.episode.tick_steps == list(range(0, 100, 5))

    def test_a_mismatched_start_is_refused(self, tiny_ckpt):
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e9, robots=self.ROBOTS, steps=200,
                              seed=self.SEED)
        start = clean_prefix(cfg, nets, spec, 100)
        for change in (dict(robots=2), dict(seed=4), dict(command=0.5), dict(beta=1.0)):
            with pytest.raises(ContractError, match="the clean prefix was built for"):
                run_episode(cfg, nets, dataclasses.replace(spec, start=start, **change),
                            "auto")
        # an onset at step 92 is first seen by the tick at step 95, before the fork
        early = dataclasses.replace(spec, start=start,
                                    noise_events=[NoiseEvent("gaussian", 30.0, 92)])
        with pytest.raises(ContractError, match="forks at step 100, past this spec's first "
                                                "noisy tick at step 95"):
            run_episode(cfg, nets, early, "vp_only")


class TestPrefixCapture:
    """`clean_prefix` is a shorter deployment run and captures its runner once,
    whether it reaches the onset or stops at a tick with a failing pair."""

    @pytest.fixture(scope="class")
    def betas(self, tiny_ckpt):
        """`TestFork`'s betas: the prefix reaches the onset, stops midway, and
        stops at the first valid tick."""
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=1e9, robots=TestFork.ROBOTS,
                              steps=560, seed=TestFork.SEED)
        scores = clean_prefix(cfg, nets, spec, 200).episode.losses
        return {"full": 1.01 * float(np.nanmax(scores)),
                "midway": float(np.nextafter(np.nanmax(scores[1]), np.inf)), "first": 1e-9}

    @pytest.mark.parametrize("kind", ["full", "midway", "first"])
    def test_the_prefix_captures_its_runner_once(self, tiny_ckpt, monkeypatch, betas, kind):
        cfg, nets, _ = load_bundle(tiny_ckpt)
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=betas[kind], robots=TestFork.ROBOTS,
                              steps=400, seed=TestFork.SEED)
        captures = []
        capture = VecRunner.capture

        def counted(runner):
            captures.append(runner.global_step)
            return capture(runner)
        monkeypatch.setattr(VecRunner, "capture", counted)
        start = clean_prefix(cfg, nets, spec, TestFork.ONSET)
        assert captures == [start.fork] == [start.state.global_step]
        ticks = list(range(0, spec.steps, TICK_PERIOD))
        assert TestFork._fork_fits(kind, start.fork, ticks, TestFork.ONSET), start.fork
        assert start.episode.tick_steps == [t for t in ticks if t < start.fork]


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

    def test_an_occlusion_at_level_zero_switches_every_robot(self, tiny_ckpt, tmp_path):
        # an occlusion ignores its level, so occlusion:0 (the form of the trace
        # command's default) occludes from the onset on; an occluded pair scores
        # at least (MAX_RANGE - MIN_DEPTH)^2 = 3.96, above this beta
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=3.0, robots=2, steps=410,
                              noise_onset=150, seed=2)
        summary = run_noise_robustness(spec, tmp_path, conditions=(("occlusion", 0.0),))
        cond = summary["conditions"][0]
        assert min(cond["switch_delay_ticks"]) > 0
        assert cond["min_op_mode_fraction_post_switch"] > 0.0

    @pytest.mark.parametrize("kind", ["gaussian", "salt_pepper"])
    def test_a_levelled_condition_at_level_zero_runs_clean(self, tiny_ckpt, tmp_path, kind):
        # the beta under which occlusion:0 switches every robot; with no noise
        # event the selector arm never leaves vision, so both arms step alike
        spec = ExperimentSpec("t", str(tiny_ckpt), beta=3.0, robots=2, steps=410,
                              noise_onset=150, seed=2)
        summary = run_noise_robustness(spec, tmp_path, conditions=((kind, 0.0),))
        cond = summary["conditions"][0]
        assert cond["switch_delay_ticks"] == [-1, -1]
        assert cond["min_op_mode_fraction_post_switch"] == 0.0
        rows = (tmp_path / f"velocity_{kind}_0.csv").read_text().splitlines()[2:]
        assert all(row.split(",")[1] == row.split(",")[2] for row in rows)

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
