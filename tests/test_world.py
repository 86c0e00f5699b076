"""Robot dynamics: equilibrium, ballistics, falls, collisions, proprio channel,
and the batched world against its envs stepped one at a time and against a
scalar reference model."""

import copy

import numpy as np
import pytest

from redloco.config import RewardConfig, WorldConfig
from redloco.errors import ContractError
from redloco.world import (OBS_DIM, TERRAIN_KINDS, BatchWorld, PlanarWorld, compute_reward,
                           generate_terrain, make_command, sample_command)
from redloco.world.robot import STATE_FIELDS


def make_world(kind="flat", level=0, seed=0, command=0.6, **cfg_overrides):
    cfg = WorldConfig(**cfg_overrides)
    w = PlanarWorld(cfg, kind, np.random.default_rng(seed), level=level)
    w.reset_episode(command=make_command(command))
    return w


class TestDynamics:
    def test_zero_action_at_rest_changes_only_the_oscillator(self):
        w = make_world(command=0.0)
        w.robot.vx = 0.0
        before = (w.robot.x, w.robot.z, w.robot.vx, w.robot.vz, w.robot.pitch)
        phase_before = w.robot.joint_phase.copy()
        w.step([0.0, 0.0])
        after = (w.robot.x, w.robot.z, w.robot.vx, w.robot.vz, w.robot.pitch)
        assert after == before
        assert not np.array_equal(w.robot.joint_phase, phase_before)

    def test_kinetic_energy_non_increasing_under_zero_action(self):
        w = make_world(command=0.0)
        w.robot.vx = 1.2
        energies = []
        for _ in range(100):
            w.step([0.0, 0.0])
            energies.append(w.robot.vx ** 2 + w.robot.vz ** 2)
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_hop_apex_matches_ballistic_closed_form(self):
        w = make_world(command=0.0)
        w.robot.vx = 0.0
        cfg = w.cfg
        start_z = w.robot.z
        zs = []
        w.step([0.0, 1.0])
        zs.append(w.robot.z)
        for _ in range(200):
            if not w.robot.airborne:
                break
            w.step([0.0, 0.0])
            zs.append(w.robot.z)
        apex = max(zs) - start_z
        # discrete sampling undershoots the parabola peak by at most g*dt^2/8
        assert apex == pytest.approx(cfg.v_hop ** 2 / (2 * cfg.gravity), abs=1e-3)

    def test_advancing_over_a_gap_without_hopping_falls_within_one_step(self):
        w = make_world("gap", level=9, seed=3, command=1.0)
        w.robot.vx = 1.5
        fell_at = None
        for i in range(600):
            ev = w.step([1.0, 0.0])
            if ev.terminated:
                fell_at = i
                assert ev.termination == "fall"
                break
        assert fell_at is not None
        assert w.batch.support(w.batch.x)[0] == -np.inf     # both feet over void

    def test_wall_taller_than_max_step_blocks_and_logs_collision(self):
        w = make_world("platform", level=9, seed=4, command=1.0)
        w.robot.vx = 1.5
        hit = False
        for _ in range(600):
            ev = w.step([1.0, 0.0])
            if ev.collision:
                hit = True
                assert w.robot.vx == 0.0
                break
        assert hit

    def test_grounded_motion_follows_small_steps(self):
        w = make_world("stairs_up", level=0, seed=5, command=1.0)
        z0 = w.robot.z
        for _ in range(500):
            ev = w.step([1.0, 0.0])
            assert not ev.collision
            if w.robot.x > 6.0:
                break
        assert w.robot.z > z0 + 0.2

    def test_nan_action_is_a_contract_error(self):
        w = make_world()
        with pytest.raises(ContractError):
            w.step([np.nan, 0.0])

    def test_out_of_range_action_is_a_contract_error(self):
        w = make_world()
        with pytest.raises(ContractError):
            w.step([1.5, 0.0])

    def test_trajectories_are_bitwise_deterministic(self):
        logs = []
        for _ in range(2):
            w = make_world("rough", level=4, seed=11, command=0.7)
            acc = []
            for k in range(200):
                w.step([np.sin(k * 0.1), 0.0 if k % 50 else 0.9])
                acc.append((w.robot.x, w.robot.z, w.robot.vx, w.robot.vz))
            logs.append(np.array(acc))
        assert logs[0].tobytes() == logs[1].tobytes()


class TestObservation:
    def test_observation_has_fixed_width(self):
        assert make_world().observation().shape == (OBS_DIM,)

    def test_proprio_stream_blind_to_upcoming_gap(self):
        # same seed and actions on flat vs gap: observations identical until
        # the leading foot is over a void
        acts = [np.array([0.8, 0.0])] * 400
        w_flat = make_world("flat", seed=21, command=1.0)
        w_gap = make_world("gap", level=6, seed=21, command=1.0)
        w_gap.batch.set_terrain(0, generate_terrain("gap", 6, 99, w_gap.cfg))
        terrain = ScalarEnv(w_gap)
        w_flat.robot.vx = w_gap.robot.vx = 0.5
        front = max(w_gap.cfg.foot_offsets)
        t_star = None
        obs_flat, obs_gap = [], []
        for t, a in enumerate(acts):
            if terrain.height_at(w_gap.robot.x + front) == -np.inf:
                t_star = t
                break
            obs_flat.append(w_flat.observation())
            obs_gap.append(w_gap.observation())
            w_flat.step(a)
            ev = w_gap.step(a)
            if ev.terminated:
                t_star = t + 1
                break
        assert t_star is not None, "robot never reached the gap"
        assert np.array_equal(np.array(obs_flat), np.array(obs_gap))


class TestPrivileged:
    def test_velocity_is_exact(self):
        w = make_world()
        w.robot.vx, w.robot.vz = 0.37, -0.12
        np.testing.assert_array_equal(w.privileged().v_true, [0.37, -0.12])

    def test_flat_profile_is_constant_clearance(self):
        w = make_world()
        p = w.privileged()
        np.testing.assert_allclose(p.m_t, w.robot.z, atol=1e-12)
        np.testing.assert_allclose(p.h_f, 0.0, atol=1e-12)

    def test_foot_over_gap_reads_max_clearance(self):
        w = make_world("gap", level=9, seed=6)
        void = w.batch.void[0]
        i = int(np.argmax(void))
        gap_len = 0
        while void[i + gap_len]:
            gap_len += 1
        w.robot.x = (i + gap_len / 2) * w.cfg.cell_size - max(w.cfg.foot_offsets)
        p = w.privileged()
        assert p.h_f[0] == pytest.approx(w.cfg.max_clearance)

    def test_profile_over_stairs_matches_generated_field(self):
        w = make_world("stairs_up", level=5, seed=7)
        w.robot.x = 4.0
        w.robot.z = 0.8
        p = w.privileged()
        lo, hi = w.cfg.profile_span
        xs = w.robot.x + np.linspace(lo, hi, w.cfg.profile_samples)
        terrain = ScalarEnv(w)
        expected = [np.clip(w.robot.z - terrain.height_at(x),
                            -w.cfg.max_clearance, w.cfg.max_clearance) for x in xs]
        np.testing.assert_allclose(p.m_t, expected, atol=1e-12)



class ScalarEnv:
    """The scalar model of one env, one branch at a time in plain Python: the
    reference the batched world must reproduce bit for bit, including the
    order of its random draws. Built from a PlanarWorld's state before a step
    or a reset, with a copy of its generator."""

    def __init__(self, w: PlanarWorld) -> None:
        b = w.batch
        self.cfg = w.cfg
        self.r = w.snapshot()
        self.heights, self.void = b.heights[0].copy(), b.void[0].copy()
        self.rng = copy.deepcopy(b.rngs[0])
        self.motor_gain, self.fall_z = float(b.motor_gain[0]), float(b.fall_z[0])
        self.c_x, self.c_yaw = float(b.c_x[0]), float(b.c_yaw[0])
        self.episode_step = int(b.episode_step[0])

    def height_at(self, x):
        i = min(max(int(np.floor(x / self.cfg.cell_size)), 0), len(self.heights) - 1)
        return -np.inf if self.void[i] else float(self.heights[i])

    def support(self, x):
        best = -np.inf
        for off in self.cfg.foot_offsets:
            best = max(best, self.height_at(x + off))
        return best

    def step(self, action) -> dict:
        cfg, r, dt = self.cfg, self.r, self.cfg.dt
        a = np.asarray(action, dtype=np.float64)
        ev = dict(collision=False, hopped=False, landed=False, terminated=False,
                  termination=None, truncated=False)
        prev_vx, prev_vz, prev_pitch = r.vx, r.vz, r.pitch
        if not r.airborne:
            r.vx += (a[0] * cfg.accel_max * self.motor_gain - cfg.drag * r.vx) * dt
            if a[1] > cfg.hop_threshold:
                r.vz = float(a[1]) * cfg.v_hop
                r.airborne = True
                ev["hopped"] = True
        old_x = r.x
        old_support = self.support(old_x)
        new_x = r.x + r.vx * dt
        if r.airborne:
            new_z = r.z + r.vz * dt - 0.5 * cfg.gravity * dt * dt
            r.vz -= cfg.gravity * dt
            support_new = self.support(new_x)
            top = support_new + cfg.stand_height
            if support_new > -np.inf and r.vz < 0 and new_z <= top:
                if new_z >= top - cfg.max_step:
                    r.x, r.z = new_x, top
                    r.vx *= max(0.0, 1.0 - cfg.impact_loss * abs(r.vz))
                    r.vz = 0.0
                    r.airborne = False
                    ev["landed"] = True
                else:
                    ev["collision"] = True
                    r.x, r.z, r.vx = old_x, new_z, 0.0
            elif support_new > -np.inf and new_z < top - cfg.max_step and r.vz >= 0:
                ev["collision"] = True
                r.x, r.z, r.vx = old_x, new_z, 0.0
            else:
                r.x, r.z = new_x, new_z
            if r.z < self.fall_z:
                ev["terminated"], ev["termination"] = True, "fall"
        else:
            support_new = self.support(new_x)
            if support_new == -np.inf:
                r.x = new_x
                ev["terminated"], ev["termination"] = True, "fall"
            else:
                rise = support_new - old_support
                if rise > cfg.max_step:
                    ev["collision"] = True
                    r.vx = 0.0
                elif rise < -cfg.max_step:
                    r.x, r.airborne, r.vz = new_x, True, 0.0
                else:
                    r.x, r.z = new_x, support_new + cfg.stand_height
        if not r.airborne:
            wobble = (cfg.pitch_wobble_per_speed * r.vx * abs(r.vx)
                      * float(self.rng.uniform(-1.0, 1.0)))
            target = cfg.pitch_gain * float(a[0]) + wobble
            r.pitch += (target - r.pitch) * min(1.0, cfg.pitch_relax * dt)
        if abs(r.pitch) > cfg.max_pitch:
            ev["terminated"], ev["termination"] = True, "pitch"
        rate = cfg.osc_base_rate + cfg.osc_rate_per_speed * abs(r.vx)
        r.joint_phase = np.mod(r.joint_phase + rate * dt, 2.0 * np.pi)
        r.ax = (r.vx - prev_vx) / dt
        r.az = (r.vz - prev_vz) / dt
        r.pitch_rate = (r.pitch - prev_pitch) / dt
        r.last_action = a.copy()
        self.episode_step += 1
        ev["truncated"] = self.episode_step >= cfg.episode_steps and not ev["terminated"]
        return ev

    def reward(self, prev, action, collision, rcfg) -> list[float]:
        """Raw values of the reward terms in table order, then the total."""
        cfg, r = self.cfg, self.r
        a = np.asarray(action, dtype=np.float64)
        mult = cfg.dt
        v_along = float(r.vx * np.cos(self.c_yaw))
        if self.c_x != 0.0:
            lin = min(v_along, self.c_x) / (self.c_x + 1e-5)
        else:
            lin = 1.0 / (1.0 + float(abs(r.vx)))
        rate_err = rcfg.gait_rate_gain * (v_along - self.c_x)
        support = self.support(r.x)
        default_pos = 0.0
        if support > -np.inf:
            dev = (r.z - (support + cfg.stand_height)) / rcfg.default_pos_unit
            default_pos = min(dev * dev, rcfg.default_pos_cap)
        values = [lin, float(np.exp(-(rate_err ** 2) / rcfg.ang_vel_sigma)),
                  1.0 if collision else 0.0, abs(r.ax * r.vx),
                  float(np.sum((a - prev.last_action) ** 2)), default_pos,
                  ((r.ax - prev.ax) / cfg.dt) ** 2, r.pitch ** 2]
        scales = [rcfg.lin_vel, rcfg.ang_vel, rcfg.collision, rcfg.joint_energy,
                  rcfg.action_rate, rcfg.default_pos, rcfg.joint_acc, rcfg.orientation]
        return values + [float(sum(s * v * mult for s, v in zip(scales, values)))]

    def observation(self) -> np.ndarray:
        r = self.r
        return np.array([0.1 * r.ax, 0.05 * r.az, np.sin(r.pitch), np.cos(r.pitch),
                         0.25 * r.pitch_rate, self.c_x, self.c_yaw, *np.sin(r.joint_phase),
                         r.last_action[0], r.last_action[1], 0.0 if r.airborne else 1.0])

    def clearance(self, z_ref, x):
        h, mc = self.height_at(x), self.cfg.max_clearance
        return mc if h == -np.inf else float(np.clip(z_ref - h, -mc, mc))

    def privileged(self):
        cfg, r = self.cfg, self.r
        lo, hi = cfg.profile_span
        m_t = [self.clearance(r.z, x)
               for x in r.x + np.linspace(lo, hi, cfg.profile_samples)]
        half = cfg.foot_patch / 2.0
        offsets = np.linspace(-half, half, cfg.patch_samples)
        h_f = [np.mean([self.clearance(r.z - cfg.stand_height, r.x + f + o) for o in offsets])
               for f in cfg.foot_offsets]
        return [r.vx, r.vz], m_t, h_f

    def reset(self, kind: str, level: int, phase: int):
        """Terrain, command, motor gain and initial speed of a new episode."""
        seed = int(self.rng.integers(0, 2 ** 31 - 1))
        hf = generate_terrain(kind, level, seed, self.cfg)
        cmd = sample_command(self.rng, phase, self.cfg)
        gain = float(self.rng.uniform(*self.cfg.motor_gain_range))
        vx = float(self.rng.uniform(*self.cfg.init_speed_range))
        return hf, cmd, gain, vx


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestBatchMatchesSingle:
    CASES = [(kind, level) for kind in TERRAIN_KINDS for level in (0, 9)]

    def test_batch_steps_bit_for_bit_like_its_envs_one_at_a_time(self):
        cfg = WorldConfig(episode_steps=60)
        rcfg = RewardConfig()
        kinds = [k for k, _ in self.CASES]
        levels = [lv for _, lv in self.CASES]
        n = len(kinds)
        batch = BatchWorld(cfg, kinds, [np.random.default_rng([7, i]) for i in range(n)],
                           levels)
        singles = [PlanarWorld(cfg, k, np.random.default_rng([7, i]), level=lv)
                   for i, (k, lv) in enumerate(self.CASES)]
        act_rng = np.random.default_rng(3)
        resets = np.zeros(n, dtype=int)
        hops = landings = 0
        for _ in range(150):
            actions = act_rng.uniform(-1.0, 1.0, (n, 2))
            # hop now and then, not on every step
            actions[:, 1] = np.where(act_rng.random(n) < 0.1, actions[:, 1],
                                     np.minimum(actions[:, 1], 0.4))
            ev = batch.step(actions)
            reward = compute_reward(batch, ev.collision, rcfg)
            obs = batch.observation()
            priv = batch.privileged()
            for i, w in enumerate(singles):
                ref = ScalarEnv(w)
                prev = w.snapshot()
                ev_i = w.step(actions[i])
                b = w.batch
                r = compute_reward(b, np.array([ev_i.collision]), rcfg)
                assert ev.at(i) == ev_i
                for name in STATE_FIELDS:
                    assert same_bits(getattr(batch, name)[i], getattr(w.robot, name)), name
                assert same_bits(reward.total[i], r.total)
                for name in r.values:
                    assert same_bits(reward.values[name][i], r.values[name]), name
                    assert same_bits(reward.contributions[name][i], r.contributions[name]), name
                assert same_bits(obs[i], w.observation())
                p = w.privileged()
                assert same_bits(priv.v_true[i], p.v_true)
                assert same_bits(priv.m_t[i], p.m_t)
                assert same_bits(priv.h_f[i], p.h_f)
                # the scalar model, from the same state and generator
                assert ref.step(actions[i]) == vars(ev_i)
                for name in STATE_FIELDS:
                    assert same_bits(getattr(ref.r, name), getattr(w.robot, name)), name
                assert ref.rng.bit_generator.state == w.batch.rngs[0].bit_generator.state
                assert same_bits(ref.reward(prev, actions[i], ev_i.collision, rcfg),
                                 [v[0] for v in r.values.values()] + [r.total[0]])
                assert same_bits(ref.observation(), obs[i])
                want = ref.privileged()
                assert same_bits(want[0], priv.v_true[i])
                assert same_bits(want[1], priv.m_t[i])
                assert same_bits(want[2], priv.h_f[i])
            hops += int(ev.hopped.sum())
            landings += int(ev.landed.sum())
            done = np.flatnonzero(ev.done)
            batch.reset(done)
            for i in done:
                ref = ScalarEnv(singles[i])
                hf, cmd, gain, vx = ref.reset(*self.CASES[i], phase=1)
                singles[i].reset_episode()
                assert same_bits(singles[i].batch.heights[0], hf.heights)
                assert singles[i].command == cmd
                assert same_bits([singles[i].motor_gain, singles[i].robot.vx], [gain, vx])
                assert ref.rng.bit_generator.state == singles[i].batch.rngs[0].bit_generator.state
                resets[i] += 1
        assert (resets >= 1).all()
        assert hops > 0 and landings > 0

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -np.inf])
    def test_one_bad_action_row_is_a_contract_error_naming_the_env(self, bad):
        batch = BatchWorld(WorldConfig(), ["flat"] * 4,
                           [np.random.default_rng(i) for i in range(4)])
        actions = np.zeros((4, 2))
        actions[2, 1] = bad
        x = batch.x.copy()
        with pytest.raises(ContractError, match="env 2"):
            batch.step(actions)
        assert same_bits(batch.x, x)

    def test_wrong_action_shape_is_a_contract_error(self):
        batch = BatchWorld(WorldConfig(), ["flat"] * 3,
                           [np.random.default_rng(i) for i in range(3)])
        with pytest.raises(ContractError):
            batch.step(np.zeros((2, 2)))

    def test_shared_generator_is_a_contract_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            BatchWorld(WorldConfig(), ["flat"] * 2, [rng, rng])
