"""Robot dynamics: equilibrium, ballistics, falls, collisions, proprio channel,
and the batched world against its envs stepped one at a time and against a
scalar reference model."""

import copy
import types
from dataclasses import fields

import numpy as np
import pytest

from redloco.config import WorldConfig
from redloco.errors import ContractError
from redloco.world import (OBS_DIM, TERRAIN_KINDS, BatchWorld, compute_reward,
                           generate_terrain, sample_command)
from redloco.world.batch import (ACCEL_MAX, DRAG, DT, FOOT_OFFSETS, FOOT_PATCH, GRAVITY,
                                 HOP_THRESHOLD, IMPACT_LOSS, INIT_SPEED_RANGE, MAX_CLEARANCE,
                                 MAX_PITCH, MAX_STEP, MOTOR_GAIN_RANGE, OSC_BASE_RATE,
                                 OSC_RATE_PER_SPEED, PATCH_SAMPLES, PITCH_GAIN, PITCH_RELAX,
                                 PITCH_WOBBLE_PER_SPEED, PROFILE_SAMPLES, PROFILE_SPAN,
                                 STAND_HEIGHT, V_HOP)
from redloco.world.rewards import (ANG_VEL_SIGMA, DEFAULT_POS_CAP, DEFAULT_POS_UNIT,
                                   GAIT_RATE_GAIN, TERM_SCALES)
from redloco.world.terrain import CELL_SIZE

# the body state of one env, the names of its BatchWorld arrays
STATE_NAMES = ("x", "z", "vx", "vz", "pitch", "airborne", "ax", "az", "pitch_rate",
               "joint_phase", "last_action")


def make_world(kind="flat", level=0, seed=0, command=0.6, **cfg_overrides):
    """A one-env `BatchWorld` in a fresh episode under ``command``."""
    cfg = WorldConfig(**cfg_overrides)
    w = BatchWorld(cfg, [kind], [np.random.default_rng(seed)], [level])
    w.reset([0], [(command, 0.0)])
    return w


def state(w) -> types.SimpleNamespace:
    """Copies of env 0's body state (a row of an (E, k) array is a view)."""
    rows = {name: getattr(w, name)[0] for name in STATE_NAMES}
    return types.SimpleNamespace(**{name: v.copy() if isinstance(v, np.ndarray) else v
                                    for name, v in rows.items()})


def events(ev, i) -> dict:
    """Env i's events, keyed as the scalar model reports them."""
    termination = "pitch" if ev.tipped[i] else "fall" if ev.fell[i] else None
    return dict(collision=bool(ev.collision[i]), hopped=bool(ev.hopped[i]),
                landed=bool(ev.landed[i]), terminated=termination is not None,
                termination=termination, truncated=bool(ev.truncated[i]))


class TestDynamics:
    def test_zero_action_at_rest_changes_only_the_oscillator(self):
        w = make_world(command=0.0)
        w.vx[0] = 0.0
        before = (w.x[0], w.z[0], w.vx[0], w.vz[0], w.pitch[0])
        phase_before = w.joint_phase[0].copy()
        w.step([[0.0, 0.0]])
        after = (w.x[0], w.z[0], w.vx[0], w.vz[0], w.pitch[0])
        assert after == before
        assert not np.array_equal(w.joint_phase[0], phase_before)

    def test_kinetic_energy_non_increasing_under_zero_action(self):
        w = make_world(command=0.0)
        w.vx[0] = 1.2
        energies = []
        for _ in range(100):
            w.step([[0.0, 0.0]])
            energies.append(w.vx[0] ** 2 + w.vz[0] ** 2)
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_hop_apex_matches_ballistic_closed_form(self):
        w = make_world(command=0.0)
        w.vx[0] = 0.0
        start_z = w.z[0]
        zs = []
        w.step([[0.0, 1.0]])
        zs.append(w.z[0])
        for _ in range(200):
            if not w.airborne[0]:
                break
            w.step([[0.0, 0.0]])
            zs.append(w.z[0])
        apex = max(zs) - start_z
        # discrete sampling undershoots the parabola peak by at most g*dt^2/8
        assert apex == pytest.approx(V_HOP ** 2 / (2 * GRAVITY), abs=1e-3)

    def test_advancing_over_a_gap_without_hopping_falls_within_one_step(self):
        w = make_world("gap", level=9, seed=3, command=1.0)
        w.vx[0] = 1.5
        fell_at = None
        for i in range(600):
            ev = w.step([[1.0, 0.0]])
            if ev.terminated[0]:
                fell_at = i
                assert events(ev, 0)["termination"] == "fall"
                break
        assert fell_at is not None
        assert w.support(w.x)[0] == -np.inf     # both feet over void

    def test_wall_taller_than_max_step_blocks_and_logs_collision(self):
        w = make_world("platform", level=9, seed=4, command=1.0)
        w.vx[0] = 1.5
        hit = False
        for _ in range(600):
            ev = w.step([[1.0, 0.0]])
            if ev.collision[0]:
                hit = True
                assert w.vx[0] == 0.0
                break
        assert hit

    def test_grounded_motion_follows_small_steps(self):
        w = make_world("stairs_up", level=0, seed=5, command=1.0)
        z0 = w.z[0]
        for _ in range(500):
            ev = w.step([[1.0, 0.0]])
            assert not ev.collision[0]
            if w.x[0] > 6.0:
                break
        assert w.z[0] > z0 + 0.2

    def test_nan_action_is_a_contract_error(self):
        w = make_world()
        with pytest.raises(ContractError):
            w.step([[np.nan, 0.0]])

    def test_out_of_range_action_is_a_contract_error(self):
        w = make_world()
        with pytest.raises(ContractError):
            w.step([[1.5, 0.0]])

    def test_trajectories_are_bitwise_deterministic(self):
        logs = []
        for _ in range(2):
            w = make_world("rough", level=4, seed=11, command=0.7)
            acc = []
            for k in range(200):
                w.step([[np.sin(k * 0.1), 0.0 if k % 50 else 0.9]])
                acc.append((w.x[0], w.z[0], w.vx[0], w.vz[0]))
            logs.append(np.array(acc))
        assert logs[0].tobytes() == logs[1].tobytes()


class TestObservation:
    def test_observation_has_fixed_width(self):
        assert make_world().observation()[0].shape == (OBS_DIM,)

    def test_proprio_stream_blind_to_upcoming_gap(self):
        # same seed and actions on flat vs gap: observations identical until
        # the leading foot is over a void
        acts = [np.array([0.8, 0.0])] * 400
        w_flat = make_world("flat", seed=21, command=1.0)
        w_gap = make_world("gap", level=6, seed=21, command=1.0)
        w_gap.heights[0], w_gap.void[0] = generate_terrain("gap", 6, 99)
        terrain = ScalarEnv(w_gap)
        w_flat.vx[0] = w_gap.vx[0] = 0.5
        front = max(FOOT_OFFSETS)
        t_star = None
        obs_flat, obs_gap = [], []
        for t, a in enumerate(acts):
            if terrain.height_at(w_gap.x[0] + front) == -np.inf:
                t_star = t
                break
            obs_flat.append(w_flat.observation()[0])
            obs_gap.append(w_gap.observation()[0])
            w_flat.step([a])
            ev = w_gap.step([a])
            if ev.terminated[0]:
                t_star = t + 1
                break
        assert t_star is not None, "robot never reached the gap"
        assert np.array_equal(np.array(obs_flat), np.array(obs_gap))


class TestPrivileged:
    def test_velocity_is_exact(self):
        w = make_world()
        w.vx[0], w.vz[0] = 0.37, -0.12
        np.testing.assert_array_equal(w.privileged().v_true[0], [0.37, -0.12])

    def test_flat_profile_is_constant_clearance(self):
        w = make_world()
        p = w.privileged()
        np.testing.assert_allclose(p.m_t[0], w.z[0], atol=1e-12)
        np.testing.assert_allclose(p.h_f[0], 0.0, atol=1e-12)

    def test_foot_over_gap_reads_max_clearance(self):
        w = make_world("gap", level=9, seed=6)
        void = w.void[0]
        i = int(np.argmax(void))
        gap_len = 0
        while void[i + gap_len]:
            gap_len += 1
        w.x[0] = (i + gap_len / 2) * CELL_SIZE - max(FOOT_OFFSETS)
        p = w.privileged()
        assert p.h_f[0, 0] == pytest.approx(MAX_CLEARANCE)

    def test_profile_over_stairs_matches_generated_field(self):
        w = make_world("stairs_up", level=5, seed=7)
        w.x[0] = 4.0
        w.z[0] = 0.8
        p = w.privileged()
        lo, hi = PROFILE_SPAN
        xs = w.x[0] + np.linspace(lo, hi, PROFILE_SAMPLES)
        terrain = ScalarEnv(w)
        expected = [np.clip(w.z[0] - terrain.height_at(x),
                            -MAX_CLEARANCE, MAX_CLEARANCE) for x in xs]
        np.testing.assert_allclose(p.m_t[0], expected, atol=1e-12)



class ScalarEnv:
    """The scalar model of one env, one branch at a time in plain Python: the
    reference the batched world must reproduce bit for bit, including the
    order of its random draws. Built from a one-env world's state before a
    step or a reset, with a copy of its generator."""

    def __init__(self, w: BatchWorld) -> None:
        self.cfg = w.cfg
        self.r = state(w)
        self.heights, self.void = w.heights[0].copy(), w.void[0].copy()
        self.rng = copy.deepcopy(w.rngs[0])
        self.motor_gain, self.fall_z = float(w.motor_gain[0]), float(w.fall_z[0])
        self.c_x, self.c_yaw = float(w.c_x[0]), float(w.c_yaw[0])
        self.episode_step = int(w.episode_step[0])

    def height_at(self, x):
        i = min(max(int(np.floor(x / CELL_SIZE)), 0), len(self.heights) - 1)
        return -np.inf if self.void[i] else float(self.heights[i])

    def support(self, x):
        best = -np.inf
        for off in FOOT_OFFSETS:
            best = max(best, self.height_at(x + off))
        return best

    def step(self, action) -> dict:
        cfg, r, dt = self.cfg, self.r, DT
        a = np.asarray(action, dtype=np.float64)
        ev = dict(collision=False, hopped=False, landed=False, terminated=False,
                  termination=None, truncated=False)
        prev_vx, prev_vz, prev_pitch = r.vx, r.vz, r.pitch
        if not r.airborne:
            r.vx += (a[0] * ACCEL_MAX * self.motor_gain - DRAG * r.vx) * dt
            if a[1] > HOP_THRESHOLD:
                r.vz = float(a[1]) * V_HOP
                r.airborne = True
                ev["hopped"] = True
        old_x = r.x
        old_support = self.support(old_x)
        new_x = r.x + r.vx * dt
        if r.airborne:
            new_z = r.z + r.vz * dt - 0.5 * GRAVITY * dt * dt
            r.vz -= GRAVITY * dt
            support_new = self.support(new_x)
            top = support_new + STAND_HEIGHT
            if support_new > -np.inf and r.vz < 0 and new_z <= top:
                if new_z >= top - MAX_STEP:
                    r.x, r.z = new_x, top
                    r.vx *= max(0.0, 1.0 - IMPACT_LOSS * abs(r.vz))
                    r.vz = 0.0
                    r.airborne = False
                    ev["landed"] = True
                else:
                    ev["collision"] = True
                    r.x, r.z, r.vx = old_x, new_z, 0.0
            elif support_new > -np.inf and new_z < top - MAX_STEP and r.vz >= 0:
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
                if rise > MAX_STEP:
                    ev["collision"] = True
                    r.vx = 0.0
                elif rise < -MAX_STEP:
                    r.x, r.airborne, r.vz = new_x, True, 0.0
                else:
                    r.x, r.z = new_x, support_new + STAND_HEIGHT
        if not r.airborne:
            wobble = (PITCH_WOBBLE_PER_SPEED * r.vx * abs(r.vx)
                      * float(self.rng.uniform(-1.0, 1.0)))
            target = PITCH_GAIN * float(a[0]) + wobble
            r.pitch += (target - r.pitch) * min(1.0, PITCH_RELAX * dt)
        if abs(r.pitch) > MAX_PITCH:
            ev["terminated"], ev["termination"] = True, "pitch"
        rate = OSC_BASE_RATE + OSC_RATE_PER_SPEED * abs(r.vx)
        r.joint_phase = np.mod(r.joint_phase + rate * dt, 2.0 * np.pi)
        r.ax = (r.vx - prev_vx) / dt
        r.az = (r.vz - prev_vz) / dt
        r.pitch_rate = (r.pitch - prev_pitch) / dt
        r.last_action = a.copy()
        self.episode_step += 1
        ev["truncated"] = self.episode_step >= cfg.episode_steps and not ev["terminated"]
        return ev

    def reward(self, prev, action, collision) -> list[float]:
        """Raw values of the reward terms in table order, then the total."""
        cfg, r = self.cfg, self.r
        a = np.asarray(action, dtype=np.float64)
        mult = DT
        v_along = float(r.vx * np.cos(self.c_yaw))
        if self.c_x != 0.0:
            lin = min(v_along, self.c_x) / (self.c_x + 1e-5)
        else:
            lin = 1.0 / (1.0 + float(abs(r.vx)))
        rate_err = GAIT_RATE_GAIN * (v_along - self.c_x)
        support = self.support(r.x)
        default_pos = 0.0
        if support > -np.inf:
            dev = (r.z - (support + STAND_HEIGHT)) / DEFAULT_POS_UNIT
            default_pos = min(dev * dev, DEFAULT_POS_CAP)
        values = [lin, float(np.exp(-(rate_err ** 2) / ANG_VEL_SIGMA)),
                  1.0 if collision else 0.0, abs(r.ax * r.vx),
                  float(np.sum((a - prev.last_action) ** 2)), default_pos,
                  ((r.ax - prev.ax) / DT) ** 2, r.pitch ** 2]
        scales = list(TERM_SCALES.values())
        return values + [float(sum(s * v * mult for s, v in zip(scales, values)))]

    def observation(self) -> np.ndarray:
        r = self.r
        return np.array([0.1 * r.ax, 0.05 * r.az, np.sin(r.pitch), np.cos(r.pitch),
                         0.25 * r.pitch_rate, self.c_x, self.c_yaw, *np.sin(r.joint_phase),
                         r.last_action[0], r.last_action[1], 0.0 if r.airborne else 1.0])

    def clearance(self, z_ref, x):
        h, mc = self.height_at(x), MAX_CLEARANCE
        return mc if h == -np.inf else float(np.clip(z_ref - h, -mc, mc))

    def privileged(self):
        r = self.r
        lo, hi = PROFILE_SPAN
        m_t = [self.clearance(r.z, x)
               for x in r.x + np.linspace(lo, hi, PROFILE_SAMPLES)]
        half = FOOT_PATCH / 2.0
        offsets = np.linspace(-half, half, PATCH_SAMPLES)
        h_f = [np.mean([self.clearance(r.z - STAND_HEIGHT, r.x + f + o) for o in offsets])
               for f in FOOT_OFFSETS]
        return [r.vx, r.vz], m_t, h_f

    def reset(self, kind: str, level: int, phase: int):
        """Terrain, command, motor gain and initial speed of a new episode."""
        seed = int(self.rng.integers(0, 2 ** 31 - 1))
        terrain = generate_terrain(kind, level, seed)
        cmd = sample_command(self.rng, phase)
        gain = float(self.rng.uniform(*MOTOR_GAIN_RANGE))
        vx = float(self.rng.uniform(*INIT_SPEED_RANGE))
        return terrain, cmd, gain, vx


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestBatchMatchesSingle:
    CASES = [(kind, level) for kind in TERRAIN_KINDS for level in (0, 9)]

    def test_batch_steps_bit_for_bit_like_its_envs_one_at_a_time(self):
        cfg = WorldConfig(episode_steps=60)
        kinds = [k for k, _ in self.CASES]
        levels = [lv for _, lv in self.CASES]
        n = len(kinds)
        batch = BatchWorld(cfg, kinds, [np.random.default_rng([7, i]) for i in range(n)],
                           levels)
        singles = [BatchWorld(cfg, [k], [np.random.default_rng([7, i])], [lv])
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
            reward = compute_reward(batch, ev.collision)
            obs = batch.observation()
            priv = batch.privileged()
            for i, w in enumerate(singles):
                ref = ScalarEnv(w)
                prev = state(w)
                ev_i = w.step([actions[i]])
                r = compute_reward(w, ev_i.collision)
                for f in fields(ev):
                    assert getattr(ev, f.name)[i] == getattr(ev_i, f.name)[0], f.name
                for name in STATE_NAMES:
                    assert same_bits(getattr(batch, name)[i], getattr(w, name)[0]), name
                assert same_bits(reward.total[i], r.total)
                for name in r.values:
                    assert same_bits(reward.values[name][i], r.values[name]), name
                    assert same_bits(reward.contributions[name][i], r.contributions[name]), name
                assert same_bits(obs[i], w.observation()[0])
                p = w.privileged()
                assert same_bits(priv.v_true[i], p.v_true[0])
                assert same_bits(priv.m_t[i], p.m_t[0])
                assert same_bits(priv.h_f[i], p.h_f[0])
                # the scalar model, from the same state and generator
                assert ref.step(actions[i]) == events(ev_i, 0)
                for name in STATE_NAMES:
                    assert same_bits(getattr(ref.r, name), getattr(w, name)[0]), name
                assert ref.rng.bit_generator.state == w.rngs[0].bit_generator.state
                assert same_bits(ref.reward(prev, actions[i], ev_i.collision[0]),
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
                (heights, void), cmd, gain, vx = ref.reset(*self.CASES[i], phase=1)
                w = singles[i]
                w.reset([0])
                assert same_bits(w.heights[0], heights)
                assert np.array_equal(w.void[0], void)
                assert same_bits([w.c_x[0], w.c_yaw[0]], cmd)
                assert same_bits([w.motor_gain[0], w.vx[0]], [gain, vx])
                assert ref.rng.bit_generator.state == w.rngs[0].bit_generator.state
                resets[i] += 1
        assert (resets >= 1).all()
        assert hops > 0 and landings > 0

    def test_a_fixed_command_reset_gives_row_k_to_the_kth_id_and_draws_no_command(self):
        cmds = np.array([[0.3, 0.1], [0.7, -0.2]])
        w = BatchWorld(WorldConfig(), ["flat", "gap"],
                       [np.random.default_rng([5, i]) for i in range(2)], [0, 4])
        refs = [copy.deepcopy(rng) for rng in w.rngs]
        w.reset([1, 0], cmds)
        for k, i in enumerate([1, 0]):
            ref = refs[i]
            ref.integers(0, 2 ** 31 - 1)          # the terrain seed
            assert same_bits([w.motor_gain[i], w.vx[i]],
                             [ref.uniform(*MOTOR_GAIN_RANGE), ref.uniform(*INIT_SPEED_RANGE)])
            assert ref.bit_generator.state == w.rngs[i].bit_generator.state
            assert same_bits([w.c_x[i], w.c_yaw[i]], cmds[k])

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
