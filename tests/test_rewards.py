"""Tracking-reward oracle and the shaping-term table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.config import WorldConfig
from redloco.world import BatchWorld, compute_reward, linear_velocity_reward, make_command
from redloco.world.batch import ACCEL_MAX, DRAG
from redloco.world.rewards import TERM_SCALES


def reference_tracking(c_x, v_along, v_norm):
    # independent direct evaluation of the two-branch tracking rule
    if c_x != 0.0:
        return min(v_along, c_x) / (c_x + 1e-5)
    return 1.0 / (1.0 + v_norm)


class TestTrackingReward:
    def test_zero_command_at_rest_scores_one(self):
        assert linear_velocity_reward(0.0, 0.0, 0.0) == 1.0

    def test_zero_command_at_unit_speed_scores_half(self):
        assert linear_velocity_reward(0.0, 0.3, 1.0) == 0.5

    def test_partial_overshoot_value(self):
        got = linear_velocity_reward(0.6, 0.8, 0.8)
        assert got == pytest.approx(0.6 / 0.60001, abs=1e-12)
        assert got == pytest.approx(0.99998, abs=1e-4)

    def test_matches_reference_on_dense_grid(self):
        cs = np.concatenate([[0.0], np.linspace(0.05, 1.2, 12)])
        vs = np.linspace(-0.5, 1.5, 11)
        norms = np.linspace(0.0, 2.0, 8)
        count = 0
        for c in cs:
            for va in vs:
                for vn in norms:
                    got = linear_velocity_reward(float(c), float(va), float(vn))
                    want = reference_tracking(float(c), float(va), float(vn))
                    assert got == pytest.approx(want, abs=1e-12)
                    count += 1
        assert count >= 1000

    @given(st.floats(1e-6, 1.2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_in_projection_then_flat(self, c, v1, v2):
        lo, hi = sorted((v1, v2))
        r_lo = linear_velocity_reward(c, lo, abs(lo))
        r_hi = linear_velocity_reward(c, hi, abs(hi))
        assert r_hi >= r_lo - 1e-12
        if lo >= c:
            assert r_hi == pytest.approx(r_lo, abs=1e-12)

    @given(st.floats(1e-9, 1e-3), st.floats(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_both_branches_bounded_near_zero_command(self, c, v):
        assert 0.0 <= linear_velocity_reward(c, v, v) <= 1.0 + 1e-4
        assert 0.0 <= linear_velocity_reward(0.0, v, v) <= 1.0


def step_reward(w, action):
    """Step a one-env world; its events and the `compute_reward` of the step."""
    ev = w.step(np.array([action], dtype=np.float64))
    return ev, compute_reward(w, ev.collision)


class TestRewardTable:
    SCALES = {"lin_vel_tracking": 1.5, "ang_vel_tracking": 0.5, "collision": -10.0,
              "joint_energy": -1e-5, "action_rate": -0.1, "default_pos": -0.04,
              "joint_acc": -2.5e-7, "orientation": -1.0}

    def _step(self, command=0.6, action=(0.5, 0.0)):
        w = BatchWorld(WorldConfig(), ["flat"], [np.random.default_rng(0)])
        w.reset([0], [make_command(command)])
        _, r = step_reward(w, action)
        return w, r

    def test_every_table_term_is_present_with_its_scale(self):
        w, r = self._step()
        assert list(r.values) == list(r.contributions) == list(self.SCALES)
        for name, scale in self.SCALES.items():
            assert TERM_SCALES[name] == scale
            assert r.contributions[name][0] == scale * r.values[name][0] * w.cfg.dt

    def test_total_is_sum_of_contributions(self):
        _, r = self._step()
        assert r.total[0] == pytest.approx(sum(c[0] for c in r.contributions.values()),
                                           abs=1e-15)

    def test_collision_contributes_scale_times_dt(self):
        w = BatchWorld(WorldConfig(), ["platform"], [np.random.default_rng(4)], [9])
        w.reset([0], [make_command(1.0)])
        w.vx[0] = 1.5
        for _ in range(500):
            ev, r = step_reward(w, [1.0, 0.0])
            if ev.collision[0]:
                assert r.contributions["collision"][0] == pytest.approx(
                    -10.0 * w.cfg.dt, abs=1e-15)
                return
        pytest.fail("no collision occurred")

    def test_tracking_term_uses_projection_on_heading(self):
        w = BatchWorld(WorldConfig(), ["flat"], [np.random.default_rng(1)])
        w.reset([0], [make_command(0.6, c_yaw=0.3)])
        w.vx[0] = 0.5
        _, r = step_reward(w, [0.0, 0.0])
        expected = reference_tracking(0.6, w.vx[0] * np.cos(0.3), abs(w.vx[0]))
        assert r.values["lin_vel_tracking"][0] == pytest.approx(expected, abs=1e-12)


class TestOverspeedCost:
    """The capped tracking term is flat above the command, so holding the
    commanded speed must out-earn sustained overspeed through the shaping."""

    STEPS = 100

    def _hold(self, command, speed):
        """Total reward over STEPS of holding ``speed`` on flat ground."""
        w = BatchWorld(WorldConfig(), ["flat"], [np.random.default_rng(0)])
        w.reset([0], [make_command(command)])
        w.vx[0] = speed
        # throttle that exactly balances drag at this speed
        action = [DRAG * speed / (ACCEL_MAX * float(w.motor_gain[0])), 0.0]
        total = 0.0
        for _ in range(self.STEPS):
            total += float(step_reward(w, action)[1].total[0])
        assert w.vx[0] == pytest.approx(speed, abs=1e-9)
        return total

    @pytest.mark.parametrize("command", [0.3, 0.6, 1.0])
    def test_holding_the_command_beats_sustained_overspeed(self, command):
        held = self._hold(command, command)
        for over in (0.1, 0.2, 0.5):
            assert held > self._hold(command, command + over)

    @pytest.mark.parametrize("command", [0.3, 0.6, 1.0])
    def test_half_a_meter_per_second_over_costs_a_tenth_of_the_best_step(self, command):
        best_step = ((TERM_SCALES["lin_vel_tracking"] + TERM_SCALES["ang_vel_tracking"])
                     * WorldConfig().dt)
        cost = (self._hold(command, command) - self._hold(command, command + 0.5)) / self.STEPS
        assert cost >= 0.1 * best_step
