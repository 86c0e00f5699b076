"""Adaptation schedule invariants and clipped-surrogate mechanics."""

import numpy as np
import pytest

from redloco.nn import Adam
from redloco.training import (AdaptationSchedule, Critic, GaussianPolicy, PhaseTracker,
                              normalize_advantages, ppo_update, surrogate_and_grad,
                              terrain_class)
from redloco.training.ppo import CLIP, MEAN_BOUND, mean_bound_loss
from redloco.training.schedule import (FLIP_PERIOD, PHASE_BUDGET_FRAC, PHASE_THRESHOLD,
                                       PHASE_WINDOW)
from redloco.world import TERRAIN_KINDS


class TestAdaptationSchedule:
    KINDS = ["flat", "gap", "stairs_up", "platform", "rough", "flat"]

    def test_difficult_envs_always_train_vision(self):
        sched = AdaptationSchedule(self.KINDS)
        for it in range(100):
            masks = sched.masks(it)
            assert masks[1] == 0 and masks[3] == 0

    def test_simple_envs_flip_every_twenty_iterations(self):
        assert FLIP_PERIOD == 20
        sched = AdaptationSchedule(self.KINDS)
        assert sched.masks(19)[0] != sched.masks(20)[0]
        assert sched.masks(39)[0] != sched.masks(40)[0]
        for it in range(100):
            masks = sched.masks(it)
            for i, kind in enumerate(self.KINDS):
                if terrain_class(kind) == "simple":
                    want = ((it // 20) % 2) ^ sched.offsets[i]
                    assert masks[i] == want

    def test_simple_envs_are_staggered(self):
        sched = AdaptationSchedule(self.KINDS)
        simple_masks = [m for m, k in zip(sched.masks(0), self.KINDS)
                        if terrain_class(k) == "simple"]
        assert 0 in simple_masks and 1 in simple_masks

    def test_both_estimators_receive_data_every_iteration(self):
        sched = AdaptationSchedule(self.KINDS)
        for it in range(60):
            masks = sched.masks(it)
            assert (masks == 0).any() and (masks == 1).any()

    def test_masks_equal_the_per_env_rule(self):
        # the per-env reference: 0 on difficult envs; on simple ones the phase
        # XOR the env's rank among the simple envs, mod 2
        rng = np.random.default_rng(0)
        for _ in range(300):
            kinds = list(rng.choice(TERRAIN_KINDS, size=int(rng.integers(1, 30))))
            sched = AdaptationSchedule(kinds)
            # three flips and some iterations past the last one
            for it in range(3 * FLIP_PERIOD + 9):
                want, rank = [], 0
                for kind in kinds:
                    simple = terrain_class(kind) == "simple"
                    want.append(((it // FLIP_PERIOD) % 2) ^ (rank % 2) if simple else 0)
                    rank += simple
                masks = sched.masks(it)
                assert masks.dtype == np.int64 and masks.tolist() == want


class TestPhaseTracker:
    def test_starts_in_phase_one(self):
        pt = PhaseTracker(iterations=200)
        assert pt.budget == 120
        assert pt.update(0, 0.2) == 1

    def test_latches_to_phase_two_on_threshold(self):
        # a full window above the threshold moves it; one iteration short does not
        pt = PhaseTracker(iterations=2000)
        for it in range(PHASE_WINDOW - 1):
            assert pt.update(it, PHASE_THRESHOLD + 0.2) == 1
        assert pt.update(PHASE_WINDOW - 1, PHASE_THRESHOLD + 0.2) == 2
        assert pt.phase == 2
        assert pt.update(PHASE_WINDOW, 0.0) == 2    # never back

    def test_budget_forces_phase_two(self):
        pt = PhaseTracker(iterations=17)
        assert pt.budget == int(PHASE_BUDGET_FRAC * 17) == 10
        phases = [pt.update(it, 0.0) for it in range(11)]
        assert phases == [1] * 10 + [2]


class TestSurrogate:
    def test_unit_ratio_recovers_mean_advantage(self):
        adv = np.array([0.5, -1.0, 2.0, 0.25])
        val, _ = surrogate_and_grad(np.ones(4), adv)
        assert val == pytest.approx(adv.mean(), abs=1e-15)

    def test_saturated_branches_have_zero_gradient_outside_the_clip(self):
        # positive advantage with ratio above 1 + CLIP (and negative with ratio
        # below 1 - CLIP) sit on the clipped plateau
        assert 1.3 > 1.0 + CLIP and 0.7 < 1.0 - CLIP
        val, g = surrogate_and_grad(np.array([1.3]), np.array([2.0]))
        assert val == pytest.approx((1.0 + CLIP) * 2.0)
        assert g[0] == 0.0
        val, g = surrogate_and_grad(np.array([0.7]), np.array([-2.0]))
        assert val == pytest.approx((1.0 - CLIP) * -2.0)
        assert g[0] == 0.0

    def test_pessimistic_branch_still_pulls_back_outside_the_clip(self):
        _, g = surrogate_and_grad(np.array([1.3]), np.array([-1.0]))
        assert g[0] != 0.0

    def test_clip_bounds_gradient_region(self):
        ratios = np.array([0.5, 0.9, 1.0, 1.1, 1.5])
        adv = np.ones(5)
        _, g = surrogate_and_grad(ratios, adv)
        # ratio 0.5 is below the clip floor but unclipped branch is smaller
        assert g[0] != 0.0
        assert g[-1] == 0.0   # above the ceiling with positive advantage


class TestPolicyPieces:
    def test_gaussian_entropy_matches_closed_form(self):
        pol = GaussianPolicy(8, np.random.default_rng(0))
        sig = np.exp(pol.log_std.values)
        want = float(np.sum(np.log(sig)) + 0.5 * 2 * (1 + np.log(2 * np.pi)))
        assert pol.entropy() == pytest.approx(want, abs=1e-12)

    def test_logp_matches_scipy_style_formula(self):
        pol = GaussianPolicy(4, np.random.default_rng(1))
        obs = np.random.default_rng(2).standard_normal((5, 4))
        acts, logps = pol.act(obs, np.random.default_rng(3))
        mu = pol.mean(obs)
        sig = np.exp(pol.log_std.values)
        want = (-0.5 * np.sum(((acts - mu) / sig) ** 2, axis=1)
                - np.sum(np.log(sig)) - np.log(2 * np.pi))
        np.testing.assert_allclose(logps, want, atol=1e-12)

    def test_advantage_normalization_hits_unit_moments(self):
        adv = np.random.default_rng(4).standard_normal(512) * 3 + 1
        out, skipped = normalize_advantages(adv)
        assert not skipped
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6

    def test_degenerate_advantages_skip_normalization(self):
        adv = np.full(64, 0.3)
        out, skipped = normalize_advantages(adv)
        assert skipped
        np.testing.assert_array_equal(out, adv)

    def test_ppo_update_runs_and_reports_stats(self):
        rng = np.random.default_rng(5)
        pol = GaussianPolicy(6, rng)
        crit = Critic(6, rng)
        n = 64
        obs = rng.standard_normal((n, 6))
        acts, logp = pol.act(obs, rng)
        stats = ppo_update(pol, crit, Adam(pol.params(), 1e-3),
                           Adam(crit.params(), 1e-3), obs, obs, acts, logp,
                           rng.standard_normal(n), rng.standard_normal(n), rng)
        assert np.isfinite(stats.surrogate)
        assert stats.value_loss >= 0
        assert 0 <= stats.clip_fraction <= 1


class TestMeanBound:
    def test_zero_inside_the_action_box(self):
        val, g = mean_bound_loss(np.array([[0.9, -MEAN_BOUND], [0.0, 0.5]]))
        assert val == 0.0
        assert (g == 0.0).all()

    def test_value_and_gradient_match_finite_differences(self):
        mu = np.array([[2.0, -3.0], [0.2, 1.5]])
        val, g = mean_bound_loss(mu)
        assert val == pytest.approx((1.0 + 4.0 + 0.25) / 2, abs=1e-12)
        eps = 1e-6
        for idx in np.ndindex(mu.shape):
            up, dn = mu.copy(), mu.copy()
            up[idx] += eps
            dn[idx] -= eps
            fd = (mean_bound_loss(up)[0] - mean_bound_loss(dn)[0]) / (2 * eps)
            assert g[idx] == pytest.approx(fd, abs=1e-6)

    def test_update_pulls_a_saturated_mean_back_toward_the_box(self):
        # with uninformative (constant) advantages the surrogate is flat, so
        # only the bound moves a mean that the action clip would freeze
        rng = np.random.default_rng(6)
        pol = GaussianPolicy(6, rng)
        pol.actor.layer_params[-1]["b"].values[...] = [3.0, -3.0]
        crit = Critic(6, rng)
        n = 64
        obs = rng.standard_normal((n, 6))
        before = pol.mean(obs)
        acts, logp = pol.act(obs, rng)
        ppo_update(pol, crit, Adam(pol.params(), 1e-2), Adam(crit.params(), 1e-3),
                   obs, obs, acts, logp, np.zeros(n), np.zeros(n), rng)
        after = pol.mean(obs)
        assert after[:, 0].mean() < before[:, 0].mean()
        assert after[:, 1].mean() > before[:, 1].mean()
