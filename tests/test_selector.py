"""Switching filter oracle, threshold calibration, anomaly autoencoder."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.config import SelectorConfig, desk_config
from redloco.errors import ContractError
from redloco.selector import (MODE_OP, MODE_VP, anomaly_scores, build_autoencoder,
                              calibrate_beta, filter_step, filter_update, implausibility,
                              loss_ad_batch, make_selector, min_flip_ticks, near_depth_bound,
                              trace_record)
from redloco.sensor import edge_truncate_resize, inject_occlusion, render_batch
from redloco.sensor.camera import MAX_RANGE, MIN_DEPTH
from redloco.world import BatchWorld


def reference_filter(gamma, votes, p0=1.0):
    """Independently coded low-pass recurrence (the oracle)."""
    ps = []
    p = p0
    for v in votes:
        p = (1 - gamma) * p + gamma * v
        ps.append(p)
    return ps


def run_filter(gamma, losses, beta=1.0, p0=1.0):
    st_ = make_selector(beta, gamma, init_p=p0)
    states = []
    for lv in losses:
        st_ = filter_update(st_, lv)
        states.append(st_)
    return states


class TestFilterOracle:
    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 1.0])
    def test_step_impulse_and_alternating_inputs_match_the_recurrence(self, gamma):
        patterns = {
            "step": [2.0] * 40,
            "impulse": [0.0] * 10 + [2.0] + [0.0] * 29,
            "alternating": [0.0, 2.0] * 20,
        }
        for name, losses in patterns.items():
            votes = [1.0 if lv < 1.0 else 0.0 for lv in losses]
            expected = reference_filter(gamma, votes)
            got = [s.p for s in run_filter(gamma, losses)]
            np.testing.assert_allclose(got, expected, atol=1e-12, err_msg=name)

    def test_step_input_flips_exactly_at_tick_seven_for_default_gamma(self):
        states = run_filter(0.1, [2.0] * 10)
        modes = [s.mode for s in states]
        assert modes[:6] == [MODE_VP] * 6
        assert modes[6] == MODE_OP            # 7th update
        assert states[6].switched
        assert states[5].p == pytest.approx(0.9 ** 6) and states[5].p > 0.5
        assert states[6].p == pytest.approx(0.9 ** 7) and states[6].p <= 0.5

    def test_recovery_flips_back_at_tick_seven_by_symmetry(self):
        states = run_filter(0.1, [0.0] * 10, p0=0.0)
        flips = [i for i, s in enumerate(states) if s.switched]
        assert flips == [6]
        assert states[6].mode == MODE_VP

    def test_single_opposing_update_keeps_the_mode(self):
        st_ = make_selector(1.0, 0.1, init_p=1.0)
        st_ = filter_update(st_, 5.0)
        assert st_.p == pytest.approx(0.9)
        assert st_.mode == MODE_VP
        assert not st_.switched

    def test_alternating_inputs_from_half_point_stay_near_half(self):
        # the alternating limit cycle is 1/(2-gamma) over (1-gamma)/(2-gamma),
        # which straddles 0.5, so the mode tracks P's side each tick; P itself
        # stays within the oscillation band
        st_ = make_selector(1.0, 0.1, init_p=0.5)
        assert st_.mode == MODE_OP            # vision needs P strictly above half
        for k in range(40):
            st_ = filter_update(st_, 2.0 if k % 2 else 0.0)
            assert 0.45 <= st_.p <= 0.55
            assert st_.mode == (MODE_VP if st_.p > 0.5 else MODE_OP)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_probability_stays_in_the_unit_interval(self, seed, gamma):
        rng = np.random.default_rng(seed)
        st_ = make_selector(0.5, gamma, init_p=float(rng.random()))
        for lv in rng.uniform(0, 1, 60):
            st_ = filter_update(st_, float(lv))
            assert 0.0 <= st_.p <= 1.0

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_constant_votes_converge_geometrically_with_one_switch_at_most(self, gamma):
        st_ = make_selector(1.0, gamma, init_p=1.0)
        switches = 0
        prev_gap = 1.0
        for _ in range(200):
            st_ = filter_update(st_, 2.0)
            switches += st_.switched
            gap = abs(st_.p - 0.0)
            assert gap <= prev_gap * (1 - gamma) + 1e-12
            prev_gap = gap
        assert switches <= 1

    def test_min_dwell_matches_the_closed_form(self):
        for gamma, want in ((0.05, 14), (0.1, 7), (0.3, 2), (1.0, 1)):
            assert min_flip_ticks(gamma) == want
            states = run_filter(gamma, [2.0] * 40)
            first_flip = next(i for i, s in enumerate(states) if s.switched) + 1
            assert first_flip == want

    def test_gamma_one_is_the_unfiltered_threshold_test(self):
        losses = [0.2, 2.0, 0.1, 3.0, 0.6]
        states = run_filter(1.0, losses, beta=1.0)
        modes = [s.mode for s in states]
        want = [MODE_VP if lv < 1.0 else MODE_OP for lv in losses]
        assert modes == want


class TestFilterStep:
    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 1.0])
    def test_matches_filter_update_robot_by_robot(self, gamma):
        rng = np.random.default_rng(int(100 * gamma))
        beta, ticks, robots = 0.5, 300, 6
        # score regimes 30 ticks long, so every gamma gets to flip the mode
        high = np.repeat(rng.random((ticks // 30, robots)) < 0.5, 30, axis=0)
        losses = np.where(high, rng.uniform(0.5, 1.0, (ticks, robots)),
                          rng.uniform(0.0, 0.5, (ticks, robots)))
        losses[rng.random((ticks, robots)) < 0.1] = beta      # votes 0, like a high score
        valid = rng.random((ticks, robots)) > 0.2
        losses[~valid & (rng.random((ticks, robots)) < 0.5)] = np.nan
        p = np.ones(robots)
        states = [make_selector(beta, gamma) for _ in range(robots)]
        flips = 0
        for k in range(ticks):
            new_p = filter_step(p, losses[k], valid[k], beta, gamma)
            for i in range(robots):
                if valid[k, i]:
                    states[i] = filter_update(states[i], float(losses[k, i]))
                assert new_p[i].tobytes() == np.float64(states[i].p).tobytes(), (k, i)
                assert (new_p[i] > 0.5) == (states[i].mode == MODE_VP)
                flipped = (new_p[i] > 0.5) != (p[i] > 0.5)
                assert flipped == (valid[k, i] and states[i].switched)
                flips += flipped
            p = new_p
        assert flips >= robots

    def test_a_score_equal_to_beta_votes_anomalous(self):
        p = filter_step(np.ones(2), np.array([0.5, 0.4]), np.ones(2, bool), 0.5, 1.0)
        assert p.tolist() == [0.0, 1.0]


class TestCalibration:
    def test_beta_is_the_maximum(self):
        assert calibrate_beta([0.001, 0.004, 0.002]) == 0.004

    def test_singleton(self):
        assert calibrate_beta([0.7]) == 0.7

    def test_smaller_losses_never_move_beta(self):
        base = calibrate_beta([0.01, 0.02])
        assert calibrate_beta([0.01, 0.02, 0.015]) == base

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            calibrate_beta([])


class TestAutoencoder:
    def test_zero_initialized_net_reconstructs_a_constant(self):
        ae = build_autoencoder(SelectorConfig(), 12, 16, np.random.default_rng(0))
        for p in ae.params():
            p.values[...] = 0.0
        frames = np.random.default_rng(1).uniform(0.1, 2.0, (1, 2, 12, 16))
        recon, _, _ = ae.forward(frames)
        assert np.ptp(recon) == 0.0
        const = float(recon.reshape(-1)[0])
        assert loss_ad_batch(frames, recon)[0] == pytest.approx(
            float(np.mean((frames - const) ** 2)), abs=1e-15)

    def test_identical_reconstruction_scores_zero(self):
        frames = np.random.default_rng(2).uniform(0.1, 2.0, (1, 2, 12, 16))
        assert loss_ad_batch(frames, frames.copy())[0] == 0.0

    def test_constant_offset_scores_its_square(self):
        frames = np.random.default_rng(3).uniform(0.1, 2.0, (1, 2, 12, 16))
        assert loss_ad_batch(frames, frames + 0.1)[0] == pytest.approx(0.01, abs=1e-12)

    def test_symmetric_under_frame_order_for_symmetric_inputs(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 2.0, (12, 16))
        frames = np.stack([a, a])[None]
        recon = np.stack([a + 0.05, a + 0.05])[None]
        assert loss_ad_batch(frames, recon) == loss_ad_batch(frames[:, ::-1], recon[:, ::-1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            loss_ad_batch(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 5)))


class TestAnomalyScore:
    CAM = desk_config().camera

    def test_near_bound_comes_from_the_mount_geometry(self):
        near = near_depth_bound(self.CAM)
        assert near == pytest.approx(0.15 - 0.10 - 0.01, abs=1e-12)
        assert near > MIN_DEPTH

    def test_occluded_pair_scores_above_any_clean_range_beta(self):
        rng = np.random.default_rng(6)
        ae = build_autoencoder(SelectorConfig(), 12, 16, rng)
        near = near_depth_bound(self.CAM)
        # clean-range frames sit at or beyond the near bound; reconstructions
        # anywhere in the camera range
        clean = rng.uniform(near, MAX_RANGE, (256, 2, 12, 16))
        recon = rng.uniform(MIN_DEPTH, MAX_RANGE, clean.shape)
        beta = calibrate_beta(anomaly_scores(clean, recon, self.CAM))
        occluded = np.full((1, 2, 12, 16), MIN_DEPTH)
        onset = np.stack([clean[0, 1], occluded[0, 0]])[None]
        for pair in (occluded, onset):
            score = anomaly_scores(pair, ae.forward(pair)[0], self.CAM)
            assert score[0] > beta

    def test_occlusion_is_anomalous_even_when_reconstructed_exactly(self):
        occluded = np.full((3, 2, 12, 16), MIN_DEPTH)
        scores = anomaly_scores(occluded, occluded.copy(), self.CAM)
        span = MAX_RANGE - MIN_DEPTH
        np.testing.assert_allclose(scores, span * span, rtol=1e-12)

    def test_rendered_frames_are_plausible(self):
        cfg = desk_config()
        kinds = ["flat", "rough", "stairs_up", "stairs_down", "gap", "platform"]
        world = BatchWorld(cfg.world, kinds, [np.random.default_rng(i) for i in range(6)],
                           [9] * 6)
        rngs = [np.random.default_rng(10 + i) for i in range(len(kinds))]
        near = near_depth_bound(cfg.camera)
        for _ in range(40):
            frames = edge_truncate_resize(render_batch(world, cfg.camera, rngs)[0],
                                          cfg.camera.edge_border)
            pairs = np.stack([frames, frames], axis=1)
            assert (implausibility(pairs, near, MIN_DEPTH) == 0.0).all()
            recon = pairs + 0.05
            np.testing.assert_array_equal(
                anomaly_scores(pairs, recon, cfg.camera),
                loss_ad_batch(pairs, recon))
            for _ in range(4):
                world.reset(np.flatnonzero(world.step(np.tile([0.6, 0.0], (6, 1))).done))
        occ = inject_occlusion(frames[0], MIN_DEPTH)
        assert implausibility(np.stack([occ, occ])[None], near,
                              MIN_DEPTH)[0] == 1.0


class TestTraceExport:
    def test_record_carries_the_documented_fields(self):
        st_ = make_selector(0.05, 0.1)
        st_ = filter_update(st_, 0.2)
        rec = trace_record(np.int64(35), np.float64(0.2), st_.beta, np.float64(st_.p),
                           np.bool_(st_.switched))
        assert set(rec) == {"schema", "step", "loss_ad", "beta", "P", "mode", "switched"}
        assert rec["schema"] == "selector-trace/v1"
        assert rec["step"] == 35
        assert rec["mode"] == st_.mode
        assert rec["P"] == st_.p and rec["switched"] is False
        assert json.loads(json.dumps(rec)) == rec
