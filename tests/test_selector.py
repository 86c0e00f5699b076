"""Switching filter oracle, threshold calibration, anomaly autoencoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.config import SelectorConfig, WorldConfig, desk_config
from redloco.errors import ContractError
from redloco.selector import (MODE_OP, MODE_VP, anomaly_scores, autoencode,
                              build_autoencoder, calibrate_beta, filter_update,
                              implausibility, loss_ad, loss_ad_batch, make_selector,
                              min_flip_ticks, near_depth_bound, select_latent,
                              trace_record)
from redloco.sensor import (STAGE_RANDOMIZED, DepthImage, edge_truncate_stack,
                            inject_occlusion, render_batch)
from redloco.world import PlanarWorld


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


class TestSelectLatent:
    def test_vision_half_active_above_half(self):
        st_ = make_selector(1.0, 0.1, init_p=0.6)
        f = select_latent(st_, np.ones(4), 2 * np.ones(4))
        assert f.mask == 0
        np.testing.assert_array_equal(f.h[4:], 2.0)

    def test_exactly_half_selects_proprioception(self):
        st_ = make_selector(1.0, 0.1, init_p=0.5)
        assert st_.mode == MODE_OP
        f = select_latent(st_, np.ones(4), 2 * np.ones(4))
        assert f.mask == 1

    def test_below_half_selects_proprioception(self):
        st_ = make_selector(1.0, 0.1, init_p=0.4)
        assert select_latent(st_, np.ones(4), np.ones(4)).mask == 1


class TestAutoencoder:
    def test_zero_initialized_net_reconstructs_a_constant(self):
        ae = build_autoencoder(SelectorConfig(), 12, 16, np.random.default_rng(0))
        for p in ae.params():
            p.values[...] = 0.0
        frames = np.random.default_rng(1).uniform(0.1, 2.0, (2, 12, 16))
        recon = autoencode(ae, frames)
        assert np.ptp(recon) == 0.0
        const = float(recon.reshape(-1)[0])
        assert loss_ad(frames, recon) == pytest.approx(
            float(np.mean((frames - const) ** 2)), abs=1e-15)

    def test_identical_reconstruction_scores_zero(self):
        frames = np.random.default_rng(2).uniform(0.1, 2.0, (2, 12, 16))
        assert loss_ad(frames, frames.copy()) == 0.0

    def test_constant_offset_scores_its_square(self):
        frames = np.random.default_rng(3).uniform(0.1, 2.0, (2, 12, 16))
        assert loss_ad(frames, frames + 0.1) == pytest.approx(0.01, abs=1e-12)

    def test_symmetric_under_frame_order_for_symmetric_inputs(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 2.0, (12, 16))
        frames = np.stack([a, a])
        recon = np.stack([a + 0.05, a + 0.05])
        assert loss_ad(frames, recon) == loss_ad(frames[::-1], recon[::-1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            loss_ad(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))


class TestAnomalyScore:
    WORLD = WorldConfig()
    CAM = desk_config().camera

    def test_near_bound_comes_from_the_mount_geometry(self):
        near = near_depth_bound(self.WORLD, self.CAM)
        assert near == pytest.approx(0.15 - 0.10 - 0.01, abs=1e-12)
        assert near > self.CAM.min_depth

    def test_occluded_pair_scores_above_any_clean_range_beta(self):
        rng = np.random.default_rng(6)
        ae = build_autoencoder(SelectorConfig(), 12, 16, rng)
        near = near_depth_bound(self.WORLD, self.CAM)
        # clean-range frames sit at or beyond the near bound; reconstructions
        # anywhere in the camera range
        clean = rng.uniform(near, self.CAM.max_range, (256, 2, 12, 16))
        recon = rng.uniform(self.CAM.min_depth, self.CAM.max_range, clean.shape)
        beta = calibrate_beta(anomaly_scores(clean, recon, self.WORLD, self.CAM))
        occluded = np.full((1, 2, 12, 16), self.CAM.min_depth)
        onset = np.stack([clean[0, 1], occluded[0, 0]])[None]
        for pair in (occluded, onset):
            score = anomaly_scores(pair, autoencode(ae, pair), self.WORLD, self.CAM)
            assert score[0] > beta

    def test_occlusion_is_anomalous_even_when_reconstructed_exactly(self):
        occluded = np.full((3, 2, 12, 16), self.CAM.min_depth)
        scores = anomaly_scores(occluded, occluded.copy(), self.WORLD, self.CAM)
        span = self.CAM.max_range - self.CAM.min_depth
        np.testing.assert_allclose(scores, span * span, rtol=1e-12)

    def test_rendered_frames_are_plausible(self):
        cfg = desk_config()
        kinds = ["flat", "rough", "stairs_up", "stairs_down", "gap", "platform"]
        worlds = [PlanarWorld(cfg.world, k, np.random.default_rng(i), level=9)
                  for i, k in enumerate(kinds)]
        rngs = [np.random.default_rng(10 + i) for i in range(len(kinds))]
        near = near_depth_bound(cfg.world, cfg.camera)
        for _ in range(40):
            frames = edge_truncate_stack(render_batch(worlds, cfg.camera, rngs)[0],
                                         cfg.camera.edge_border)
            pairs = np.stack([frames, frames], axis=1)
            assert (implausibility(pairs, near, cfg.camera.min_depth) == 0.0).all()
            recon = pairs + 0.05
            np.testing.assert_array_equal(
                anomaly_scores(pairs, recon, cfg.world, cfg.camera),
                loss_ad_batch(pairs, recon))
            for w in worlds:
                for _ in range(4):
                    if w.step([0.6, 0.0]).done:
                        w.reset_episode()
        occ = inject_occlusion(DepthImage(frames[0], (0, 0, 0, 0), STAGE_RANDOMIZED),
                               cfg.camera.min_depth).data
        assert implausibility(np.stack([occ, occ])[None], near,
                              cfg.camera.min_depth)[0] == 1.0


class TestTraceExport:
    def test_record_carries_the_documented_fields(self):
        st_ = make_selector(0.05, 0.1)
        st_ = filter_update(st_, 0.2)
        rec = trace_record(st_, sim_step=35, loss_value=0.2)
        assert set(rec) == {"schema", "step", "loss_ad", "beta", "P", "mode", "switched"}
        assert rec["schema"] == "selector-trace/v1"
        assert rec["step"] == 35
        assert rec["mode"] in (MODE_OP, MODE_VP)
