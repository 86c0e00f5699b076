"""Estimator pipelines: buffers, forward semantics, fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.errors import ContractError
from redloco.estimators import (DepthBuffer, HimTargetEncoder, NetConfig, OpEstimator,
                                ProprioBuffer, VpEstimator, fuse_batch, loss_op, loss_vp, mse)
from redloco.selector.autoencoder import PAIR_FRAMES
from redloco.world import OBS_DIM

CFG = NetConfig(history_len=4, embed_hidden=8, embed_out=6, cnn_channels=(2, 3, 4),
                encoder_hidden=8, encoder_out=6, gru_hidden=8, latent=5, z_dim=4,
                him_hidden=6)
OBS = 5
HW = (12, 16)
K = 7


def obs_batch(b, rng):
    return rng.standard_normal((b, CFG.history_len * OBS))


class _EnvHistory:
    """Per-env reference for the batched buffers: the last `length` entries,
    oldest first, None for a slot not pushed since the last reset."""

    def __init__(self, length):
        self.items = [None] * length

    def push(self, item):
        self.items = self.items[1:] + [item]

    def reset(self):
        self.items = [None] * len(self.items)


class TestBuffers:
    def test_proprio_warmup_is_zero_padded_then_exact_length(self):
        buf = ProprioBuffer(2, 4)
        assert buf.flat().shape == (2, 4 * OBS_DIM)
        np.testing.assert_array_equal(buf.flat(), 0.0)
        for k in range(6):
            buf.push(np.full((2, OBS_DIM), float(k)))
        np.testing.assert_array_equal(buf.data[:, :, 0], [[2, 3, 4, 5]] * 2)

    def test_flat_is_oldest_first(self):
        buf = ProprioBuffer(1, 3)
        for k in range(3):
            buf.push([[k] * OBS_DIM])
        np.testing.assert_array_equal(buf.flat(), [np.repeat([0, 1, 2], OBS_DIM)])

    def test_depth_buffer_tracks_rendered_and_clean_slots(self):
        buf = DepthBuffer(2, *HW)
        assert not buf.rendered.any() and not buf.clean.any()
        buf.push(np.ones((2,) + HW), np.array([False, True]))
        np.testing.assert_array_equal(buf.rendered, [[False, True], [False, True]])
        np.testing.assert_array_equal(buf.clean, [[False, True], [False, False]])
        buf.push(np.ones((2,) + HW), np.zeros(2, dtype=bool))
        np.testing.assert_array_equal(buf.rendered, True)
        np.testing.assert_array_equal(buf.clean, [[True, True], [False, True]])
        buf.reset([1])
        np.testing.assert_array_equal(buf.rendered, [[True, True], [False, False]])
        np.testing.assert_array_equal(buf.clean, [[True, True], [False, False]])
        np.testing.assert_array_equal(buf.data[1], 0.0)
        np.testing.assert_array_equal(buf.data[0], 1.0)

    def test_wrong_shapes_rejected(self):
        with pytest.raises(ContractError):
            ProprioBuffer(2, 4).push(np.zeros((2, OBS_DIM - 1)))
        with pytest.raises(ContractError):
            ProprioBuffer(2, 4).push(np.zeros(OBS_DIM))
        with pytest.raises(ContractError):
            DepthBuffer(2, *HW).push(np.ones((2, 3, 3)), np.zeros(2, dtype=bool))
        with pytest.raises(ContractError):
            DepthBuffer(2, *HW).push(np.ones(HW), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_buffers_match_per_env_reference(self, seed):
        # random pushes, corruptions and resets of env subsets, checked
        # against one plain list-of-slots history per env
        rng = np.random.default_rng(seed)
        n, h, od, d = 5, 4, OBS_DIM, PAIR_FRAMES
        pbuf, dbuf = ProprioBuffer(n, h), DepthBuffer(n, *HW)
        p_ref = [_EnvHistory(h) for _ in range(n)]
        d_ref = [_EnvHistory(d) for _ in range(n)]
        for _ in range(40):
            obs = rng.standard_normal((n, od))
            pbuf.push(obs)
            for i in range(n):
                p_ref[i].push(obs[i])
            if rng.random() < 0.5:
                frames = rng.uniform(0.01, 2.0, (n,) + HW)
                corrupted = rng.random(n) < 0.3
                dbuf.push(frames, corrupted)
                for i in range(n):
                    d_ref[i].push((frames[i], bool(corrupted[i])))
            ids = np.flatnonzero(rng.random(n) < 0.2)
            pbuf.reset(ids)
            dbuf.reset(ids)
            for i in ids:
                p_ref[i].reset()
                d_ref[i].reset()
            for i in range(n):
                p_rows = [np.zeros(od) if x is None else x for x in p_ref[i].items]
                np.testing.assert_array_equal(pbuf.data[i], p_rows)
                np.testing.assert_array_equal(pbuf.flat()[i], np.concatenate(p_rows))
                d_rows = [np.zeros(HW) if x is None else x[0] for x in d_ref[i].items]
                np.testing.assert_array_equal(dbuf.data[i], d_rows)
                np.testing.assert_array_equal(dbuf.newest_pair()[i], d_rows[-2:])
                slots = d_ref[i].items
                assert dbuf.rendered.all(axis=1)[i] == all(x is not None for x in slots)
                assert dbuf.clean.all(axis=1)[i] == all(
                    x is not None and not x[1] for x in slots)


class TestOpEstimator:
    def test_zero_head_weights_produce_zero_velocity(self):
        rng = np.random.default_rng(0)
        op = OpEstimator(CFG, OBS, rng)
        for p in op.stacks["head_v"].params():
            p.values[...] = 0.0
        out, _ = op.forward(obs_batch(3, rng), op.zero_hidden(3))
        np.testing.assert_array_equal(out.v_hat, 0.0)

    def test_history_is_used_oldest_entry_matters(self):
        rng = np.random.default_rng(1)
        op = OpEstimator(CFG, OBS, rng)
        a = obs_batch(1, rng)
        b = a.copy()
        b[0, 0] += 0.5  # oldest slot of the flattened history
        h = op.zero_hidden(1)
        out_a, _ = op.forward(a, h)
        out_b, _ = op.forward(b, h)
        assert not np.allclose(out_a.h, out_b.h)

    def test_repeated_input_drives_hidden_to_a_fixed_point(self):
        rng = np.random.default_rng(2)
        op = OpEstimator(CFG, OBS, rng)
        x = obs_batch(1, rng)
        h = op.zero_hidden(1)
        for _ in range(100):
            prev = h
            out, _ = op.forward(x, h)
            h = out.gru_hidden
        assert np.abs(h - prev).max() < 1e-6

    def test_output_shapes(self):
        rng = np.random.default_rng(3)
        op = OpEstimator(CFG, OBS, rng)
        out, _ = op.forward(obs_batch(4, rng), op.zero_hidden(4))
        assert out.h.shape == (4, CFG.latent)
        assert out.v_hat.shape == (4, 2)
        assert out.z_o.shape == (4, CFG.z_dim)
        assert out.h_f_hat is None and out.m_t_hat is None


class TestVpEstimator:
    def _vp(self, seed=0):
        return VpEstimator(CFG, OBS, HW, K, np.random.default_rng(seed)), CFG

    def test_depth_content_changes_the_latent(self):
        rng = np.random.default_rng(4)
        vp, _ = self._vp()
        obs = obs_batch(2, rng)
        flat_depth = np.full((2, 2) + HW, 2.0)
        structured = rng.uniform(0.1, 2.0, (2, 2) + HW)
        h = vp.zero_hidden(2)
        out_a, _ = vp.forward(obs, flat_depth, h)
        out_b, _ = vp.forward(obs, structured, h)
        assert not np.allclose(out_a.h, out_b.h)

    def test_zero_initialized_heads_predict_zero_clearance(self):
        rng = np.random.default_rng(5)
        vp, _ = self._vp(5)
        for p in vp.stacks["head_hf"].params():
            p.values[...] = 0.0
        out, _ = vp.forward(obs_batch(1, rng), rng.uniform(0.1, 2, (1, 2) + HW),
                            vp.zero_hidden(1))
        np.testing.assert_array_equal(out.h_f_hat, 0.0)

    def test_vision_head_widths(self):
        rng = np.random.default_rng(6)
        vp, cfg = self._vp(6)
        out, _ = vp.forward(obs_batch(3, rng), rng.uniform(0.1, 2, (3, 2) + HW),
                            vp.zero_hidden(3))
        assert out.h_f_hat.shape == (3, 2)
        assert out.m_t_hat.shape == (3, K)
        assert vp.cnn_out_shape == (4, 2, 2)  # 12x16 through three stride-2 convs

    def test_latent_has_the_configured_width(self):
        rng = np.random.default_rng(7)
        vp, cfg = self._vp(7)
        out, _ = vp.forward(obs_batch(2, rng), rng.uniform(0.1, 2, (2, 2) + HW),
                            vp.zero_hidden(2))
        assert out.h.shape == (2, cfg.latent)
        assert np.isfinite(out.h).all()


class TestBuildOrder:
    def test_stacks_are_built_in_the_pinned_order(self):
        # the build order fixes the init draws and the checkpoint entry names
        rng = np.random.default_rng(8)
        op = OpEstimator(CFG, OBS, rng)
        vp = VpEstimator(CFG, OBS, HW, K, rng)
        assert list(op.stacks) == ["embed", "gru", "head_h", "head_v", "head_z", "enc"]
        assert list(vp.stacks) == ["embed", "cnn", "gru", "head_h", "head_v", "head_z",
                                   "head_hf", "head_mt", "enc"]


class TestHimTarget:
    def test_zero_weights_map_to_zero_latent(self):
        rng = np.random.default_rng(11)
        him = HimTargetEncoder(CFG, OBS, rng)
        for p in him.params():
            p.values[...] = 0.0
        z, _ = him.forward(rng.standard_normal((3, OBS)), rng.standard_normal((3, 2)))
        np.testing.assert_array_equal(z, 0.0)

    def test_identical_latents_have_zero_target_loss(self):
        z = np.random.default_rng(12).standard_normal((4, CFG.z_dim))
        val, grad = mse(z, z)
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0.0)


class TestLossConventions:
    def _out(self, rng, b=1):
        op = OpEstimator(CFG, OBS, rng)
        out, _ = op.forward(obs_batch(b, rng), op.zero_hidden(b))
        return out

    def test_perfect_predictions_score_zero(self):
        rng = np.random.default_rng(13)
        out = self._out(rng)
        val, _ = loss_op(out, out.v_hat.copy(), out.z_o.copy())
        assert val == 0.0

    def test_velocity_error_uses_mean_over_components(self):
        rng = np.random.default_rng(14)
        out = self._out(rng)
        v_true = out.v_hat + np.array([[0.1, 0.0]])
        val, _ = loss_op(out, v_true, out.z_o.copy())
        assert val == pytest.approx(0.01 / 2, abs=1e-15)

    def test_vision_loss_is_the_sum_of_four_terms(self):
        rng = np.random.default_rng(15)
        vp = VpEstimator(CFG, OBS, HW, K, rng)
        out, _ = vp.forward(obs_batch(2, rng), rng.uniform(0.1, 2, (2, 2) + HW),
                            vp.zero_hidden(2))
        v_true = rng.standard_normal((2, 2))
        z_hat = rng.standard_normal((2, CFG.z_dim))
        h_f = rng.uniform(0, 2, (2, 2))
        m_t = rng.uniform(-1, 1, (2, K))
        total, _ = loss_vp(out, v_true, z_hat, h_f, m_t)
        parts = (mse(out.v_hat, v_true)[0] + mse(out.z_o, z_hat)[0]
                 + mse(out.h_f_hat, h_f)[0] + mse(out.m_t_hat, m_t)[0])
        assert total == pytest.approx(parts, abs=1e-15)

    def test_constant_profile_offset_contributes_its_square(self):
        rng = np.random.default_rng(16)
        vp = VpEstimator(CFG, OBS, HW, K, rng)
        out, _ = vp.forward(obs_batch(1, rng), rng.uniform(0.1, 2, (1, 2) + HW),
                            vp.zero_hidden(1))
        c = 0.3
        base, _ = loss_vp(out, out.v_hat.copy(), out.z_o.copy(), out.h_f_hat.copy(),
                          out.m_t_hat.copy())
        offset, _ = loss_vp(out, out.v_hat.copy(), out.z_o.copy(), out.h_f_hat.copy(),
                            out.m_t_hat + c)
        assert base == 0.0
        assert offset == pytest.approx(c * c, abs=1e-12)


def fuse_row(h_b, h_v, mask):
    """`fuse_batch` of one (latent,) pair."""
    return fuse_batch(h_b[None], h_v[None], np.array([mask]))[0]


class TestFusion:
    def test_mask_one_keeps_proprio_half(self):
        h_b = np.arange(1.0, 6.0)
        h_v = -np.arange(1.0, 6.0)
        h = fuse_row(h_b, h_v, 1)
        np.testing.assert_array_equal(h[:5], h_b)
        np.testing.assert_array_equal(h[5:], 0.0)

    def test_mask_zero_keeps_vision_half(self):
        h_b = np.arange(1.0, 6.0)
        h_v = -np.arange(1.0, 6.0)
        h = fuse_row(h_b, h_v, 0)
        np.testing.assert_array_equal(h[:5], 0.0)
        np.testing.assert_array_equal(h[5:], h_v)

    def test_zero_latents_fuse_to_zero_either_way(self):
        z = np.zeros(4)
        for m in (0, 1):
            np.testing.assert_array_equal(fuse_row(z, z, m), 0.0)

    def test_invalid_mask_rejected(self):
        with pytest.raises(ContractError):
            fuse_row(np.zeros(3), np.zeros(3), 2)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_exclusivity_property(self, seed, mask):
        rng = np.random.default_rng(seed)
        h_b = rng.standard_normal(8)
        h_v = rng.standard_normal(8)
        h = fuse_row(h_b, h_v, mask)
        assert h.shape == (16,)
        active, zeroed = (h[:8], h[8:]) if mask == 1 else (h[8:], h[:8])
        source = h_b if mask == 1 else h_v
        assert (zeroed == 0.0).all()
        assert active.tobytes() == source.tobytes()

    def test_batch_fusion_matches_rowwise(self):
        rng = np.random.default_rng(17)
        h_b = rng.standard_normal((6, 4))
        h_v = rng.standard_normal((6, 4))
        masks = np.array([0, 1, 1, 0, 1, 0])
        fused = fuse_batch(h_b, h_v, masks)
        for i in range(6):
            want = (np.concatenate([h_b[i], np.zeros(4)]) if masks[i] == 1
                    else np.concatenate([np.zeros(4), h_v[i]]))
            assert fused[i].tobytes() == want.tobytes()
