"""Deployment noise injectors: exact pixel counts, statistics, clipping."""

import numpy as np
import pytest

from redloco.errors import ContractError
from redloco.sensor import (GAUSSIAN_SIGMA_MAX, inject_gaussian, inject_occlusion,
                            inject_salt_pepper)
from redloco.sensor.camera import MAX_RANGE, MIN_DEPTH


CLIP = (MAX_RANGE, MIN_DEPTH)


def frame(h=48, w=64, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.8, (h, w)) if fill is None else np.full((h, w), fill)


class TestSaltPepper:
    def test_level_ten_alters_exactly_307_pixels_on_a_full_frame(self):
        img = frame()
        out = inject_salt_pepper(img, 10.0, np.random.default_rng(1), *CLIP)
        changed = np.sum(out != img)
        assert changed == round(0.10 * 48 * 64) == 307

    def test_changed_pixels_sit_at_the_extremes_others_bitwise_equal(self):
        img = frame()
        out = inject_salt_pepper(img, 30.0, np.random.default_rng(2), *CLIP)
        moved = out != img
        assert np.isin(out[moved], (0.01, 2.0)).all()
        assert (out[~moved] == img[~moved]).all()
        assert img.tobytes() == frame().tobytes()      # the input is left alone

    def test_level_zero_keeps_the_image(self):
        img = frame()
        out = inject_salt_pepper(img, 0.0, np.random.default_rng(3), *CLIP)
        assert out.tobytes() == img.tobytes()

    def test_level_hundred_replaces_everything(self):
        img = frame()
        out = inject_salt_pepper(img, 100.0, np.random.default_rng(4), *CLIP)
        assert np.isin(out, (0.01, 2.0)).all()

    def test_salt_and_pepper_roughly_balanced(self):
        img = frame()
        out = inject_salt_pepper(img, 70.0, np.random.default_rng(5), *CLIP)
        moved = out != img
        frac_salt = np.mean(out[moved] == 2.0)
        assert 0.4 < frac_salt < 0.6

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ContractError):
            inject_salt_pepper(frame(), 101.0, np.random.default_rng(0), *CLIP)


class TestGaussian:
    def test_level_zero_keeps_the_image(self):
        img = frame()
        out = inject_gaussian(img, 0.0, np.random.default_rng(6), *CLIP)
        assert out.tobytes() == img.tobytes()
        assert out is not img

    def test_full_level_std_approximates_half_a_meter_preclip(self):
        rng = np.random.default_rng(7)
        img = np.full((320, 320), 1.0)
        out = inject_gaussian(img, 100.0, rng, max_range=10.0, min_depth=-10.0)
        noise = out - img
        assert noise.size >= 1e5
        assert np.std(noise) == pytest.approx(GAUSSIAN_SIGMA_MAX, rel=0.05)

    def test_scaled_levels_scale_the_std(self):
        rng = np.random.default_rng(8)
        img = np.full((320, 320), 1.0)
        out = inject_gaussian(img, 30.0, rng, max_range=10.0, min_depth=-10.0)
        assert np.std(out - img) == pytest.approx(0.3 * GAUSSIAN_SIGMA_MAX,
                                                            rel=0.05)

    def test_output_clipped_into_sensor_range(self):
        img = frame()
        out = inject_gaussian(img, 100.0, np.random.default_rng(9), *CLIP)
        assert out.min() >= 0.01
        assert out.max() <= 2.0


def test_occlusion_floors_every_pixel():
    out = inject_occlusion(frame(), MIN_DEPTH)
    np.testing.assert_array_equal(out, 0.01)
    assert out.shape == (48, 64)
