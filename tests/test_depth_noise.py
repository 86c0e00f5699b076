"""Deployment noise injectors: exact pixel counts, statistics, clipping."""

import numpy as np
import pytest

from redloco.errors import ContractError
from redloco.sensor import (GAUSSIAN_SIGMA_MAX, inject_gaussian, inject_occlusion,
                            inject_salt_pepper)
from redloco.sensor.camera import MAX_RANGE, MIN_DEPTH


def frame(h=48, w=64, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.8, (h, w)) if fill is None else np.full((h, w), fill)


class TestSaltPepper:
    def test_level_ten_alters_exactly_307_pixels_on_a_full_frame(self):
        img = frame()
        out = inject_salt_pepper(img, 10.0, np.random.default_rng(1))
        changed = np.sum(out != img)
        assert changed == round(0.10 * 48 * 64) == 307

    def test_changed_pixels_sit_at_the_extremes_others_bitwise_equal(self):
        img = frame()
        out = inject_salt_pepper(img, 30.0, np.random.default_rng(2))
        moved = out != img
        assert np.isin(out[moved], (0.01, 2.0)).all()
        assert (out[~moved] == img[~moved]).all()
        assert img.tobytes() == frame().tobytes()      # the input is left alone

    def test_level_zero_keeps_the_image(self):
        img = frame()
        out = inject_salt_pepper(img, 0.0, np.random.default_rng(3))
        assert out.tobytes() == img.tobytes()

    def test_level_hundred_replaces_everything(self):
        img = frame()
        out = inject_salt_pepper(img, 100.0, np.random.default_rng(4))
        assert np.isin(out, (0.01, 2.0)).all()

    def test_salt_and_pepper_roughly_balanced(self):
        img = frame()
        out = inject_salt_pepper(img, 70.0, np.random.default_rng(5))
        moved = out != img
        frac_salt = np.mean(out[moved] == 2.0)
        assert 0.4 < frac_salt < 0.6

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ContractError):
            inject_salt_pepper(frame(), 101.0, np.random.default_rng(0))


class TestGaussian:
    def test_level_zero_keeps_the_image(self):
        img = frame()
        out = inject_gaussian(img, 0.0, np.random.default_rng(6))
        assert out.tobytes() == img.tobytes()
        assert out is not img

    def test_full_level_std_approximates_half_a_meter_preclip(self):
        # one standard normal per pixel, scaled by 0.5 m, then the re-clip
        img = np.full((320, 320), 1.0)
        out = inject_gaussian(img, 100.0, np.random.default_rng(7))
        draw = np.random.default_rng(7).standard_normal(img.shape)
        assert out.tobytes() == np.clip(img + GAUSSIAN_SIGMA_MAX * draw, MIN_DEPTH,
                                        MAX_RANGE).tobytes()
        assert GAUSSIAN_SIGMA_MAX == 0.5

    def test_scaled_levels_scale_the_std(self):
        # a mid-range pixel sits 6.6 std inside the clip at level 30, so the
        # clip touches none of them
        rng = np.random.default_rng(8)
        img = np.full((320, 320), (MIN_DEPTH + MAX_RANGE) / 2)
        out = inject_gaussian(img, 30.0, rng)
        assert (out > MIN_DEPTH).all() and (out < MAX_RANGE).all()
        assert np.std(out - img) == pytest.approx(0.3 * GAUSSIAN_SIGMA_MAX, rel=0.05)

    def test_output_clipped_into_sensor_range(self):
        img = frame()
        out = inject_gaussian(img, 100.0, np.random.default_rng(9))
        assert out.min() >= 0.01
        assert out.max() <= 2.0


def test_occlusion_floors_every_pixel():
    out = inject_occlusion(frame())
    np.testing.assert_array_equal(out, 0.01)
    assert out.shape == (48, 64)
