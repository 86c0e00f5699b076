"""Command sampling ranges and the distance-based level curriculum."""

import numpy as np
import pytest

from redloco.errors import ContractError
from redloco.world import sample_command, update_curriculum
from redloco.world.commands import YAW_CMD_RANGE


class TestSampling:
    def test_phase_one_speeds_never_drop_below_point_two(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            assert sample_command(rng, 1).c_x >= 0.2

    def test_phase_two_reaches_near_zero_speeds(self):
        rng = np.random.default_rng(1)
        draws = [sample_command(rng, 2).c_x for _ in range(10_000)]
        assert min(draws) < 0.02
        assert max(draws) <= 1.0

    def test_phase_two_draws_include_an_exact_standstill(self):
        rng = np.random.default_rng(2)
        assert any(sample_command(rng, 2).c_x == 0.0 for _ in range(5000))

    def test_yaw_frozen_within_configured_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            c = sample_command(rng, 1)
            assert abs(c.c_yaw) <= YAW_CMD_RANGE

    def test_invalid_phase_rejected(self):
        with pytest.raises(ContractError):
            sample_command(np.random.default_rng(0), 3)


class TestCurriculum:
    def test_strong_episode_promotes(self):
        assert update_curriculum(3, distance=0.9, commanded=1.0) == 4

    def test_weak_episode_demotes_but_clamps_at_zero(self):
        assert update_curriculum(0, distance=0.2, commanded=1.0) == 0
        assert update_curriculum(5, distance=0.2, commanded=1.0) == 4

    def test_middling_episode_holds(self):
        assert update_curriculum(4, distance=0.6, commanded=1.0) == 4

    def test_top_level_clamped(self):
        assert update_curriculum(9, distance=1.0, commanded=1.0) == 9

    def test_zero_command_episode_keeps_level(self):
        assert update_curriculum(7, distance=0.0, commanded=0.0) == 7

    def test_boundaries_match_thresholds_exactly(self):
        assert update_curriculum(2, distance=0.8, commanded=1.0) == 3
        assert update_curriculum(2, distance=0.79999, commanded=1.0) == 2
        assert update_curriculum(2, distance=0.4, commanded=1.0) == 2
        assert update_curriculum(2, distance=0.39999, commanded=1.0) == 1
