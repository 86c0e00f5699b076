"""Terrain generation: determinism and difficulty schedules."""

import numpy as np
import pytest

from redloco.config import WorldConfig
from redloco.errors import ContractError
from redloco.world import N_LEVELS, TERRAIN_KINDS, generate_terrain

CFG = WorldConfig()


def test_flat_is_all_zero_with_no_voids():
    hf = generate_terrain("flat", 4, 123, CFG)
    np.testing.assert_array_equal(hf.heights, 0.0)
    assert not hf.void.any()


def test_generation_is_deterministic_per_kind_level_seed():
    for kind in TERRAIN_KINDS:
        a = generate_terrain(kind, 3, 77, CFG)
        b = generate_terrain(kind, 3, 77, CFG)
        assert a.heights.tobytes() == b.heights.tobytes()
        assert (a.void == b.void).all()


def test_gap_width_strictly_larger_at_top_level():
    cfg = WorldConfig()

    def first_gap_cells(level):
        hf = generate_terrain("gap", level, 5, cfg)
        runs, count = [], 0
        for v in hf.void:
            if v:
                count += 1
            elif count:
                runs.append(count)
                count = 0
        return max(runs)

    assert first_gap_cells(9) > first_gap_cells(0)


def test_stair_step_heights_follow_the_schedule():
    cfg = WorldConfig()
    hf = generate_terrain("stairs_up", 3, 11, cfg)
    lo, hi = cfg.step_height_range
    expected = lo + (hi - lo) * 3 / (N_LEVELS - 1)
    rises = np.diff(hf.heights)
    rises = rises[rises > 1e-9]
    np.testing.assert_allclose(rises, expected, atol=1e-12)
    assert hf.difficulty["step_height"] == pytest.approx(expected)


def test_difficulty_nondecreasing_in_level_for_every_kind():
    for kind in TERRAIN_KINDS:
        # each kind's one difficulty parameter; flat has none and reads 0
        vals = [sum(generate_terrain(kind, lv, 0, CFG).difficulty.values())
                for lv in range(N_LEVELS)]
        assert all(b >= a for a, b in zip(vals, vals[1:])), kind
        if kind != "flat":
            assert vals[-1] > vals[0]


def test_void_cells_only_on_gap_terrain():
    for kind in TERRAIN_KINDS:
        hf = generate_terrain(kind, 9, 1, CFG)
        assert hf.void.any() == (kind == "gap")


def test_level_out_of_range_rejected():
    with pytest.raises(ContractError):
        generate_terrain("flat", 10, 0, CFG)
    with pytest.raises(ContractError):
        generate_terrain("volcano", 0, 0, CFG)

