"""Terrain generation: determinism and the difficulty each level builds."""

import numpy as np
import pytest

from redloco.errors import ContractError
from redloco.world import N_LEVELS, TERRAIN_KINDS, generate_terrain
from redloco.world.terrain import (CELL_SIZE, GAP_WIDTH_RANGE, PLATFORM_HEIGHT_RANGE,
                                   ROUGH_AMP_RANGE, STEP_HEIGHT_RANGE)

STAIR_STEPS = 8


def at_level(span, level):
    """The schedule's value at ``level``, in the generator's operation order."""
    return span[0] + (span[1] - span[0]) * level / (N_LEVELS - 1)


def void_runs(void):
    """Lengths of the runs of void cells."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], void.astype(int), [0]])))
    return edges[1::2] - edges[::2]


def test_flat_is_all_zero_with_no_voids():
    heights, void = generate_terrain("flat", 4, 123)
    np.testing.assert_array_equal(heights, 0.0)
    assert not void.any()


def test_generation_is_deterministic_per_kind_level_seed():
    for kind in TERRAIN_KINDS:
        a_heights, a_void = generate_terrain(kind, 3, 77)
        b_heights, b_void = generate_terrain(kind, 3, 77)
        assert a_heights.tobytes() == b_heights.tobytes()
        assert (a_void == b_void).all()


def test_gap_width_strictly_larger_at_top_level():
    assert void_runs(generate_terrain("gap", 9, 5)[1]).max() > \
        void_runs(generate_terrain("gap", 0, 5)[1]).max()


def test_stair_step_heights_follow_the_schedule():
    heights, _ = generate_terrain("stairs_up", 3, 11)
    rises = np.diff(heights)
    rises = rises[rises > 1e-9]
    np.testing.assert_allclose(rises, at_level(STEP_HEIGHT_RANGE, 3), atol=1e-12)


@pytest.mark.parametrize("level", range(N_LEVELS))
def test_every_level_builds_its_scheduled_geometry(level):
    # stairs: the treads stand at whole multiples of the level's step height
    step = at_level(STEP_HEIGHT_RANGE, level)
    treads = {step * (k + 1) for k in range(STAIR_STEPS)}
    assert set(generate_terrain("stairs_up", level, 3)[0]) == {0.0} | treads
    top = step * STAIR_STEPS
    assert set(generate_terrain("stairs_down", level, 3)[0]) == {top} | {top - t for t in treads}
    # gap: every void run is the level's width in whole cells
    width = max(int(round(at_level(GAP_WIDTH_RANGE, level) / CELL_SIZE)), 1)
    assert set(void_runs(generate_terrain("gap", level, 3)[1])) == {width}
    # platform: every raised cell stands at the level's height
    heights, _ = generate_terrain("platform", level, 3)
    assert set(heights) == {0.0, at_level(PLATFORM_HEIGHT_RANGE, level)}
    # rough: a smoothed draw within +- the level's amplitude
    heights, _ = generate_terrain("rough", level, 3)
    assert 0.0 < np.abs(heights).max() <= at_level(ROUGH_AMP_RANGE, level)


def test_every_schedule_grows_with_level():
    for span in (STEP_HEIGHT_RANGE, GAP_WIDTH_RANGE, PLATFORM_HEIGHT_RANGE, ROUGH_AMP_RANGE):
        vals = [at_level(span, lv) for lv in range(N_LEVELS)]
        assert all(b > a for a, b in zip(vals, vals[1:])), span


def test_void_cells_only_on_gap_terrain():
    for kind in TERRAIN_KINDS:
        _, void = generate_terrain(kind, 9, 1)
        assert void.any() == (kind == "gap")


def test_level_out_of_range_rejected():
    with pytest.raises(ContractError):
        generate_terrain("flat", 10, 0)
    with pytest.raises(ContractError):
        generate_terrain("volcano", 0, 0)
