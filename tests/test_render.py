"""Raycaster oracles: closed-form intersections, the full march as the
reference of the live-ray march, clipping, determinism, randomization
statistics."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.config import CameraConfig, WorldConfig
from redloco.errors import ContractError
from redloco.sensor import dump_text, edge_truncate_resize, march_rays, render_batch
from redloco.sensor.camera import (ADD_NOISE_STD, FOV_H, FOV_V, MAX_RANGE, MIN_DEPTH,
                                   MOUNT_PITCH, PROP_NOISE_STD)
from redloco.world import TERRAIN_KINDS, BatchWorld, generate_terrain, make_command
from redloco.world.batch import STAND_HEIGHT
from redloco.world.terrain import CELL_SIZE, SPAWN_X

render_mod = importlib.import_module("redloco.sensor.render")


def flat_world(seed=0, cfg=None):
    w = BatchWorld(cfg or WorldConfig(), ["flat"], [np.random.default_rng(seed)])
    w.reset([0], [make_command(0.5)])
    w.pitch[0] = 0.0
    return w


def render_one(w, cam, rng=None, randomize=False):
    """The frame and pose row of a one-env world, from `render_batch`."""
    data, poses = render_batch(w, cam, [rng], randomize)
    return data[0], poses[0]


def ray_angles(cam):
    rows = MOUNT_PITCH + np.linspace(-FOV_V / 2, FOV_V / 2, cam.height)
    cols = np.linspace(-FOV_H / 2, FOV_H / 2, cam.width)
    return rows, cols


class TestClosedForms:
    def test_forty_five_degree_ray_on_flat_ground(self):
        d = march_rays(np.zeros((1, 400)), np.zeros((1, 400), bool), 0.05,
                       np.array([5.0]), np.array([0.3]),
                       np.array([np.cos(np.pi / 4)]), np.array([-np.sin(np.pi / 4)]), 2.0,
                       np.zeros(1, dtype=np.intp))
        assert d[0] == pytest.approx(0.3 / np.sin(np.pi / 4), abs=1e-12)

    def test_flat_render_matches_ray_plane_distance_everywhere(self):
        cam = CameraConfig()
        w = flat_world()
        data, pose = render_one(w, cam)
        cam_x, cam_z, dep, _ = pose
        rows, _ = ray_angles(cam)
        expected = np.where(np.sin(rows) > 1e-12,
                            cam_z / np.maximum(np.sin(rows), 1e-12), MAX_RANGE)
        expected = np.clip(expected, MIN_DEPTH, MAX_RANGE)
        # depth is independent of column yaw on flat ground
        assert np.abs(data - expected[:, None]).max() < 1e-6

    def test_single_step_terrain_matches_piecewise_closed_form(self):
        cfg = WorldConfig()
        cam = CameraConfig(height=12, width=16)
        w = flat_world(cfg=cfg)
        hf = generate_terrain("flat", 0, 0)
        step_x, step_h = 6.0, 0.4
        i = int(step_x / CELL_SIZE)
        hf.heights[i:] = step_h
        w.set_terrain(0, hf)
        w.x[0] = 5.0
        w.z[0] = STAND_HEIGHT
        data, pose = render_one(w, cam)
        cam_x, cam_z, dep, _ = pose
        rows, cols = ray_angles(cam)
        for r in range(cam.height):
            for c in range(cam.width):
                dz = -np.sin(rows[r])
                dx = np.cos(rows[r]) * np.cos(cols[c])
                best = MAX_RANGE
                if dz < 0:
                    t = (0.0 - cam_z) / dz
                    if cam_x + t * dx < step_x:
                        best = min(best, t)
                    t_top = (step_h - cam_z) / dz
                    if t_top > 0 and cam_x + t_top * dx >= step_x:
                        best = min(best, t_top)
                t_wall = (step_x - cam_x) / dx
                if 0 < t_wall and 0.0 <= cam_z + t_wall * dz < step_h:
                    best = min(best, t_wall)
                want = np.clip(best, MIN_DEPTH, MAX_RANGE)
                assert data[r, c] == pytest.approx(want, abs=1e-6), (r, c)

    def test_rays_over_a_void_span_run_out_at_max_range(self):
        heights = np.zeros((1, 400))
        void = np.zeros((1, 400), bool)
        void[0, 80:] = True
        d = march_rays(heights, void, 0.05, np.array([4.5]), np.array([0.35]),
                       np.array([0.9]), np.array([-0.05]), 2.0, np.zeros(1, dtype=np.intp))
        assert d[0] == 2.0

    def test_fields_must_be_envs_by_cells(self):
        with pytest.raises(ContractError, match="envs, cells"):
            march_rays(np.zeros(400), np.zeros(400, bool), 0.05, np.array([4.5]),
                       np.array([0.35]), np.array([0.9]), np.array([-0.05]), 2.0,
                       np.zeros(1, dtype=np.intp))


def reference_march(heights, void, cell_size, x0, z0, dx, dz, max_range, env_ids):
    """The full march: every ray from its first cell, a fixed number of
    full-width steps. `march_rays` must return the same bits."""
    heights = np.asarray(heights, dtype=np.float64)
    void = np.asarray(void)
    n_cells = heights.shape[1]
    solid_h = np.where(void, -np.inf, heights)

    dx = np.maximum(np.asarray(dx, dtype=np.float64), 1e-9)
    dz = np.asarray(dz, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64)

    idx = np.clip(np.floor(x0 / cell_size).astype(np.intp), 0, n_cells - 1)
    t_cur = np.zeros_like(x0)
    depth = np.full(x0.shape, max_range)
    active = np.ones(x0.shape, dtype=bool)
    falling = dz < 0
    safe_dz = np.where(dz == 0, 1.0, dz)

    max_iters = int(np.ceil(max_range / cell_size)) + 2
    for _ in range(max_iters):
        if not active.any():
            break
        h_here = solid_h[env_ids, idx]
        t_b = ((idx + 1) * cell_size - x0) / dx
        # floor hit inside the current cell segment [t_cur, t_b]
        t_h = np.where(falling, (h_here - z0) / safe_dz, np.inf)
        hit_floor = (active & falling & (t_h >= t_cur - 1e-12)
                     & (t_h <= t_b + 1e-12) & (t_h <= max_range))
        depth = np.where(hit_floor, t_h, depth)
        active &= ~hit_floor
        # wall hit at the boundary into the next cell
        nidx = idx + 1
        in_grid = nidx < n_cells
        h_next = solid_h[env_ids, np.minimum(nidx, n_cells - 1)]
        z_b = z0 + t_b * dz
        hit_wall = active & in_grid & (z_b < h_next) & (t_b <= max_range)
        depth = np.where(hit_wall, t_b, depth)
        active &= ~hit_wall
        idx = np.minimum(nidx, n_cells - 1)
        t_cur = t_b
        active &= in_grid & (t_cur < max_range)
    return depth


@st.composite
def ray_fields(draw):
    """Random (envs, cells) fields with voids, all-void rows and tall walls,
    and rays that start outside the grid, run level, rise from below or
    above the highest cell, first reach it within 1e-9 of max range, or
    have non-unit directions."""
    n_envs = draw(st.integers(1, 4))
    n_cells = draw(st.integers(2, 60))
    cell_size = draw(st.sampled_from([0.05, 0.037, 0.1]))
    max_range = draw(st.sampled_from([0.4, 2.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    heights = rng.uniform(-0.5, 0.8, (n_envs, n_cells))
    heights[rng.random((n_envs, n_cells)) < draw(st.sampled_from([0.0, 0.1]))] += 3.0
    void = rng.random((n_envs, n_cells)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    if draw(st.booleans()):
        void[rng.integers(n_envs)] = True
    n = 64
    env = rng.integers(0, n_envs, n)
    x0 = rng.uniform(-0.3, n_cells * cell_size + 0.3, n)
    z0 = rng.uniform(-0.6, 1.5, n)
    pitch = rng.uniform(-1.5, 1.5, n)
    dx = np.cos(pitch) * np.cos(rng.uniform(-0.6, 0.6, n))
    dz = -np.sin(pitch)
    dz[::9] = 0.0
    # direction vectors longer than 1 outlast the march's cell budget
    dx[5::9] *= 3.0
    dz[5::9] *= 3.0
    h_max = np.where(void, -np.inf, heights).max(axis=1)[env]
    finite = np.isfinite(h_max)
    # rising from just below and just above the highest solid cell
    rise = finite & (np.arange(n) % 9 == 4)
    dz[rise] = 0.3
    z0[rise] = h_max[rise] + np.where(np.arange(n)[rise] % 2, 0.02, -0.02)
    # falling rays that first reach the highest cell at max_range + {-1e-9, 0, 1e-9}
    edge = finite & (np.arange(n) % 9 == 7)
    dz[edge] = -np.abs(dz[edge]) - 0.05
    z0[edge] = h_max[edge] - (max_range + (np.arange(n)[edge] % 3 - 1) * 1e-9) * dz[edge]
    return heights, void, cell_size, x0, z0, dx, dz, max_range, env


class TestLiveRayMarch:
    @settings(max_examples=300, deadline=None)
    @given(ray_fields())
    def test_live_march_returns_the_bits_of_the_full_march(self, case):
        heights, void, cell_size, x0, z0, dx, dz, max_range, env = case
        got = march_rays(heights, void, cell_size, x0, z0, dx, dz, max_range, env_ids=env)
        want = reference_march(heights, void, cell_size, x0, z0, dx, dz, max_range, env)
        assert np.array_equal(got, want)

    def test_frames_on_every_terrain_match_the_full_march(self, monkeypatch):
        cam = CameraConfig(height=12, width=16)
        kinds = [k for k in TERRAIN_KINDS for _ in range(3)]
        levels = [0, 5, 9] * len(TERRAIN_KINDS)

        def frames():
            cfg = WorldConfig()
            world = BatchWorld(cfg, kinds,
                               [np.random.default_rng(s) for s in range(len(kinds))], levels)
            # stand the robots at points along the course, not only at spawn
            x = SPAWN_X + 1.3 * (np.arange(len(kinds)) % 4)
            support = world.support(x)
            world.x[:] = x
            world.z[:] = np.where(np.isfinite(support), support, 0.0) + STAND_HEIGHT
            return render_batch(world, cam, [np.random.default_rng([3, i])
                                             for i in range(len(kinds))], randomize=True)

        live, live_poses = frames()
        monkeypatch.setattr(render_mod, "march_rays", reference_march)
        full, full_poses = frames()
        assert live.tobytes() == full.tobytes()
        assert live_poses.tobytes() == full_poses.tobytes()


class TestInvariantsAndDeterminism:
    def test_all_values_in_range_at_every_stage(self):
        cam = CameraConfig(height=12, width=16)
        w = BatchWorld(WorldConfig(), ["gap"], [np.random.default_rng(5)], [7])
        rng = np.random.default_rng(9)
        raw, _ = render_one(w, cam)
        rand, _ = render_one(w, cam, rng, randomize=True)
        crop = edge_truncate_resize(rand, 2)
        for data in (raw, rand, crop):
            assert data.min() > 0
            assert data.max() <= MAX_RANGE

    def test_raw_render_is_deterministic(self):
        cam = CameraConfig(height=12, width=16)
        w = flat_world(3)
        a, _ = render_one(w, cam)
        b, _ = render_one(w, cam)
        assert a.tobytes() == b.tobytes()

    def test_randomized_render_is_deterministic_given_the_seed(self):
        cam = CameraConfig(height=12, width=16)
        w = flat_world(3)
        a, _ = render_one(w, cam, np.random.default_rng(7), randomize=True)
        b, _ = render_one(w, cam, np.random.default_rng(7), randomize=True)
        assert a.tobytes() == b.tobytes()
        c, _ = render_one(w, cam, np.random.default_rng(8), randomize=True)
        assert a.tobytes() != c.tobytes()

    @pytest.mark.parametrize("randomize", [False, True])
    def test_batch_render_matches_kind_of_single_renders(self, randomize):
        # each env draws from its own generator, seeded alike on both sides,
        # so the randomized case pins the per-env draw order of the batch
        cam = CameraConfig(height=12, width=16)
        kinds = ("flat", "stairs_up", "gap", "platform")
        batch = BatchWorld(WorldConfig(), list(kinds),
                           [np.random.default_rng(s) for s in range(4)], [9] * 4)
        worlds = [BatchWorld(WorldConfig(), [kind], [np.random.default_rng(s)], [9])
                  for s, kind in enumerate(kinds)]
        frames, poses = render_batch(batch, cam,
                                     [np.random.default_rng([5, i]) for i in range(4)],
                                     randomize=randomize)
        assert frames.shape == (4, 12, 16) and poses.shape == (4, 4)
        for i, w in enumerate(worlds):
            single, pose = render_batch(w, cam, [np.random.default_rng([5, i])],
                                        randomize=randomize)
            assert frames[i].tobytes() == single[0].tobytes()
            assert tuple(poses[i]) == tuple(pose[0])

    def test_batch_draws_are_each_envs_scalar_uniforms_then_two_fields(self, monkeypatch):
        # the draw order of the first batched render: per env four scalar
        # uniform jitters (x, z, pitch, yaw), then per env the proportional
        # field and the additive field
        cam = CameraConfig(height=12, width=16)
        n = 5
        world = BatchWorld(WorldConfig(), ["flat", "gap", "rough", "stairs_up", "flat"],
                           [np.random.default_rng(s) for s in range(n)], [7] * n)
        seen = {}

        def geometry(*args):
            seen["jitter"] = np.column_stack([args[4], args[5], args[6]])
            return ray_geometry(*args)

        def march(*args, **kw):
            seen["depth"] = march_rays(*args, **kw)
            return seen["depth"]

        ray_geometry = render_mod._ray_geometry
        monkeypatch.setattr(render_mod, "_ray_geometry", geometry)
        monkeypatch.setattr(render_mod, "march_rays", march)
        frames, _ = render_batch(world, cam, [np.random.default_rng([4, i]) for i in range(n)])

        rngs = [np.random.default_rng([4, i]) for i in range(n)]
        p, a = cam.pos_jitter, cam.ang_jitter
        jitter = np.array([[r.uniform(-p, p), r.uniform(-p, p), r.uniform(-a, a),
                            r.uniform(-a, a)] for r in rngs])
        assert seen["jitter"].tobytes() == jitter.tobytes()
        fields = [(r.standard_normal((12, 16)), r.standard_normal((12, 16))) for r in rngs]
        prop = np.stack([f[0] for f in fields])
        add = np.stack([f[1] for f in fields])
        want = seen["depth"].reshape(n, 12, 16) * (1.0 + PROP_NOISE_STD * prop)
        want = np.clip(want + ADD_NOISE_STD * add, MIN_DEPTH, MAX_RANGE)
        assert frames.tobytes() == want.tobytes()

    def test_noise_statistics_match_the_model(self):
        # empirical std of randomized depths vs sqrt(var_add + (prop*d)^2)
        cam = CameraConfig(height=48, width=64, ang_jitter=0.0, pos_jitter=0.0)
        w = flat_world()
        raw, _ = render_one(w, cam)
        rng = np.random.default_rng(123)
        samples = np.stack([
            render_one(w, cam, rng, randomize=True)[0] for _ in range(40)])
        inner = raw < MAX_RANGE - 0.3   # keep away from the clip
        inner &= raw > 0.4
        d = raw[inner]
        emp_std = samples[:, inner].std(axis=0)
        want = np.sqrt(ADD_NOISE_STD ** 2 + (PROP_NOISE_STD * d) ** 2)
        ratio = emp_std.mean() / want.mean()
        assert 0.9 < ratio < 1.1


class TestEdgeTruncateResize:
    def test_border_zero_is_identity(self):
        data, _ = render_one(flat_world(), CameraConfig(height=12, width=16))
        out = edge_truncate_resize(data, 0)
        assert out.tobytes() == data.tobytes()

    def test_constant_image_survives_any_border(self):
        data = np.full((12, 16), 1.37)
        for border in (1, 2, 3):
            out = edge_truncate_resize(data, border)
            np.testing.assert_allclose(out, 1.37, atol=1e-12)
            assert out.shape == (12, 16)

    def test_corner_pixels_derive_from_interior_after_crop(self):
        data = np.ones((12, 16))
        data[0, :] = 0.01    # contaminated edge
        data[:, 0] = 0.01
        out = edge_truncate_resize(data, 2)
        assert out.shape == (12, 16)
        assert out[0, 0] == pytest.approx(1.0)

    def test_stack_matches_frame_by_frame(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(0.01, 2.0, (5, 12, 16))
        out = edge_truncate_resize(stack, 2)
        for frame, want in zip(stack, out):
            assert edge_truncate_resize(frame, 2).tobytes() == want.tobytes()

    def test_oversized_border_rejected(self):
        with pytest.raises(ContractError):
            edge_truncate_resize(np.ones((12, 16)), 6)


def test_depth_frame_dump_writes_the_header_and_every_pixel_exactly():
    data, pose = render_one(flat_world(), CameraConfig(height=12, width=16))
    lines = dump_text(data, pose, False).splitlines()
    assert lines[:5] == ["schema: depth-frame/v1", "rows: 12", "cols: 16",
                         "stage: raw",
                         "pose: " + " ".join(repr(float(v)) for v in pose)]
    assert len(lines) == 5 + 12
    for row, line in zip(data, lines[5:]):
        assert line.split() == [repr(float(v)) for v in row]
