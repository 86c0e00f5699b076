"""Raycast depth rendering against heightfields.

Rays march cell boundaries exactly (piecewise-constant columns), so flat
ground matches the closed-form ray-plane distance to float precision. The
image's column axis fans rays across a horizontal FOV over the same sagittal
profile; a yawed ray sees the profile stretched by 1/cos(yaw). Void cells
are bottomless: rays pass over them and may hit the far wall, otherwise they
run out at max range.

The march works on a live-ray set, a 1-D form of the voxel traversal of
Amanatides & Woo (1987). Rays that cannot come down to their env's highest
solid cell within range are never marched; each falling ray starts one cell
before the point where it first reaches that height, with the ray parameter
the full march would carry into that cell; and rays that hit or ran out
leave the set, which is compacted to the live rays whenever half of it is
done. The depths are the same bits as a march of every ray from its first
cell.
"""

from __future__ import annotations

import numpy as np

from ..config import CameraConfig
from ..errors import ContractError
from ..world.batch import BatchWorld
from ..world.terrain import CELL_SIZE
from .camera import (ADD_NOISE_STD, ANG_JITTER, FOV_H, FOV_V, MAX_RANGE, MIN_DEPTH,
                     MOUNT_FORWARD, MOUNT_PITCH, MOUNT_UP, POS_JITTER, PROP_NOISE_STD)


def march_rays(heights: np.ndarray, void: np.ndarray, cell_size: float,
               x0: np.ndarray, z0: np.ndarray, dx: np.ndarray, dz: np.ndarray,
               max_range: float, env_ids: np.ndarray) -> np.ndarray:
    """Distance to first heightfield intersection for each ray.

    ``heights``/``void`` are (envs, cells); ``env_ids`` gives each ray's
    field. Rays must advance forward (dx > 0). Returns max_range where
    nothing is hit within range. Only live rays are marched (see the module
    docstring).
    """
    heights = np.asarray(heights, dtype=np.float64)
    void = np.asarray(void)
    if heights.ndim != 2 or void.shape != heights.shape:
        raise ContractError(f"heights {heights.shape} and void {void.shape} must be "
                            f"the same (envs, cells) shape")
    n_cells = heights.shape[1]
    solid_h = np.where(void, -np.inf, heights)

    dx = np.maximum(np.asarray(dx, dtype=np.float64), 1e-9)
    dz = np.asarray(dz, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64)
    env = np.asarray(env_ids, dtype=np.intp)
    depth = np.full(x0.shape, max_range)

    idx0 = np.clip(np.floor(x0 / cell_size).astype(np.intp), 0, n_cells - 1)
    falling = dz < 0
    # Until a ray comes down to its env's highest solid cell (void counts as
    # -inf, so an all-void env has none) it can hit nothing; t_reach is when
    # it passes 1e-6 above that height.
    h_max = solid_h.max(axis=1)[env]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_reach = (z0 - h_max - 1e-6) / -dz
    # A falling ray starts one cell before the one where t_reach lands, with
    # the t = (j * cell_size - x0) / dx the march would carry into cell j.
    x_reach = np.where(falling & (t_reach > 0), x0 + t_reach * dx, -np.inf)
    idx = np.maximum(np.clip(np.floor(x_reach / cell_size) - 1, 0, n_cells), idx0
                     ).astype(np.intp)
    skipped = idx > idx0
    t_cur = np.where(skipped, (idx * cell_size - x0) / dx, 0.0)
    # a ray visits at most max_iters cells, and none past the grid
    stop = np.minimum(idx0 + (int(np.ceil(max_range / cell_size)) + 2), n_cells)
    # Never marched: a falling ray still above h_max at max range, a rising
    # ray that starts above it, a ray skipped past its last cell or max range.
    alive = (np.where(falling, t_reach <= max_range, z0 <= h_max)
             & (idx < stop) & ~(skipped & (t_cur >= max_range)))
    ray = np.arange(x0.size)
    row = env * n_cells
    flat_h = solid_h.ravel()

    with np.errstate(divide="ignore", invalid="ignore"):    # t_h of level rays
        while (n_alive := np.count_nonzero(alive)):
            # once half the rays are done, keep only the live ones; compacting
            # less often spares the work and the heap churn of many sizes
            if 2 * n_alive <= alive.size:
                keep = np.flatnonzero(alive)
                ray, row, idx, stop, x0, z0, dx, dz, t_cur = (
                    a.take(keep) for a in (ray, row, idx, stop, x0, z0, dx, dz, t_cur))
                alive = np.ones(n_alive, dtype=bool)
            t_b = ((idx + 1) * cell_size - x0) / dx
            # floor hit inside the current cell segment [t_cur, t_b]
            t_h = (flat_h[row + np.minimum(idx, n_cells - 1)] - z0) / dz
            hit_floor = (alive & (dz < 0) & (t_h >= t_cur - 1e-12) & (t_h <= t_b + 1e-12)
                         & (t_h <= max_range))
            # wall hit at the boundary into the next cell
            idx = idx + 1
            h_next = flat_h[row + np.minimum(idx, n_cells - 1)]
            hit_wall = alive & (idx < n_cells) & (z0 + t_b * dz < h_next) & (t_b <= max_range)
            hit = hit_floor | hit_wall
            depth[ray[hit]] = np.where(hit_floor, t_h, t_b)[hit]
            t_cur = t_b
            alive &= ~hit & (idx < stop) & (t_cur < max_range)
    return depth


def _ray_geometry(cam: CameraConfig, body_x: np.ndarray, body_z: np.ndarray,
                  body_pitch: np.ndarray, d_pos: np.ndarray, d_pitch: np.ndarray,
                  d_yaw: np.ndarray):
    """Camera pose and (E, H, W) ray directions of E bodies; ``d_pos`` is
    (E, 2), the other arguments (E,)."""
    cp, sp = np.cos(body_pitch), np.sin(body_pitch)
    cam_x = body_x + cp * MOUNT_FORWARD - sp * MOUNT_UP + d_pos[:, 0]
    cam_z = body_z + sp * MOUNT_FORWARD + cp * MOUNT_UP + d_pos[:, 1]
    depression = MOUNT_PITCH - body_pitch + d_pitch
    rows = depression[:, None] + np.linspace(-FOV_V / 2, FOV_V / 2, cam.height)
    cols = d_yaw[:, None] + np.linspace(-FOV_H / 2, FOV_H / 2, cam.width)
    dz = np.broadcast_to(-np.sin(rows)[:, :, None], (len(rows), cam.height, cam.width))
    dx = np.cos(rows)[:, :, None] * np.cos(cols)[:, None, :]
    return cam_x, cam_z, depression, dx, dz


def render_batch(world: BatchWorld, camera: CameraConfig,
                 rngs: list[np.random.Generator], randomize: bool = True
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One frame per env with a single shared ray march: the (E, H, W) depth
    stack and the (E, 4) camera poses (x, z, depression, yaw offset).

    With ``randomize``: uniform pose jitter (position, pitch, yaw) before
    casting, then proportional range noise, then additive Gaussian noise,
    then a re-clip into (0, max_range]. That composition order is pinned.
    Each env draws from ``rngs[i]``: its 4 jitter uniforms in a first pass
    over the envs, its 2 noise fields (one (2, H, W) draw) in a second.
    """
    n = len(world)
    shape = (camera.height, camera.width)
    jitter = np.zeros((n, 4))          # d_x, d_z, d_pitch, d_yaw
    if randomize:
        for i, rng in enumerate(rngs):
            rng.random(out=jitter[i])
        # low + (high - low) * u is rng.uniform's own arithmetic, so these are
        # the bits of four scalar uniform(-bound, bound) draws per env
        bound = np.array([POS_JITTER, POS_JITTER, ANG_JITTER, ANG_JITTER])
        jitter = -bound + 2.0 * bound * jitter
    cam_x, cam_z, depression, dx, dz = _ray_geometry(
        camera, world.x, world.z, world.pitch, jitter[:, :2], jitter[:, 2], jitter[:, 3])
    per = camera.height * camera.width
    depth = march_rays(world.heights, world.void, CELL_SIZE, np.repeat(cam_x, per),
                       np.repeat(cam_z, per), dx.ravel(), dz.ravel(), MAX_RANGE,
                       env_ids=np.repeat(np.arange(n, dtype=np.intp), per))
    data = depth.reshape(n, *shape)
    if randomize:
        noise = np.empty((n, 2, *shape))     # proportional, additive
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=noise[i])
        data = data * (1.0 + PROP_NOISE_STD * noise[:, 0])
        data = data + ADD_NOISE_STD * noise[:, 1]
    data = np.clip(data, MIN_DEPTH, MAX_RANGE)
    return data, np.column_stack([cam_x, cam_z, depression, jitter[:, 3]])


def edge_truncate_resize(data: np.ndarray, border: int) -> np.ndarray:
    """Crop a pixel border off the last two axes of ``data``, e.g. an (E, H, W)
    frame stack, then bilinearly resample the interior back to (H, W).
    Border 0 is an exact identity."""
    h, w = data.shape[-2:]
    if border < 0 or 2 * border >= min(h, w):
        raise ContractError(f"border {border} too large for {h}x{w} frame")
    if border == 0:
        return data.copy()
    return _bilinear_resize(data[..., border:h - border, border:w - border], h, w)


def _bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample the last two axes of ``src`` to (out_h, out_w)."""
    in_h, in_w = src.shape[-2:]
    ys = np.linspace(0.0, in_h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, in_w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    a = src[..., y0[:, None], x0]
    b = src[..., y0[:, None], x1]
    c = src[..., y1[:, None], x0]
    d = src[..., y1[:, None], x1]
    top = a + (b - a) * fx
    bot = c + (d - c) * fx
    return top + (bot - top) * fy
