"""Raycast depth rendering against heightfields.

Rays march cell boundaries exactly (piecewise-constant columns), so flat
ground matches the closed-form ray-plane distance to float precision. The
image's column axis fans rays across a horizontal FOV over the same sagittal
profile; a yawed ray sees the profile stretched by 1/cos(yaw). Void cells
are bottomless: rays pass over them and may hit the far wall, otherwise they
run out at max range.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..world.batch import BatchWorld
from ..world.robot import PlanarWorld
from .camera import STAGE_RANDOMIZED, STAGE_RAW, CameraModel, DepthImage, validate_camera


def march_rays(heights: np.ndarray, void: np.ndarray, cell_size: float,
               x0: np.ndarray, z0: np.ndarray, dx: np.ndarray, dz: np.ndarray,
               max_range: float, env_ids: np.ndarray) -> np.ndarray:
    """Distance to first heightfield intersection for each ray.

    ``heights``/``void`` are (envs, cells); ``env_ids`` gives each ray's
    field. Rays must advance forward (dx > 0). Returns max_range where
    nothing is hit within range.
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


def _ray_geometry(cam: CameraModel, body_x: np.ndarray, body_z: np.ndarray,
                  body_pitch: np.ndarray, d_pos: np.ndarray, d_pitch: np.ndarray,
                  d_yaw: np.ndarray):
    """Camera pose and (E, H, W) ray directions of E bodies; ``d_pos`` is
    (E, 2), the other arguments (E,)."""
    cp, sp = np.cos(body_pitch), np.sin(body_pitch)
    cam_x = body_x + cp * cam.mount_forward - sp * cam.mount_up + d_pos[:, 0]
    cam_z = body_z + sp * cam.mount_forward + cp * cam.mount_up + d_pos[:, 1]
    depression = cam.mount_pitch - body_pitch + d_pitch
    rows = depression[:, None] + np.linspace(-cam.fov_v / 2, cam.fov_v / 2, cam.height)
    cols = d_yaw[:, None] + np.linspace(-cam.fov_h / 2, cam.fov_h / 2, cam.width)
    dz = np.broadcast_to(-np.sin(rows)[:, :, None], (len(rows), cam.height, cam.width))
    dx = np.cos(rows)[:, :, None] * np.cos(cols)[:, None, :]
    return cam_x, cam_z, depression, dx, dz


def render(world: PlanarWorld, camera: CameraModel, rng: np.random.Generator | None = None,
           randomize: bool = False) -> DepthImage:
    """Render one depth frame from the robot's current pose (see `render_batch`)."""
    if randomize and rng is None:
        raise ContractError("randomized render requires an rng")
    data, poses = render_batch(world.batch, camera, [rng], randomize)
    return DepthImage(data[0], tuple(poses[0]),
                      STAGE_RANDOMIZED if randomize else STAGE_RAW)


def render_batch(world: BatchWorld, camera: CameraModel,
                 rngs: list[np.random.Generator], randomize: bool = True
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One frame per env with a single shared ray march: the (E, H, W) depth
    stack and the (E, 4) camera poses (x, z, depression, yaw offset).

    With ``randomize``: uniform pose jitter (position, pitch, yaw) before
    casting, then proportional range noise, then additive Gaussian noise,
    then a re-clip into (0, max_range]. That composition order is pinned.
    Each env draws from ``rngs[i]``: its 4 jitter uniforms in a first pass
    over the envs, its 2 noise fields in a second.
    """
    validate_camera(camera)
    n = len(world)
    shape = (camera.height, camera.width)
    jitter = np.zeros((n, 4))          # d_x, d_z, d_pitch, d_yaw
    if randomize:
        p, a = camera.pos_jitter, camera.ang_jitter
        for i, rng in enumerate(rngs):
            jitter[i] = (rng.uniform(-p, p), rng.uniform(-p, p),
                         rng.uniform(-a, a), rng.uniform(-a, a))
    cam_x, cam_z, depression, dx, dz = _ray_geometry(
        camera, world.x, world.z, world.pitch, jitter[:, :2], jitter[:, 2], jitter[:, 3])
    per = camera.height * camera.width
    depth = march_rays(world.heights, world.void, world.cfg.cell_size, np.repeat(cam_x, per),
                       np.repeat(cam_z, per), dx.ravel(), dz.ravel(), camera.max_range,
                       env_ids=np.repeat(np.arange(n, dtype=np.intp), per))
    data = depth.reshape(n, *shape)
    if randomize:
        prop = np.empty((n, *shape))
        add = np.empty((n, *shape))
        for i, rng in enumerate(rngs):
            prop[i] = rng.standard_normal(shape)
            add[i] = rng.standard_normal(shape)
        data = data * (1.0 + camera.prop_noise_std * prop)
        data = data + camera.add_noise_std * add
    data = np.clip(data, camera.min_depth, camera.max_range)
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
