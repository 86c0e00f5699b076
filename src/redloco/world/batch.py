"""Sagittal-plane hop-capable robots over heightfields, as one batch of arrays.

Each env's body is a point mass with a stand height and two virtual feet.
Grounded motion follows the terrain for rises up to ``MAX_STEP``; taller
faces block and count as a collision; gaps under both feet terminate the
episode. Hops are ballistic under gravity. A 4-phase oscillator driven by
forward speed stands in for joint state.

`BatchWorld` holds every env's state as ``(E,)`` arrays (``(E, 4)`` joint
phase, ``(E, 2)`` last action, ``(E, cells)`` terrain) and steps all envs in
one call: the grounded, airborne, landing, collision and fall branches are
masks. Randomness stays per env: each env draws from its own generator in
the order it would stepping alone (the gait wobble only while grounded, then
the reset draws), so a batch reproduces its envs one at a time bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import WorldConfig
from ..errors import ContractError
from .commands import Command, sample_command
from .terrain import CELL_SIZE, SPAWN_X, TERRAIN_CELLS, Heightfield, generate_terrain

OBS_DIM = 14
DT = 0.02                    # s, one sim step
JOINT_PHASE0 = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)

# body and feet, in m
STAND_HEIGHT = 0.30
FOOT_OFFSETS = (0.15, -0.15)
MAX_STEP = 0.12              # tallest rise the feet follow; taller faces block
FALL_MARGIN = 1.0            # below the lowest solid cell an airborne body has fallen
# dynamics: m/s^2, 1/s, m/s
GRAVITY = 9.81
ACCEL_MAX = 8.0
DRAG = 4.0
V_HOP = 3.5
HOP_THRESHOLD = 0.5          # hop action above which a grounded body hops
IMPACT_LOSS = 0.05           # share of forward speed lost per m/s of landing speed
# the 4-phase gait oscillator, rad/s
OSC_BASE_RATE = 1.0
OSC_RATE_PER_SPEED = 12.0
# posture, rad; gait-induced wobble grows with speed (random, so a single
# observation cannot be inverted for the speed)
PITCH_GAIN = 0.08
PITCH_RELAX = 10.0           # 1/s
PITCH_WOBBLE_PER_SPEED = 0.03
MAX_PITCH = 1.2
# per-episode randomization
MOTOR_GAIN_RANGE = (0.85, 1.15)
INIT_SPEED_RANGE = (0.0, 0.5)
# privileged labels: the clearance profile ahead of the body and the foot patches
MAX_CLEARANCE = 2.0
PROFILE_SPAN = (-0.5, 1.1)
PROFILE_SAMPLES = 17
FOOT_PATCH = 0.05
PATCH_SAMPLES = 5


@dataclass
class BatchEvents:
    """One step's events, an (E,) bool array each."""
    collision: np.ndarray
    hopped: np.ndarray
    landed: np.ndarray
    fell: np.ndarray
    tipped: np.ndarray           # |pitch| over the limit; names the termination
    truncated: np.ndarray

    @property
    def terminated(self) -> np.ndarray:
        return self.fell | self.tipped

    @property
    def done(self) -> np.ndarray:
        return self.terminated | self.truncated


@dataclass
class PrivilegedInfo:
    """Simulator-only labels, with a leading env axis in a batch."""
    v_true: np.ndarray           # (2,) true body velocity
    m_t: np.ndarray              # (K,) clearance profile ahead of the body
    h_f: np.ndarray              # (2,) per-foot patch-mean clearance


class BatchWorld:
    """E environments stepped together; env i draws only from ``rngs[i]``."""

    def __init__(self, cfg: WorldConfig, kinds: list[str],
                 rngs: list[np.random.Generator], levels: list[int] | None = None) -> None:
        n = len(kinds)
        if len(rngs) != n or len({id(r) for r in rngs}) != n:
            raise ContractError("each env needs a generator of its own")
        self.cfg = cfg
        self.kinds = list(kinds)
        self.rngs = list(rngs)
        self.level = np.array(levels if levels is not None else [0] * n, dtype=np.int64)
        self.curriculum_phase = np.ones(n, dtype=np.int64)
        self.heights = np.zeros((n, TERRAIN_CELLS))
        self.void = np.zeros((n, TERRAIN_CELLS), dtype=bool)
        self.x, self.z, self.vx, self.vz, self.pitch = (np.zeros(n) for _ in range(5))
        self.ax, self.az, self.pitch_rate = (np.zeros(n) for _ in range(3))
        self.airborne = np.zeros(n, dtype=bool)
        self.joint_phase = np.tile(JOINT_PHASE0, (n, 1))
        self.last_action = np.zeros((n, 2))
        # the previous step's ax and action, which the reward compares against
        self.prev_ax = np.zeros(n)
        self.prev_action = np.zeros((n, 2))
        self.motor_gain = np.ones(n)
        self.episode_step = np.zeros(n, dtype=np.int64)
        self.start_x = np.full(n, SPAWN_X)
        self.commanded_distance = np.zeros(n)
        self.fall_z = np.zeros(n)
        self.c_x = np.zeros(n)
        self.c_yaw = np.zeros(n)
        self.reset(range(n))

    def __len__(self) -> int:
        return len(self.kinds)

    # -- episode management --------------------------------------------------
    def reset(self, ids, commands: list[Command] | None = None) -> None:
        """New episodes for envs ``ids``: fresh terrain at each env's level,
        ``commands[k]`` for the k-th id (drawn when None), motor gain and
        initial speed."""
        ids = np.fromiter(ids, dtype=np.intp)
        for k, i in enumerate(ids):
            rng = self.rngs[i]
            seed = int(rng.integers(0, 2 ** 31 - 1))
            self.set_terrain(i, generate_terrain(self.kinds[i], int(self.level[i]), seed))
            solid = self.heights[i][~self.void[i]]
            self.fall_z[i] = (float(solid.min()) if solid.size else 0.0) - FALL_MARGIN
            cmd = commands[k] if commands is not None else sample_command(
                rng, int(self.curriculum_phase[i]))
            self.c_x[i], self.c_yaw[i] = cmd.c_x, cmd.c_yaw
            self.motor_gain[i] = rng.uniform(*MOTOR_GAIN_RANGE)
            self.vx[i] = rng.uniform(*INIT_SPEED_RANGE)
        self.x[ids] = SPAWN_X
        self.z[ids] = self.support(self.x[ids], ids) + STAND_HEIGHT
        for arr in (self.vz, self.pitch, self.ax, self.az, self.pitch_rate,
                    self.last_action, self.commanded_distance):
            arr[ids] = 0.0
        self.airborne[ids] = False
        self.joint_phase[ids] = JOINT_PHASE0
        self.episode_step[ids] = 0
        self.start_x[ids] = self.x[ids]

    def set_terrain(self, i: int, hf: Heightfield) -> None:
        """Copy a heightfield into env i's rows of ``heights`` and ``void``."""
        if hf.heights.shape != self.heights.shape[1:]:
            raise ContractError(f"heightfield of {len(hf.heights)} cells does not match "
                                f"the world's {self.heights.shape[1]}")
        self.heights[i] = hf.heights
        self.void[i] = hf.void

    @property
    def along(self) -> np.ndarray:
        """Distance covered along each env's commanded heading this episode."""
        return (self.x - self.start_x) * np.cos(self.c_yaw)

    # -- terrain queries -------------------------------------------------------
    def _height(self, x: np.ndarray, env: np.ndarray) -> np.ndarray:
        """Terrain height under x in the envs ``env`` (broadcast); -inf over void."""
        idx = np.clip(np.floor(x / CELL_SIZE).astype(np.intp), 0, self.heights.shape[1] - 1)
        return np.where(self.void[env, idx], -np.inf, self.heights[env, idx])

    def support(self, x: np.ndarray, ids=None) -> np.ndarray:
        """Highest solid ground under either foot at body position x, for all
        envs or the envs ``ids``; -inf when both feet are over void."""
        env = np.arange(len(self)) if ids is None else np.asarray(ids)
        feet = np.asarray(x)[:, None] + np.array(FOOT_OFFSETS)
        return self._height(feet, env[:, None]).max(axis=1)

    def _clearance(self, z_ref: np.ndarray, x: np.ndarray, env: np.ndarray) -> np.ndarray:
        h = self._height(x, env)
        mc = MAX_CLEARANCE
        return np.where(h == -np.inf, mc, np.clip(z_ref - h, -mc, mc))

    # -- dynamics ----------------------------------------------------------------
    def _check_actions(self, actions) -> np.ndarray:
        a = np.array(actions, dtype=np.float64)
        if a.shape != (len(self), 2):
            raise ContractError(f"actions must have shape ({len(self)}, 2), got {a.shape}")
        bad = ~np.isfinite(a).all(axis=1) | (np.abs(a) > 1.0 + 1e-9).any(axis=1)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ContractError(f"env {i}: action components must be finite and lie "
                                f"in [-1, 1], got {a[i]}")
        return a

    def step(self, actions) -> BatchEvents:
        cfg = self.cfg
        a = self._check_actions(actions)
        a0, a1 = a[:, 0], a[:, 1]
        x, z, vx, vz = self.x, self.z, self.vx, self.vz
        prev_vx, prev_vz, prev_pitch = vx, vz, self.pitch
        self.prev_ax, self.prev_action = self.ax, self.last_action

        grounded = ~self.airborne
        vx = np.where(grounded, vx + (a0 * ACCEL_MAX * self.motor_gain
                                      - DRAG * vx) * DT, vx)
        hopped = grounded & (a1 > HOP_THRESHOLD)
        vz = np.where(hopped, a1 * V_HOP, vz)
        air = self.airborne | hopped

        old_support = self.support(x)
        new_x = x + vx * DT
        support_new = self.support(new_x)
        solid = support_new > -np.inf
        top = support_new + STAND_HEIGHT

        # airborne: ballistic flight; touch down within MAX_STEP of the surface,
        # else hit the face of a taller one, coming down or rising into it
        fz = z + vz * DT - 0.5 * GRAVITY * DT * DT
        fvz = vz - GRAVITY * DT
        descending = solid & (fvz < 0) & (fz <= top)
        near = fz >= top - MAX_STEP
        landed = air & descending & near
        air_hit = air & ((descending & ~near)
                         | (~descending & solid & (fz < top - MAX_STEP) & (fvz >= 0)))

        # grounded: follow rises up to MAX_STEP, stop at taller ones, walk off drops
        g = ~air
        with np.errstate(invalid="ignore"):
            rise = support_new - old_support
        g_hit = g & solid & (rise > MAX_STEP)
        walk_off = g & solid & ~g_hit & (rise < -MAX_STEP)
        follow = g & solid & ~g_hit & ~walk_off

        collision = air_hit | g_hit
        self.x = np.where(collision, x, new_x)
        self.z = np.where(landed | follow, top, np.where(air, fz, z))
        self.vx = np.where(collision, 0.0, np.where(
            landed, vx * np.maximum(0.0, 1.0 - IMPACT_LOSS * np.abs(fvz)), vx))
        self.vz = np.where(landed | walk_off, 0.0, np.where(air, fvz, vz))
        self.airborne = (air & ~landed) | walk_off
        fell = (air & (self.z < self.fall_z)) | (g & ~solid)

        # posture relaxes toward an acceleration-proportional lean plus a
        # random gait-impact wobble whose amplitude grows quadratically with
        # speed (it feeds the orientation penalty), so a single observation
        # cannot be inverted for the speed
        grounded = ~self.airborne
        u = np.zeros(len(self))
        for i in np.flatnonzero(grounded):
            u[i] = self.rngs[i].uniform(-1.0, 1.0)
        wobble = PITCH_WOBBLE_PER_SPEED * self.vx * np.abs(self.vx) * u
        target = PITCH_GAIN * a0 + wobble
        self.pitch = np.where(grounded, self.pitch + (target - self.pitch)
                              * min(1.0, PITCH_RELAX * DT), self.pitch)
        tipped = np.abs(self.pitch) > MAX_PITCH

        rate = OSC_BASE_RATE + OSC_RATE_PER_SPEED * np.abs(self.vx)
        self.joint_phase = np.mod(self.joint_phase + (rate * DT)[:, None], 2.0 * np.pi)

        self.ax = (self.vx - prev_vx) / DT
        self.az = (self.vz - prev_vz) / DT
        self.pitch_rate = (self.pitch - prev_pitch) / DT
        self.last_action = a

        self.episode_step += 1
        self.commanded_distance += self.c_x * DT
        truncated = (self.episode_step >= cfg.episode_steps) & ~(fell | tipped)
        return BatchEvents(collision, hopped, landed, fell, tipped, truncated)

    # -- observations -------------------------------------------------------------
    def observation(self) -> np.ndarray:
        """(E, OBS_DIM) proprioception: IMU-analog rates, gravity projection,
        command, oscillator joints, previous action, contact flag. No absolute
        velocity."""
        return np.column_stack([
            0.1 * self.ax, 0.05 * self.az, np.sin(self.pitch), np.cos(self.pitch),
            0.25 * self.pitch_rate, self.c_x, self.c_yaw, np.sin(self.joint_phase),
            self.last_action, (~self.airborne).astype(np.float64)])

    def privileged(self) -> PrivilegedInfo:
        """Velocity, the (E, K) clearance profile ahead of each body, and the
        (E, 2) per-foot patch-mean clearance."""
        env = np.arange(len(self))[:, None]
        lo, hi = PROFILE_SPAN
        xs = self.x[:, None] + np.linspace(lo, hi, PROFILE_SAMPLES)
        m_t = self._clearance(self.z[:, None], xs, env)
        half = FOOT_PATCH / 2.0
        feet = self.x[:, None] + np.array(FOOT_OFFSETS)
        patch = feet[:, :, None] + np.linspace(-half, half, PATCH_SAMPLES)
        foot_z = self.z - STAND_HEIGHT
        h_f = self._clearance(foot_z[:, None, None], patch, env[:, :, None]).mean(axis=2)
        return PrivilegedInfo(np.column_stack([self.vx, self.vz]), m_t, h_f)
