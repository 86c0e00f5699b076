"""Fixed-length history buffers of all envs, zero-padded before warmup."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..selector.autoencoder import PAIR_FRAMES
from ..world import OBS_DIM


class ProprioBuffer:
    """The last H proprioception vectors of E envs as one (E, H, OBS_DIM)
    ring, oldest first."""

    def __init__(self, n: int, length: int) -> None:
        self.data = np.zeros((n, length, OBS_DIM))

    def push(self, obs: np.ndarray) -> None:
        """Append one (E, OBS_DIM) observation row per env."""
        obs = np.asarray(obs, dtype=np.float64)
        want = (self.data.shape[0], self.data.shape[2])
        if obs.shape != want:
            raise ContractError(f"observation shape {obs.shape} != {want}")
        self.data[:, :-1] = self.data[:, 1:]
        self.data[:, -1] = obs

    def flat(self) -> np.ndarray:
        """(E, H * OBS_DIM), oldest first."""
        return self.data.reshape(len(self.data), -1).copy()

    def reset(self, ids) -> None:
        self.data[ids] = 0.0


class DepthBuffer:
    """The last ``PAIR_FRAMES`` depth frames of E envs as one (E, 2, H, W)
    ring, oldest first. ``rendered`` marks slots that hold a frame (not a
    zero pad) and ``clean`` those whose frame carries training randomization
    only."""

    def __init__(self, n: int, height: int, width: int) -> None:
        self.data = np.zeros((n, PAIR_FRAMES, height, width))
        self.rendered = np.zeros((n, PAIR_FRAMES), dtype=bool)
        self.clean = np.zeros((n, PAIR_FRAMES), dtype=bool)

    def push(self, frames: np.ndarray, corrupted: np.ndarray) -> None:
        """Append one (E, H, W) frame per env; ``corrupted`` (E,) marks frames
        with deployment noise."""
        want = (self.data.shape[0], *self.data.shape[2:])
        if frames.shape != want:
            raise ContractError(f"frame stack shape {frames.shape} != {want}")
        for arr, new in ((self.data, frames), (self.rendered, True),
                         (self.clean, ~np.asarray(corrupted, dtype=bool))):
            arr[:, :-1] = arr[:, 1:]
            arr[:, -1] = new

    def newest_pair(self) -> np.ndarray:
        """The two most recent frames as (E, 2, H, W), older first: the
        whole ring."""
        return self.data.copy()

    def reset(self, ids) -> None:
        for arr in (self.data, self.rendered, self.clean):
            arr[ids] = 0
