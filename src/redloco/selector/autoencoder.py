"""Convolutional autoencoder over two consecutive depth frames.

Three stride-2 convolutions (8/16/32 channels) into a dense bottleneck,
mirrored back with transposed convolutions whose output padding is chosen to
exactly invert each conv shape.

The anomaly score of a frame pair is its reconstruction error plus a
plausibility term. Reconstruction error alone misses frames simpler than
real terrain: a constant pair (a lens pressed against an obstacle reads as
every pixel at the near floor) reconstructs better than clean terrain does.
The mount geometry bounds how near a surface can be, so a frame whose mean
depth lies below that bound cannot come from a working camera; such a frame
adds up to the largest squared error an in-range pixel can have.
"""

from __future__ import annotations

import numpy as np

from ..config import CameraConfig, SelectorConfig
from ..errors import ContractError
from ..nn import (Conv2d, Deconv2d, Elu, Flatten, LayerStack, Linear, Reshape,
                  conv_shape, mirror_out_pad)
from ..sensor.camera import MAX_RANGE, MIN_DEPTH, MOUNT_FORWARD
from ..world import FOOT_OFFSETS


# the networks read the newest frame pair: it sizes the depth buffer and the
# first conv of the autoencoder and of the vision estimator's CNN
PAIR_FRAMES = 2
# every conv halves the frame: 3x3 kernels, stride 2, padding 1
AE_KERNEL, AE_STRIDE, AE_PAD = 3, 2, 1


def build_autoencoder(cfg: SelectorConfig, height: int, width: int,
                      rng: np.random.Generator) -> LayerStack:
    c1, c2, c3 = cfg.ae_channels
    k, s, p = AE_KERNEL, AE_STRIDE, AE_PAD
    s0 = (PAIR_FRAMES, height, width)
    s1 = conv_shape(s0, k, s, p, c1)
    s2 = conv_shape(s1, k, s, p, c2)
    s3 = conv_shape(s2, k, s, p, c3)
    flat = int(np.prod(s3))
    if cfg.ae_bottleneck >= PAIR_FRAMES * height * width:
        raise ContractError("bottleneck must be narrower than the input pixel count")
    op3 = mirror_out_pad(s2[1:], k, s, p)
    op2 = mirror_out_pad(s1[1:], k, s, p)
    op1 = mirror_out_pad(s0[1:], k, s, p)
    descs = [
        Conv2d(PAIR_FRAMES, c1, k, s, p), Elu(),
        Conv2d(c1, c2, k, s, p), Elu(),
        Conv2d(c2, c3, k, s, p), Elu(),
        Flatten(), Linear(flat, cfg.ae_bottleneck), Elu(),
        Linear(cfg.ae_bottleneck, flat), Elu(), Reshape(s3),
        Deconv2d(c3, c2, k, s, p, op3), Elu(),
        Deconv2d(c2, c1, k, s, p, op2), Elu(),
        Deconv2d(c1, PAIR_FRAMES, k, s, p, op1),
    ]
    return LayerStack(descs, s0, rng)


def loss_ad_batch(frames: np.ndarray, reconstruction: np.ndarray) -> np.ndarray:
    """Per-sample reconstruction losses for a (B, 2, H, W) batch: the mean
    squared error jointly over all pixels of both frames."""
    if frames.shape != reconstruction.shape:
        raise ContractError(f"shape mismatch {frames.shape} vs {reconstruction.shape}")
    diff = frames - reconstruction
    return np.mean(diff * diff, axis=(1, 2, 3))


def near_depth_bound(camera: CameraConfig) -> float:
    """Nearest depth a surface can show a working camera.

    The robot cannot move its front foot into a face, and the front foot
    stands ahead of the camera mount, so no surface is nearer than that
    lead less the camera's position jitter (0.04 m at the defaults).
    """
    return max(FOOT_OFFSETS) - MOUNT_FORWARD - camera.pos_jitter


def implausibility(frames: np.ndarray, near: float, min_depth: float) -> np.ndarray:
    """Per-sample share in [0, 1] by which a (B, F, H, W) batch falls short of
    the near bound: 0 while every frame's mean depth is at or beyond
    ``near``, 1 when some frame sits entirely at ``min_depth``."""
    if near <= min_depth:
        return np.zeros(frames.shape[0])
    means = frames.mean(axis=(2, 3))
    short = np.clip((near - means) / (near - min_depth), 0.0, 1.0)
    return short.max(axis=1)


def anomaly_scores(frames: np.ndarray, reconstruction: np.ndarray,
                   camera: CameraConfig) -> np.ndarray:
    """Per-sample anomaly scores for a (B, 2, H, W) batch: the reconstruction
    MSE plus ``(max_range - min_depth)^2`` times the implausibility, so a pair
    with a fully occluded frame scores above any clean-frame reconstruction
    error an in-range autoencoder output can give."""
    near = near_depth_bound(camera)
    span = MAX_RANGE - MIN_DEPTH
    return (loss_ad_batch(frames, reconstruction)
            + span * span * implausibility(frames, near, MIN_DEPTH))
