from .buffers import DepthBuffer, ProprioBuffer
from .fusion import FusedLatent, fuse_batch, fuse_latent
from .losses import loss_op, loss_vp, mse
from .networks import EstimatorOutput, HimTargetEncoder, OpEstimator, VpEstimator

__all__ = [
    "DepthBuffer", "ProprioBuffer", "FusedLatent", "fuse_batch", "fuse_latent",
    "loss_op", "loss_vp", "mse", "EstimatorOutput", "HimTargetEncoder", "OpEstimator",
    "VpEstimator",
]
