from .buffers import DepthBuffer, ProprioBuffer
from .fusion import fuse_batch
from .losses import loss_op, loss_vp, mse
from .networks import EstimatorOutput, HimTargetEncoder, OpEstimator, VpEstimator

__all__ = [
    "DepthBuffer", "ProprioBuffer", "fuse_batch", "loss_op", "loss_vp", "mse",
    "EstimatorOutput", "HimTargetEncoder", "OpEstimator", "VpEstimator",
]
