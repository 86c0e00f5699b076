from .buffers import DepthBuffer, ProprioBuffer
from .fusion import fuse_batch
from .losses import loss_op, loss_vp, mse
from .networks import NET, EstimatorOutput, HimTargetEncoder, NetConfig, OpEstimator, VpEstimator

__all__ = [
    "DepthBuffer", "ProprioBuffer", "fuse_batch", "loss_op", "loss_vp", "mse",
    "NET", "EstimatorOutput", "HimTargetEncoder", "NetConfig", "OpEstimator", "VpEstimator",
]
