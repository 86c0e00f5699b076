from .layers import (Conv2d, Deconv2d, Elu, Flatten, GruCell, Linear, Reshape, Tanh,
                     conv_shape, deconv_shape, mirror_out_pad)
from .stack import LayerStack, Tape, TensorParam
from .optim import Adam, clip_grad_norm
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Conv2d", "Deconv2d", "Elu", "Flatten", "GruCell", "Linear", "Reshape", "Tanh",
    "conv_shape", "deconv_shape", "mirror_out_pad", "LayerStack", "Tape", "TensorParam",
    "Adam", "clip_grad_norm", "load_checkpoint", "save_checkpoint",
]
