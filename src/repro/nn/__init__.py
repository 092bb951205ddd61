"""Pure-NumPy neural-network substrate.

Provides a module system with the layers used by diffusion U-Nets
(convolution, group norm, attention), the Adam optimiser, the one training
loop and checkpointing.  This replaces PyTorch, which is not available in
the reproduction environment; the mathematical behaviour is identical, only
the throughput differs.

Every layer is an array kernel with its vector-Jacobian product
(:mod:`~repro.nn.functional`), wrapped once as a module's ``infer`` and
``backward``.  That is the only gradient mechanism: a trainer's ``loss``
runs ``infer`` with a cache and computes the loss and its gradient in closed
form; the reverse pass it returns calls ``backward``, and :func:`fit` runs
those steps under Adam.
"""

from . import functional
from .modules import (
    Conv2d,
    Dropout,
    Embedding,
    GroupNorm,
    Identity,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
    Sigmoid,
    SiLU,
)
from .optim import Adam, clip_grad_norm, fit
from .serialization import load_checkpoint, save_checkpoint
from .unet import UNet, UNetConfig

__all__ = [
    "functional",
    "Module",
    "Parameter",
    "Sequential",
    "Identity",
    "Linear",
    "Conv2d",
    "GroupNorm",
    "LayerNorm",
    "Dropout",
    "Embedding",
    "SiLU",
    "Sigmoid",
    "Adam",
    "clip_grad_norm",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
    "UNet",
    "UNetConfig",
]
