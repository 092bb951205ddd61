"""Pure-NumPy neural-network substrate.

Provides a tape-based autograd engine, a module system with the layers used
by diffusion U-Nets (convolution, group norm, attention), optimisers and
checkpointing.  This replaces PyTorch, which is not available in the
reproduction environment; the mathematical behaviour is identical, only the
throughput differs.

Every layer is an array kernel with its vector-Jacobian product
(:mod:`~repro.nn.functional`), wrapped once as a module's ``infer`` and
``backward``; calling a module records it as one tape node
(:meth:`Module.forward`).  The tape itself only carries the arithmetic that
glues modules together: losses, residual sums and LayouTransformer's
attention.
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
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (
    Tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    ones,
    randn,
    set_grad_enabled,
    stack,
    tensor,
    zeros,
)
from .unet import UNet, UNetConfig

__all__ = [
    "functional",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
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
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_checkpoint",
    "load_checkpoint",
    "UNet",
    "UNetConfig",
]
