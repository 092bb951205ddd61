"""Module system and standard layers.

A thin PyTorch-like module layer: parameter registration, recursive
traversal, state-dict extraction, and the concrete layers used by the U-Net
and the baselines.

Every layer is written once, as two methods on plain arrays:

* ``infer(x, *args, cache=None, train=False)`` is the forward pass.  Given a
  ``cache`` list it also pushes what its reverse needs; ``train`` applies
  dropout, which inference never does.
* ``backward(grad, cache, input_grad=True)`` pops the entries of the last
  call still in ``cache``, accumulates the parameter gradients and returns
  the input gradient.  A layer may return ``None`` for it when
  ``input_grad`` is false and skipping it saves work.

Composite modules get ``infer`` and ``backward`` by composing their
children's; the cache is a stack owned by the call, never state on a module.
A trainer runs ``infer`` with a cache, computes its loss gradient in closed
form and hands it to ``backward`` (see :func:`repro.nn.fit`).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import functional as F
from .functional import _DTYPE


class Parameter:
    """A learnable float32 array ``data`` and the gradient ``grad`` summed into it."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` (shaped like ``data``) to :attr:`grad`, which starts as a copy."""
        grad = np.asarray(grad, dtype=_DTYPE)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}

    # -- registration ------------------------------------------------- #
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ----------------------------------------------------- #
    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter of this module and its children."""
        for param in self._parameters.values():
            yield param
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state dict ------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=_DTYPE)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.shape}, got {value.shape}"
                )
            param.data[...] = value


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for idx, layer in enumerate(layers):
            setattr(self, f"layer_{idx}", layer)

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.infer(x, cache, train)
        return x

    def backward(
        self, grad: np.ndarray, cache: list, input_grad: bool = True
    ) -> "np.ndarray | None":
        for index in reversed(range(len(self.layers))):
            grad = self.layers[index].backward(grad, cache, input_grad or index > 0)
        return grad


class Identity(Module):
    """No-op layer (used for optional skip projections)."""

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        return grad


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        bound = 1.0 / math.sqrt(in_features)
        self.weight = Parameter(
            gen.uniform(-bound, bound, size=(out_features, in_features)).astype(_DTYPE)
        )
        self.bias = (
            Parameter(gen.uniform(-bound, bound, size=(out_features,)).astype(_DTYPE))
            if bias
            else None
        )
        self.in_features = in_features
        self.out_features = out_features

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        if cache is not None:
            cache.append(x)
        return F.linear_array(x, self.weight.data, None if self.bias is None else self.bias.data)

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        grad_x, grad_w, grad_b = F.linear_backward(grad, cache.pop(), self.weight.data)
        self.weight.accumulate(grad_w)
        if self.bias is not None:
            self.bias.accumulate(grad_b)
        return grad_x


class Conv2d(Module):
    """2-D convolution with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        bound = 1.0 / math.sqrt(fan_in)
        self.weight = Parameter(
            gen.uniform(
                -bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
            ).astype(_DTYPE)
        )
        self.bias = (
            Parameter(gen.uniform(-bound, bound, size=(out_channels,)).astype(_DTYPE))
            if bias
            else None
        )
        self.stride = stride
        self.padding = padding
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        out, cols = F._conv2d_forward(
            x,
            self.weight.data,
            None if self.bias is None else self.bias.data,
            self.stride,
            self.padding,
        )
        if cache is not None:
            cache.append((x.shape, cols))
        return out

    def backward(
        self, grad: np.ndarray, cache: list, input_grad: bool = True
    ) -> "np.ndarray | None":
        x_shape, cols = cache.pop()
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad, self.weight.data, cols, x_shape, self.stride, self.padding, input_grad
        )
        self.weight.accumulate(grad_w)
        if self.bias is not None:
            self.bias.accumulate(grad_b)
        return grad_x


class GroupNorm(Module):
    """Group normalisation with learnable scale/shift."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(
                f"num_channels ({num_channels}) must be divisible by num_groups ({num_groups})"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels, dtype=_DTYPE))
        self.bias = Parameter(np.zeros(num_channels, dtype=_DTYPE))

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        out, centred, inv_std = F._group_norm_forward(
            x, self.num_groups, self.weight.data, self.bias.data, self.eps
        )
        if cache is not None:
            cache.append((centred, inv_std))
        return out

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        centred, inv_std = cache.pop()
        grad_x, grad_w, grad_b = F.group_norm_backward(grad, centred, inv_std, self.weight.data)
        self.weight.accumulate(grad_w)
        self.bias.accumulate(grad_b)
        return grad_x


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=_DTYPE))
        self.bias = Parameter(np.zeros(dim, dtype=_DTYPE))

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        out, normed, std = F._layer_norm_forward(x, self.weight.data, self.bias.data, self.eps)
        if cache is not None:
            cache.append((normed, std))
        return out

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        normed, std = cache.pop()
        grad_x, grad_w, grad_b = F.layer_norm_backward(grad, normed, std, self.weight.data)
        self.weight.accumulate(grad_w)
        self.bias.accumulate(grad_b)
        return grad_x


class Dropout(Module):
    """Inverted dropout driven by an explicit generator for reproducibility."""

    def __init__(self, rate: float, rng: "np.random.Generator | None" = None) -> None:
        super().__init__()
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng()

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        """``x`` times a fresh mask when ``train`` is set; ``x`` itself otherwise."""
        mask = F.dropout_mask(x.shape, self.rate, self._rng) if train and self.rate > 0.0 else None
        if cache is not None:
            cache.append(mask)
        return x if mask is None else x * mask

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        mask = cache.pop()
        return grad if mask is None else grad * mask


class Embedding(Module):
    """Lookup table mapping integer tokens to vectors."""

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.weight = Parameter((gen.standard_normal((num_embeddings, dim)) * 0.02).astype(_DTYPE))
        self.num_embeddings = num_embeddings
        self.dim = dim

    def infer(
        self, indices: np.ndarray, cache: "list | None" = None, train: bool = False
    ) -> np.ndarray:
        idx = np.asarray(indices)
        if (idx < 0).any() or (idx >= self.num_embeddings).any():
            raise IndexError("embedding index out of range")
        if cache is not None:
            cache.append(idx)
        return self.weight.data[idx]

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> None:
        """Scatter-add ``grad`` onto the rows looked up; indices get no gradient."""
        grad_w = np.zeros_like(self.weight.data)
        np.add.at(grad_w, cache.pop(), grad)
        self.weight.accumulate(grad_w)


class SiLU(Module):
    """The SiLU / swish activation used throughout the U-Net."""

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        out = F.silu_array(x)
        if cache is not None:
            cache.append((x, out))
        return out

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        x, out = cache.pop()
        return F.silu_backward(grad, x, out)


class Sigmoid(Module):
    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-x))
        if cache is not None:
            cache.append(out)
        return out

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        out = cache.pop()
        return grad * out * (1.0 - out)
