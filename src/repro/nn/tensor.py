"""A small tape-based automatic-differentiation engine on NumPy arrays.

The paper trains its discrete diffusion model with PyTorch.  PyTorch is not
available in this environment, so the library ships its own reverse-mode
autodiff substrate: a :class:`Tensor` wrapping a ``float32`` NumPy array plus
the operators needed by the U-Net backbone (convolutions, normalisation,
attention, categorical losses).  The API deliberately mirrors a small subset
of PyTorch so the model code reads naturally.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_DTYPE = np.float32

# Global autograd switch.  A single mutable cell (instead of a bare module
# global) lets the context manager below restore the previous state even when
# `no_grad` blocks are nested or raise.
_GRAD_ENABLED: list[bool] = [True]


def is_grad_enabled() -> bool:
    """Whether new operations record themselves on the autodiff tape."""
    return _GRAD_ENABLED[0]


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable or disable tape construction (mirrors PyTorch)."""
    _GRAD_ENABLED[0] = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction for inference hot paths.

    Inside the block every operation returns a constant tensor: no parents are
    retained, no backward closures are allocated, and no gradient buffers can
    be populated.  Nesting is supported and the previous state is restored on
    exit, including on exceptions.
    """
    previous = _GRAD_ENABLED[0]
    _GRAD_ENABLED[0] = False
    try:
        yield
    finally:
        _GRAD_ENABLED[0] = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything convertible to a ``float32`` NumPy array.
    requires_grad:
        When True the tensor accumulates gradients during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")
    __array_priority__ = 1000  # ensure Tensor.__r*__ wins over np.ndarray ops

    def __init__(
        self,
        data: "np.ndarray | float | int | list",
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: "Callable[[np.ndarray], None] | None" = None,
    ) -> None:
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: "Tensor | np.ndarray | float | int") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED[0] and any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            _parents=parents if requires else (),
            _backward_fn=backward_fn if requires else None,
        )

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=_DTYPE), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: "np.ndarray | None" = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(grad)
        for node in reversed(self.graph()):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def graph(self) -> list["Tensor"]:
        """Every tensor this one was computed from, itself last, parents first."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return topo

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward_fn)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward_fn)

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward_fn)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make(out_data, (self, other), backward_fn)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward_fn)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward_fn)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(_DTYPE)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis: "int | tuple[int, ...] | None" = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            g = np.asarray(grad, dtype=_DTYPE)
            if axis is None:
                expanded = np.broadcast_to(g, self.data.shape)
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                if not keepdims:
                    for a in sorted(axes):
                        g = np.expand_dims(g, a)
                expanded = np.broadcast_to(g, self.data.shape)
            self._accumulate(expanded)

        return self._make(out_data, (self,), backward_fn)

    def mean(self, axis: "int | tuple[int, ...] | None" = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward_fn)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward_fn)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # Ints and slices select every element at most once, so assignment
        # scatters the gradient; only array indices can repeat an element and
        # need the (much slower) unbuffered np.add.at.
        basic = all(
            isinstance(i, (int, np.integer, slice, type(None), type(Ellipsis)))
            for i in (index if isinstance(index, tuple) else (index,))
        )

        def backward_fn(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if basic:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward_fn)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = ((self.data >= low) & (self.data <= high)).astype(_DTYPE)
        out_data = np.clip(self.data, low, high)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward_fn)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded_max = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == expanded_max).astype(_DTYPE)
        mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g)

        return self._make(out_data, (self,), backward_fn)


# ---------------------------------------------------------------------- #
# constructors
# ---------------------------------------------------------------------- #
def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a tensor (mirrors ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=_DTYPE), requires_grad=requires_grad)


def ones(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(tuple(shape), dtype=_DTYPE), requires_grad=requires_grad)


def randn(
    shape: Iterable[int],
    rng: "np.random.Generator | None" = None,
    scale: float = 1.0,
    requires_grad: bool = False,
) -> Tensor:
    gen = rng if rng is not None else np.random.default_rng()
    return Tensor(
        gen.standard_normal(tuple(shape)).astype(_DTYPE) * scale,
        requires_grad=requires_grad,
    )


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, end)
            t._accumulate(grad[tuple(index)])

    requires = _GRAD_ENABLED[0] and any(t.requires_grad for t in tensors)
    return Tensor(
        out_data,
        requires_grad=requires,
        _parents=tuple(tensors) if requires else (),
        _backward_fn=backward_fn if requires else None,
    )


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, slices):
            t._accumulate(np.squeeze(piece, axis=axis))

    requires = _GRAD_ENABLED[0] and any(t.requires_grad for t in tensors)
    return Tensor(
        out_data,
        requires_grad=requires,
        _parents=tuple(tensors) if requires else (),
        _backward_fn=backward_fn if requires else None,
    )
