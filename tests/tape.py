"""A small tape-based reverse-mode autodiff engine on NumPy arrays: the test oracle.

The library computes every gradient one way: each layer's ``backward`` is a
hand-written vector-Jacobian product, and each trainer's loss gradient is a
closed form.  The tests check those against this tape, which differentiates
the same computations one primitive operation at a time.  ``Tensor`` wraps a
``float32`` array; leaves with ``requires_grad`` receive gradients in
:meth:`Tensor.backward`.  :func:`module_node` records one call of a module's
``infer``/``backward`` pair as a single node, so a module can sit inside a
taped reference computation.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.nn import functional as F

_DTYPE = np.float32


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
        requires = any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            _parents=parents if requires else (),
            _backward_fn=backward_fn if requires else None,
        )

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` (un-broadcast to this shape) to :attr:`grad`."""
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
        self.accumulate(grad)
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
            self.accumulate(grad)
            other.accumulate(grad)

        return self._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(-grad)

        return self._make(-self.data, (self,), backward_fn)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * other.data)
            other.accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad / other.data)
            other.accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward_fn)

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward_fn)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other.accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make(out_data, (self, other), backward_fn)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * out_data)

        return self._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad / self.data)

        return self._make(out_data, (self,), backward_fn)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward_fn)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(_DTYPE)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * mask)

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
            self.accumulate(expanded)

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
            self.accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward_fn)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad.transpose(inverse))

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
            self.accumulate(full)

        return self._make(out_data, (self,), backward_fn)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = ((self.data >= low) & (self.data <= high)).astype(_DTYPE)
        out_data = np.clip(self.data, low, high)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate(grad * mask)

        return self._make(out_data, (self,), backward_fn)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded_max = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == expanded_max).astype(_DTYPE)
        mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis)
            self.accumulate(mask * g)

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
            t.accumulate(grad[tuple(index)])

    requires = any(t.requires_grad for t in tensors)
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
            t.accumulate(np.squeeze(piece, axis=axis))

    requires = any(t.requires_grad for t in tensors)
    return Tensor(
        out_data,
        requires_grad=requires,
        _parents=tuple(tensors) if requires else (),
        _backward_fn=backward_fn if requires else None,
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax as one node over the library's array kernel and its VJP."""
    probs = F.softmax_array(x.data, axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate(F.softmax_backward(grad, probs, axis))

    return x._make(probs, (x,), backward_fn)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``, as one node."""
    out = x.data - x.data.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate(grad - np.exp(out) * grad.sum(axis=axis, keepdims=True))

    return x._make(out, (x,), backward_fn)


def cross_entropy_with_logits(logits: Tensor, targets: np.ndarray, axis: int = -1) -> Tensor:
    """Mean cross-entropy between ``logits`` and probability-vector ``targets`` along ``axis``."""
    log_probs = log_softmax(logits, axis=axis)
    per_element = -(Tensor(np.asarray(targets, dtype=_DTYPE)) * log_probs).sum(axis=axis)
    return per_element.mean()


class ParameterLeaf(Tensor):
    """A tape leaf over a module ``Parameter``; the gradient it receives lands in the parameter."""

    __slots__ = ("parameter",)

    def __init__(self, parameter) -> None:
        super().__init__(parameter.data, requires_grad=True)
        self.parameter = parameter

    def accumulate(self, grad: np.ndarray) -> None:
        self.parameter.accumulate(_unbroadcast(np.asarray(grad, dtype=_DTYPE), self.data.shape))


def module_node(module, x: "Tensor | np.ndarray", *args, train: bool = True) -> Tensor:
    """One call of ``module`` recorded as ONE tape node over ``infer`` and ``backward``.

    The forward is ``module.infer`` with a cache of the node's own; the
    backward is ``module.backward`` over a copy of that cache (so the node
    can be differentiated twice), which accumulates the module's parameter
    gradients and, when ``x`` requires one, the input gradient.  ``x`` is a
    tensor, or an array the node treats as a constant (token indices);
    further arguments pass to ``infer`` unchanged.  A parameter slot may
    hold a :class:`Tensor` leaf instead of a ``Parameter``: the module's
    backward then accumulates into it, and it is one of the node's parents.
    """
    taped = isinstance(x, Tensor)
    cache: list = []
    out = module.infer(x.data if taped else x, *args, cache=cache, train=train)

    def backward_fn(grad: np.ndarray) -> None:
        input_grad = taped and x.requires_grad
        grad_x = module.backward(grad, list(cache), input_grad=input_grad)
        if input_grad:
            x.accumulate(grad_x)

    leaves = tuple(p for p in module.parameters() if isinstance(p, Tensor))
    parents = ((x,) if taped else ()) + leaves
    return Tensor(out, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
