"""Optimisers and gradient utilities.

The paper trains with Adam (learning rate 2e-4) and gradient clipping at 1.0;
both are provided here, plus plain SGD for the smaller baseline models.
"""

from __future__ import annotations

import numpy as np

from .modules import Parameter
from .tensor import _DTYPE


def clip_grad_norm(parameters: "list[Parameter]", max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping (useful for logging).
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    # One dot product over every gradient: with ~130 small tensors a
    # reduction per tensor costs more in call overhead than in arithmetic.
    flat = np.concatenate([g.ravel() for g in grads])
    total = float(np.sqrt(np.dot(flat, flat)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for grad in grads:
            grad *= scale
    return total


class Optimizer:
    """Base class holding the parameter list."""

    def __init__(self, parameters) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, vel in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                vel *= self.momentum
                vel += p.grad
                p.data -= self.lr * vel
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with bias correction.

    Parameters, gradients and both moments live in flat float32 buffers, so
    a step is a dozen whole-buffer vector ops whatever the parameter count.
    Every parameter's ``data`` is rebound to a view into the flat parameter
    buffer: in-place writes (``load_state_dict``, ``load_checkpoint``) land in
    it directly, and a parameter whose ``data`` was rebound since (say, by a
    second optimizer over the same model) is gathered back before the next
    step.  The update is elementwise the per-parameter Adam rule, bit for bit.
    """

    def __init__(
        self,
        parameters,
        lr: float = 2e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._sizes = [p.size for p in self.parameters]
        total = sum(self._sizes)
        self._data = np.empty(total, dtype=_DTYPE)
        self._grad = np.zeros(total, dtype=_DTYPE)
        self._tmp = np.zeros(total, dtype=_DTYPE)
        self._m = np.zeros(total, dtype=_DTYPE)
        self._v = np.zeros(total, dtype=_DTYPE)
        self._bind()

    def _bind(self) -> None:
        """Copy every parameter into the flat buffer and alias it there."""
        parts = np.split(self._data, np.cumsum(self._sizes)[:-1])
        for p, part in zip(self.parameters, parts):
            part[...] = p.data.ravel()
            p.data = part.reshape(p.shape)
        self._views = [p.data for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        present = [p.grad is not None for p in self.parameters]
        if any(p.data is not view for p, view in zip(self.parameters, self._views)):
            self._bind()
        grad, tmp, m, v, data = self._grad, self._tmp, self._m, self._v, self._data
        np.concatenate(
            [p.grad.ravel() if p.grad is not None else np.zeros(p.size) for p in self.parameters],
            out=grad,
        )
        # Parameters without a gradient keep their data and moments.
        where = True if all(present) else np.repeat(present, self._sizes)
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=tmp)
            grad += tmp
        np.multiply(m, self.beta1, out=m, where=where)
        np.multiply(grad, 1.0 - self.beta1, out=tmp)
        np.add(m, tmp, out=m, where=where)
        np.multiply(v, self.beta2, out=v, where=where)
        np.square(grad, out=grad)
        grad *= 1.0 - self.beta2
        np.add(v, grad, out=v, where=where)
        # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=grad)
        np.sqrt(grad, out=grad)
        grad += self.eps
        np.divide(m, bias1, out=tmp)
        tmp *= self.lr
        tmp /= grad
        np.subtract(data, tmp, out=data, where=where)
