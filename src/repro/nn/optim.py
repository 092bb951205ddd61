"""The optimiser, gradient clipping and the one training loop.

The paper trains with Adam (learning rate 2e-4) and gradient clipping at
1.0.  :func:`fit` is the loop every trainer in the package runs: the
diffusion model, the Gaussian ablation and the Table I baselines differ
only in the ``loss`` step they hand it.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .functional import _DTYPE
from .modules import Parameter


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


def fit(
    loss: "Callable[[np.ndarray, np.random.Generator], tuple[Callable[[], None], dict]]",
    data: np.ndarray,
    parameters: "Iterable[Parameter]",
    iterations: int,
    batch_size: int,
    rng: np.random.Generator,
    lr: float,
    grad_clip: "float | None" = None,
) -> list[dict[str, float]]:
    """Train ``parameters`` with Adam on random mini-batches of ``data``.

    Each iteration draws ``min(batch_size, len(data))`` row indices from
    ``rng`` (with replacement) and calls ``loss(data[indices], rng)``.  That
    step runs the model's forward with a cache and computes the loss and its
    gradient in closed form; it returns the reverse pass, which hands that
    gradient to the model's ``backward``, and its metrics (at least
    ``"loss"``).  The loop clears the gradients and runs the reverse pass.
    With ``grad_clip`` the global gradient norm is then clipped and recorded
    as ``"grad_norm"``.  Last comes one Adam step at ``lr``.

    Returns the per-iteration metrics, each with its ``"iteration"`` index.
    """
    params = list(parameters)
    optimizer = Adam(params, lr=lr)
    history: list[dict[str, float]] = []
    for iteration in range(iterations):
        indices = rng.integers(0, data.shape[0], size=min(batch_size, data.shape[0]))
        # The previous step's reverse pass, and what it holds, is released
        # only here, after this step's forward.  Releasing a step's whole
        # working set before the next forward lets malloc return the heap
        # top to the OS, which the forward then page-faults back: ~550 minor
        # faults per hotspot-expansion step and ~10 % of fit throughput.
        backward, metrics = loss(data[indices], rng)
        optimizer.zero_grad()
        backward()
        if grad_clip is not None:
            metrics["grad_norm"] = clip_grad_norm(params, grad_clip)
        optimizer.step()
        metrics["iteration"] = float(iteration)
        history.append(metrics)
    return history


class Adam:
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
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
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

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

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
