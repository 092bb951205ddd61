"""Binary transition structure of the forward diffusion process.

Topology tensors are binary, and the forward process is the paper's
two-state flip chain: the per-step matrices
``Q_k = [[1-β_k, β_k], [β_k, 1-β_k]]`` of Eq. (5)-(7), their cumulative
products ``Q̄_k = Q_1 Q_2 ... Q_k``, the marginal ``q(x_k | x_0)`` used to
draw noisy samples in one shot (Eq. 10), and the forward posterior
``q(x_{k-1} | x_k, x_0)`` (Eq. 12) needed by the training loss and by the
reverse sampler.

Every ``β_k`` lies strictly inside ``(0, 1)``, so every entry of ``Q̄_k``
(``k >= 1``) is positive and each posterior is the plain Bayes quotient.
"""

from __future__ import annotations

import numpy as np

from ..utils import as_rng
from .schedule import NoiseSchedule

#: State count of the chain: a topology pixel is empty (0) or filled (1).
NUM_STATES = 2


class DiscreteTransitionModel:
    """Transition matrices and posterior computations for the binary chain."""

    def __init__(self, schedule: NoiseSchedule) -> None:
        """Build (and cache) every per-step and cumulative matrix up front.

        Parameters
        ----------
        schedule:
            Per-step flip probabilities ``beta_1 .. beta_K``.
        """
        self.schedule = schedule
        self._q = self._build_single_step()
        self._q_bar = self._build_cumulative(self._q)
        # Per-step posterior lookup tables, built lazily: entry (k, dtype)
        # holds the (S_xk, S_x0, S_prev) array of :meth:`posterior_table`.
        self._posterior_tables: dict[tuple[int, str], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # matrix construction
    # ------------------------------------------------------------------ #
    def _build_single_step(self) -> np.ndarray:
        """Stack of per-step matrices ``Q_k``, shape (K, 2, 2), 0-indexed."""
        return np.array(
            [[[1.0 - beta, beta], [beta, 1.0 - beta]] for beta in self.schedule.betas]
        )

    @staticmethod
    def _build_cumulative(single: np.ndarray) -> np.ndarray:
        """``Q̄_0 = I`` and ``Q̄_k = Q̄_{k-1} Q_k``, shape (K+1, 2, 2)."""
        steps, size, _ = single.shape
        cumulative = np.zeros((steps + 1, size, size), dtype=np.float64)
        cumulative[0] = np.eye(size)
        for idx in range(steps):
            cumulative[idx + 1] = cumulative[idx] @ single[idx]
        return cumulative

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_steps(self) -> int:
        return self.schedule.num_steps

    def q_matrix(self, k: int) -> np.ndarray:
        """Single-step matrix ``Q_k`` (1-indexed)."""
        if not 1 <= k <= self.num_steps:
            raise IndexError(f"k={k} outside [1, {self.num_steps}]")
        return self._q[k - 1]

    def q_bar_matrix(self, k: int) -> np.ndarray:
        """Cumulative matrix ``Q̄_k`` (``k=0`` gives the identity)."""
        if not 0 <= k <= self.num_steps:
            raise IndexError(f"k={k} outside [0, {self.num_steps}]")
        return self._q_bar[k]

    def stationary_distribution(self) -> np.ndarray:
        """The distribution the forward process converges to (uniform)."""
        return np.full(NUM_STATES, 1.0 / NUM_STATES)

    # ------------------------------------------------------------------ #
    # forward process
    # ------------------------------------------------------------------ #
    def q_probs(self, x0: np.ndarray, k: int) -> np.ndarray:
        """Marginal ``q(x_k | x_0)`` (Eq. 10); shape ``x0.shape + (S,)``."""
        x0 = self._validate_states(x0)
        return self.q_bar_matrix(k)[x0]

    def sample_xk(
        self, x0: np.ndarray, k: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Draw ``x_k ~ q(x_k | x_0)`` in a single shot."""
        gen = as_rng(rng)
        probs = self.q_probs(x0, k)
        return sample_categorical(probs, gen)

    def sample_stationary(
        self, shape: tuple[int, ...], rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Draw ``x_K`` from the stationary distribution (the sampler's start)."""
        gen = as_rng(rng)
        probs = np.broadcast_to(self.stationary_distribution(), shape + (NUM_STATES,))
        return sample_categorical(probs, gen)

    # ------------------------------------------------------------------ #
    # posteriors
    # ------------------------------------------------------------------ #
    def posterior_table(self, k: int, dtype: "np.dtype | type" = np.float64) -> np.ndarray:
        """Cached posterior lookup table for step ``k``.

        ``table[v, i, s] = q(x_{k-1}=s | x_k=v, x_0=i)`` — a ``(2, 2, 2)``
        array that turns the per-pixel posterior computation into a single
        fancy-index gather.  Built once per step and reused by every training
        iteration and every reverse-sampling step, which is what makes the
        batched sampler's mixing phase cheap.  ``dtype=np.float32`` gives the
        sampling engine a lower-precision variant that halves the memory
        traffic of the per-step two-state mixture.
        """
        key = (k, np.dtype(dtype).str)
        table = self._posterior_tables.get(key)
        if table is None:
            q_k = self.q_matrix(k)
            q_bar_prev = self.q_bar_matrix(k - 1)
            q_bar_k = self.q_bar_matrix(k)
            # numerator[v, i, s] = Q_k[s, v] * Q̄_{k-1}[i, s]
            numerator = q_k.T[:, None, :] * q_bar_prev[None, :, :]
            table = (numerator / q_bar_k.T[:, :, None]).astype(dtype, copy=False)
            table.setflags(write=False)
            self._posterior_tables[key] = table
        return table

    def posterior_probs(self, xk: np.ndarray, x0: np.ndarray, k: int) -> np.ndarray:
        """Forward posterior ``q(x_{k-1} | x_k, x_0)`` (Eq. 12).

        Shapes: ``xk`` and ``x0`` are integer state arrays of the same shape;
        the result has an extra trailing state axis.
        """
        xk = self._validate_states(xk)
        x0 = self._validate_states(x0)
        if xk.shape != x0.shape:
            raise ValueError("xk and x0 must have the same shape")
        return self.posterior_table(k)[xk, x0]

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _validate_states(self, states: np.ndarray) -> np.ndarray:
        arr = np.asarray(states)
        if not np.issubdtype(arr.dtype, np.integer):
            if np.isin(arr, np.arange(NUM_STATES)).all():
                arr = arr.astype(np.int64)
            else:
                raise ValueError("state arrays must contain integer states")
        if (arr < 0).any() or (arr >= NUM_STATES).any():
            raise ValueError(f"states must lie in [0, {NUM_STATES})")
        return arr.astype(np.int64)


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample integer states from categorical distributions over the last axis."""
    uniforms = rng.random(np.asarray(probs).shape[:-1])
    return categorical_from_uniforms(probs, uniforms)


def categorical_from_uniforms(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Invert categorical CDFs at pre-drawn uniforms (over the last axis).

    Splitting the random draw from the inversion lets callers control the
    uniform stream per sample — the batched sampling engine uses one
    deterministic stream per sample index so a batch of any size reproduces
    one-at-a-time sampling bit for bit.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cumulative = probs.cumsum(axis=-1)
    cumulative /= cumulative[..., -1:]
    return (np.asarray(uniforms)[..., None] > cumulative).sum(axis=-1).astype(np.int64)


def one_hot(states: np.ndarray, num_states: int) -> np.ndarray:
    """One-hot encode an integer state array; new axis is inserted at -1."""
    arr = np.asarray(states, dtype=np.int64)
    if (arr < 0).any() or (arr >= num_states).any():
        raise ValueError(f"states must lie in [0, {num_states})")
    encoded = np.zeros(arr.shape + (num_states,), dtype=np.float32)
    np.put_along_axis(encoded, arr[..., None], 1.0, axis=-1)
    return encoded


def binary_flip_probability(schedule: NoiseSchedule, k: int) -> float:
    """Closed-form cumulative flip probability for the binary chain.

    For the symmetric 2-state matrix, ``Q̄_k`` is again symmetric with
    off-diagonal ``β̄_k = ½ (1 − ∏_{i<=k} (1 − 2 β_i))`` — handy for checking
    the matrix-product implementation and for analytic tests.
    """
    if not 0 <= k <= schedule.num_steps:
        raise IndexError(f"k={k} outside [0, {schedule.num_steps}]")
    if k == 0:
        return 0.0
    product = float(np.prod(1.0 - 2.0 * schedule.betas[:k]))
    return 0.5 * (1.0 - product)
