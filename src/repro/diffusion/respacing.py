"""The reverse-sampling schedule of the binary D3PM chain, full or respaced.

The full reverse sampler walks every step of the ``K``-step chain, calling
the denoising network once per step.  Because the forward process is a
Markov chain of known transition matrices, any *subsequence* of timesteps
``τ_1 < τ_2 < ... < τ_S = K`` induces an equally valid (coarser) chain whose
jump transitions are products of the per-step matrices — the discrete
analogue of DDIM respacing (Austin et al., NeurIPS 2021; Nichol & Dhariwal's
timestep-respacing trick).  Sampling the respaced chain needs only ``S``
network evaluations instead of ``K``.  :class:`RespacedSchedule` retains the
``S`` evenly spaced timesteps of :func:`respaced_timesteps`; ``S = K`` is the
full chain.

For a jump from retained step ``b`` down to retained step ``a < b`` the
composed transition and jump posterior are

.. math::

    Q_{a→b} = Q_{a+1} Q_{a+2} \\cdots Q_b,
    \\qquad
    q(x_a = s \\mid x_b = v, x_0 = i)
        = \\frac{Q_{a→b}[s, v] \\; \\bar Q_a[i, s]}{\\bar Q_b[i, v]},

exactly the per-step posterior of Eq. (12) with ``Q_b`` replaced by the
product matrix.  :class:`RespacedSchedule` precomputes one such ``(2, 2, 2)``
lookup table per jump — the same cheap gather shape the full-chain sampler
already uses — and renormalizes composed tables against float drift.

**Bit-identity contract.**  A single-step jump (``b = a + 1``) delegates to
:meth:`~repro.diffusion.transition.DiscreteTransitionModel.posterior_table`,
so a schedule with ``steps == K`` reproduces the full chain *bit for bit*:
same tables, same number and order of RNG draws, hence the exact samples the
chunk-invariance contract of :class:`~repro.pipeline.SamplingEngine`
guarantees (see ``docs/sampling.md``).
"""

from __future__ import annotations

import numpy as np

from .transition import NUM_STATES, DiscreteTransitionModel

__all__ = ["RespacedSchedule", "respaced_timesteps"]


def respaced_timesteps(chain_steps: int, steps: int) -> tuple[int, ...]:
    """Evenly spaced retained timesteps for a ``steps``-step respaced walk.

    Parameters
    ----------
    chain_steps:
        Length ``K`` of the trained chain.
    steps:
        Number of retained timesteps (network evaluations per sample).

    Returns
    -------
    tuple[int, ...]
        Strictly increasing timesteps ``τ_1 < ... < τ_S`` with
        ``τ_S == chain_steps``; for ``steps == chain_steps`` this is exactly
        ``(1, 2, ..., K)``, and for ``steps == 1`` it is ``(K,)`` (one jump
        straight from the stationary draw to the clean sample).

    Raises
    ------
    ValueError
        If ``steps`` is not an integer in ``[1, chain_steps]``.
    """
    if chain_steps < 1:
        raise ValueError("chain_steps must be >= 1")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if not 1 <= steps <= chain_steps:
        raise ValueError(
            f"steps must lie in [1, {chain_steps}] (the trained chain length), "
            f"got {steps}"
        )
    # Descending linspace anchors the first retained step at K for any count
    # (including steps == 1); consecutive values differ by >= 1 so rounding
    # keeps them strictly monotone.
    taus = np.rint(np.linspace(chain_steps, 1, int(steps)))[::-1].astype(int)
    return tuple(int(t) for t in taus)


class RespacedSchedule:
    """A (possibly strided) reverse-sampling schedule over a trained chain.

    Parameters
    ----------
    transition:
        The :class:`~repro.diffusion.transition.DiscreteTransitionModel`
        whose cached cumulative matrices the jump tables are composed from.
    steps:
        Number of retained timesteps (:func:`respaced_timesteps`); ``None``
        keeps the full chain.

    Raises
    ------
    ValueError
        If ``steps`` is not an integer in ``[1, K]``.
    """

    def __init__(self, transition: DiscreteTransitionModel, steps: "int | None" = None) -> None:
        chain_steps = transition.num_steps
        taus = respaced_timesteps(chain_steps, chain_steps if steps is None else steps)
        self.transition = transition
        #: Retained timesteps, ascending; ``timesteps[-1] == chain_steps``.
        self.timesteps: tuple[int, ...] = taus
        #: Reverse jumps ``(cur, prev)`` in sampling order, ending at
        #: ``(timesteps[0], 0)`` — the final jump that emits ``x_0``.
        self.jumps: tuple[tuple[int, int], ...] = tuple(
            zip(taus[::-1], (taus[-2::-1] + (0,)))
        )
        # Composed jump tables, keyed like the transition's per-step cache.
        self._tables: dict[tuple[int, int, str], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    @property
    def num_steps(self) -> int:
        """Retained steps walked per sample (= network evaluations)."""
        return len(self.timesteps)

    @property
    def chain_steps(self) -> int:
        """Length ``K`` of the underlying trained chain."""
        return self.transition.num_steps

    # ------------------------------------------------------------------ #
    def jump_matrix(self, cur: int, prev: int) -> np.ndarray:
        """Composed transition ``Q_{prev→cur} = Q_{prev+1} ... Q_cur``.

        Raises
        ------
        ValueError
            Unless ``0 <= prev < cur <= chain_steps``.
        """
        if not 0 <= prev < cur <= self.chain_steps:
            raise ValueError(
                f"jump must satisfy 0 <= prev < cur <= {self.chain_steps}, "
                f"got prev={prev}, cur={cur}"
            )
        matrix = np.eye(NUM_STATES)
        for k in range(prev + 1, cur + 1):
            matrix = matrix @ self.transition.q_matrix(k)
        return matrix

    def posterior_table(
        self, cur: int, prev: int, dtype: "np.dtype | type" = np.float64
    ) -> np.ndarray:
        """Cached jump-posterior lookup table for the jump ``cur → prev``.

        ``table[v, i, s] = q(x_prev = s | x_cur = v, x_0 = i)`` — the same
        ``(2, 2, 2)`` gather shape as the full chain's per-step table, so the
        sampler's mixing kernel is unchanged.  Single-step jumps return the
        transition model's own cached table (bit-identical to the full
        chain); composed jumps build the product matrix once and renormalize
        the mixture rows against accumulated float error.

        Raises
        ------
        ValueError
            Unless ``1 <= prev < cur <= chain_steps`` (the final jump to
            ``prev == 0`` needs no table: the sampler takes the mode of the
            model's ``p_θ(x_0 | x_cur)`` directly).
        """
        if prev < 1:
            raise ValueError(
                "the jump to prev=0 emits x_0 from the model posterior and "
                "has no lookup table"
            )
        if cur == prev + 1:
            return self.transition.posterior_table(cur, dtype=dtype)
        key = (cur, prev, np.dtype(dtype).str)
        table = self._tables.get(key)
        if table is None:
            q_jump = self.jump_matrix(cur, prev)
            q_bar_prev = self.transition.q_bar_matrix(prev)
            q_bar_cur = self.transition.q_bar_matrix(cur)
            # numerator[v, i, s] = Q_{prev→cur}[s, v] * Q̄_prev[i, s]
            numerator = q_jump.T[:, None, :] * q_bar_prev[None, :, :]
            # denominator[v, i] = Q̄_cur[i, v]; exact up to float error since
            # Q̄_cur = Q̄_prev Q_{prev→cur} — renormalize the residual away.
            table = numerator / q_bar_cur.T[:, :, None]
            table /= table.sum(axis=-1, keepdims=True)
            table = table.astype(dtype, copy=False)
            table.setflags(write=False)
            self._tables[key] = table
        return table
