"""The noise schedule of the diffusion forward process.

The paper (Eq. 8) uses a linearly increasing schedule for the flip
probability ``beta_k``, from ``beta_1 = 0.01`` to ``beta_K = 0.5`` over
``K = 1000`` steps, so the forward chain converges to the uniform stationary
distribution.  :func:`linear_schedule` is the only schedule: the chain of
:class:`~repro.diffusion.DiscreteDiffusion` is always built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """A sequence of per-step noise levels ``beta_1 .. beta_K``.

    ``betas[k-1]`` is the flip probability applied at diffusion step ``k``.
    """

    betas: np.ndarray

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1-D array")
        if (betas <= 0.0).any() or (betas >= 1.0).any():
            raise ValueError("every beta must lie strictly inside (0, 1)")
        object.__setattr__(self, "betas", betas)

    @property
    def num_steps(self) -> int:
        """Number of diffusion steps K."""
        return int(self.betas.shape[0])

    def beta(self, k: int) -> float:
        """Noise level at step ``k`` (1-indexed, as in the paper)."""
        if not 1 <= k <= self.num_steps:
            raise IndexError(f"step k={k} outside [1, {self.num_steps}]")
        return float(self.betas[k - 1])


def linear_schedule(num_steps: int, beta_start: float = 0.01, beta_end: float = 0.5) -> NoiseSchedule:
    """Paper Eq. (8): ``beta_k`` increases linearly from beta_1 to beta_K."""
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if num_steps == 1:
        return NoiseSchedule(np.asarray([beta_end], dtype=np.float64))
    steps = np.arange(num_steps, dtype=np.float64)
    betas = steps * (beta_end - beta_start) / (num_steps - 1) + beta_start
    return NoiseSchedule(betas)
