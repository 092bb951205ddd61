"""Batched, gradient-free inference engine for topology-tensor sampling.

:class:`SamplingEngine` is the one reverse-diffusion (Eq. 13) sampler of a
trained :class:`~repro.diffusion.DiscreteDiffusion` model: the pipeline, the
Table II efficiency harness and the benchmark scripts all draw topology
tensors through it.  It has four properties:

* **Gradient-free batched hot path** — every denoising step runs the whole
  chunk through ``UNet.infer`` (raw float32 arrays, no cache, no dropout) and
  mixes the predicted ``p_θ(x_0 | x_k)`` with cached posterior transition
  tables (the two-state mixture of the binary chain), so the per-step cost
  is a handful of large NumPy kernels.  The last jump emits the mode of
  ``p_θ(x_0 | x_k)`` with no draw.

* **Chunk-invariant determinism** — every sample index owns an independent
  random stream seeded from ``(seed, index)``.  The result of drawing sample
  ``i`` is therefore bitwise identical whether it is generated alone, inside
  a batch of 8, or as part of chunk 3 of a thousand-sample run, which is
  what the parity tests assert.

* **Per-phase throughput accounting** — the engine reports how long was
  spent in the network (``model``) versus the categorical mixing / RNG work
  (``mixing``) versus initialisation, plus samples/second, so efficiency
  regressions show up in the Table II benchmark rather than anecdotes.

* **Few-step respaced sampling** — every run walks the engine's
  :class:`~repro.diffusion.RespacedSchedule` over ``steps`` retained
  timesteps: the denoising network runs once per retained timestep and the
  reverse draws use composed jump-posterior tables (see
  ``docs/sampling.md``).  ``steps`` equal to the chain length (or ``None``)
  is the full chain, bit for bit.

The ``batch_size`` knob bounds peak memory: chunks of at most that many
samples are denoised per reverse pass, without changing any sampled value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..diffusion import DiscreteDiffusion, RespacedSchedule
from ..diffusion.transition import categorical_from_uniforms
from ..utils import resolve_seed

__all__ = ["SamplingEngine", "SamplingReport", "resolve_seed"]


@dataclass
class SamplingReport:
    """Per-phase throughput of one :class:`SamplingEngine` run.

    ``num_steps`` counts the denoising steps *walked* per sample (the
    respaced count under a strided schedule); ``chain_steps`` is the length
    of the trained chain, so ``chain_steps / num_steps`` is the per-sample
    network-evaluation saving.  ``model_evals`` counts actual denoiser
    forward passes (chunks × steps) across the run.
    """

    num_samples: int
    num_steps: int
    batch_size: int
    num_chunks: int
    chain_steps: int = 0
    model_evals: int = 0
    total_seconds: float = 0.0
    model_seconds: float = 0.0
    mixing_seconds: float = 0.0
    init_seconds: float = 0.0

    @property
    def seconds_per_sample(self) -> float:
        return self.total_seconds / self.num_samples if self.num_samples else 0.0

    @property
    def samples_per_second(self) -> float:
        return self.num_samples / self.total_seconds if self.total_seconds else float("inf")

    @property
    def model_fraction(self) -> float:
        """Share of wall-clock spent inside the denoising network."""
        return self.model_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def evals_per_sample(self) -> float:
        """Denoiser forward passes per sample (``num_steps`` of the schedule)."""
        return self.model_evals / self.num_samples if self.num_samples else 0.0

    def merge(self, other: "SamplingReport") -> "SamplingReport":
        """Fold another report into this one (streamed-run aggregation)."""
        self.num_samples += other.num_samples
        self.num_chunks += other.num_chunks
        self.model_evals += other.model_evals
        self.total_seconds += other.total_seconds
        self.model_seconds += other.model_seconds
        self.mixing_seconds += other.mixing_seconds
        self.init_seconds += other.init_seconds
        self.num_steps = max(self.num_steps, other.num_steps)
        self.chain_steps = max(self.chain_steps, other.chain_steps)
        self.batch_size = max(self.batch_size, other.batch_size)
        return self

    def format(self) -> str:
        if self.chain_steps and self.chain_steps != self.num_steps:
            steps = f"{self.num_steps} of {self.chain_steps} steps (respaced)"
        else:
            steps = f"{self.num_steps} steps"
        lines = [
            f"samples            {self.num_samples} "
            f"(chunks of <= {self.batch_size}, {self.num_chunks} chunk(s), "
            f"{steps})",
            f"total              {self.total_seconds:.4f} s "
            f"({self.samples_per_second:.2f} samples/s, "
            f"{self.seconds_per_sample:.4f} s/sample)",
            f"  model forward    {self.model_seconds:.4f} s ({self.model_fraction:.0%})",
            f"  posterior mixing {self.mixing_seconds:.4f} s",
            f"  initialisation   {self.init_seconds:.4f} s",
        ]
        return "\n".join(lines)


class SamplingEngine:
    """Chunked, deterministic, gradient-free reverse-diffusion sampler.

    Parameters
    ----------
    diffusion:
        The trained generator to draw from.
    batch_size:
        Samples denoised per reverse pass; a pure memory/throughput knob
        (per-index seeding keeps the output identical for any value).
    steps:
        Denoising steps to walk per sample.  ``None`` (default) walks the
        full trained chain; a smaller value samples the evenly respaced
        few-step chain (``steps`` network evaluations per sample, composed
        jump posteriors — see ``docs/sampling.md``).  ``steps`` equal to
        the chain length is bit-identical to ``None``.

    Raises
    ------
    ValueError
        If ``batch_size`` is not positive or ``steps`` is outside
        ``[1, chain length]``.
    """

    def __init__(
        self,
        diffusion: DiscreteDiffusion,
        batch_size: int = 32,
        steps: "int | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.diffusion = diffusion
        self.batch_size = int(batch_size)
        #: The reverse-sampling schedule every run walks (full chain when no
        #: ``steps`` was given).
        self.schedule = RespacedSchedule(diffusion.transition, steps)
        self.last_report: "SamplingReport | None" = None

    @property
    def steps(self) -> int:
        """Denoising steps walked per sample (= denoiser evaluations)."""
        return self.schedule.num_steps

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def sample(
        self,
        num_samples: int,
        seed: "int | np.random.Generator | None" = 0,
        first_index: int = 0,
    ) -> np.ndarray:
        """Draw ``num_samples`` topology tensors; shape ``(N, C, M, M)``.

        ``first_index`` offsets the per-sample streams: the call draws the
        samples owned by indices ``[first_index, first_index + num_samples)``
        of the seed's virtual sequence, so a streaming caller pulling
        consecutive windows reproduces one monolithic call bit for bit.
        The last jump takes the mode of ``p_θ(x_0 | x_k)`` instead of
        sampling it, which removes residual salt-and-pepper noise (standard
        practice for discrete diffusion samplers).

        Raises
        ------
        ValueError
            If ``num_samples`` < 1 or ``first_index`` < 0.
        """
        samples, _ = self.sample_with_report(num_samples, seed=seed, first_index=first_index)
        return samples

    def sample_with_report(
        self,
        num_samples: int,
        seed: "int | np.random.Generator | None" = 0,
        first_index: int = 0,
    ) -> tuple[np.ndarray, SamplingReport]:
        """Like :meth:`sample` but also returns the per-phase throughput."""
        samples, _, report = self._run(num_samples, seed, first_index=first_index)
        return samples, report

    def sample_chain(
        self,
        num_samples: int = 1,
        seed: "int | np.random.Generator | None" = 0,
        chain_stride: int = 1,
    ) -> tuple[np.ndarray, list[np.ndarray], tuple[int, ...]]:
        """Sample and keep the intermediate chain states (for Fig. 6).

        Returns ``(samples, chain, timesteps)``.  ``chain`` is a list of
        ``(N, C, M, M)`` states: ``x_K``, then the state after every
        ``chain_stride``-th reverse jump, then the final sample ``x_0``.
        ``timesteps[j]`` is the timestep of ``chain[j]``: a full ``K = 8``
        chain is labelled ``8, 5, 2, 0`` at stride 3 and ``8, 6, 4, 2, 0`` at
        stride 2, and at ``chain_stride=1`` the labels are every timestep the
        engine walks.  On a respaced engine the stride counts jumps, not
        timesteps.
        """
        stride = max(1, int(chain_stride))
        timesteps = (self.schedule.chain_steps,) + tuple(
            prev
            for jump, (_, prev) in enumerate(self.schedule.jumps, start=1)
            if prev == 0 or jump % stride == 0
        )
        samples, chains, _ = self._run(num_samples, seed, record=timesteps)
        return samples, chains, timesteps

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run(
        self,
        num_samples: int,
        seed: "int | np.random.Generator | None",
        first_index: int = 0,
        record: tuple[int, ...] = (),
    ) -> tuple[np.ndarray, list[np.ndarray], SamplingReport]:
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if first_index < 0:
            raise ValueError("first_index must be >= 0")
        base_seed = resolve_seed(seed)
        chunk_size = self.batch_size
        report = SamplingReport(
            num_samples=num_samples,
            num_steps=self.schedule.num_steps,
            batch_size=chunk_size,
            num_chunks=-(-num_samples // chunk_size),
            chain_steps=self.schedule.chain_steps,
        )

        start_total = time.perf_counter()
        finals: list[np.ndarray] = []
        chunk_chains: list[list[np.ndarray]] = []
        for start in range(0, num_samples, chunk_size):
            indices = range(
                first_index + start,
                first_index + min(start + chunk_size, num_samples),
            )
            chunk_chains.append(self._denoise_chunk(base_seed, indices, record, report, finals))
        report.total_seconds = time.perf_counter() - start_total
        self.last_report = report

        samples = finals[0] if len(finals) == 1 else np.concatenate(finals, axis=0)
        chains = [
            parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
            for parts in zip(*chunk_chains)
        ]
        return samples, chains, report

    def _denoise_chunk(
        self,
        base_seed: int,
        indices: range,
        record: tuple[int, ...],
        report: SamplingReport,
        finals: list[np.ndarray],
    ) -> list[np.ndarray]:
        """Reverse-diffuse one chunk; appends the final states to ``finals``.

        Returns the states at the timesteps in ``record`` (see
        :meth:`sample_chain`), in walk order.  The loop walks the
        engine's :class:`~repro.diffusion.RespacedSchedule` jump by jump.
        Over the full chain every jump spans one step and the body is
        exactly the classic ancestral sampler; under a strided schedule the
        per-step posterior table is replaced by the composed jump table —
        same gather, same mixing kernel, same one uniform draw per jump, so
        chunk invariance is untouched.
        """
        diffusion = self.diffusion
        schedule = self.schedule
        cfg = diffusion.model.config
        sample_shape = (cfg.in_channels, cfg.image_size, cfg.image_size)

        tic = time.perf_counter()
        # One independent, deterministically seeded stream per sample index:
        # the drawn values depend only on (base_seed, index), never on how
        # samples are grouped into chunks.
        gens = [np.random.default_rng([base_seed, index]) for index in indices]
        xk = np.stack(
            [diffusion.transition.sample_stationary(sample_shape, g) for g in gens], axis=0
        )
        report.init_seconds += time.perf_counter() - tic

        chain = [xk.copy()] if record else []
        for cur, prev in schedule.jumps:
            tic = time.perf_counter()
            probs_x0 = diffusion.predict_x0_probs(xk, cur)
            report.model_seconds += time.perf_counter() - tic
            report.model_evals += 1

            tic = time.perf_counter()
            probs_x0 = np.moveaxis(probs_x0, 2, -1)  # (N, C, M, M, 2)
            if prev == 0:
                xk = probs_x0.argmax(axis=-1).astype(np.int64)
            else:
                posterior_all = schedule.posterior_table(cur, prev, dtype=np.float32)[xk]
                probs_prev = probs_x0[..., 0, None] * posterior_all[..., 0, :]
                probs_prev += probs_x0[..., 1, None] * posterior_all[..., 1, :]
                uniforms = np.stack([g.random(sample_shape) for g in gens], axis=0)
                xk = categorical_from_uniforms(probs_prev, uniforms)
            report.mixing_seconds += time.perf_counter() - tic
            if prev in record:
                chain.append(xk.copy())

        finals.append(xk)
        return chain
