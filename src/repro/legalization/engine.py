"""Parallel legalization engine with deterministic sharding.

:class:`LegalizationEngine` is the batch entry point for the "2D Legal
Pattern Assessment" phase (Section III-D): the pipeline, the Table I/II
harnesses and the benchmarks all legalise topology batches through it.  It
mirrors the design of :class:`~repro.pipeline.SamplingEngine`:

* **Embarrassingly parallel hot path** — each topology needs one independent
  nonlinear solve (or several, in DiffPattern-L mode), so the batch is
  sharded across a ``concurrent.futures.ProcessPoolExecutor``.  At
  ``workers=1`` the engine runs serially in-process with zero pool overhead.

* **Shard-invariant determinism** — every topology index owns an independent
  random stream spawned from ``(seed, index)`` via
  :class:`numpy.random.SeedSequence`.  The solver targets drawn for topology
  ``i`` therefore depend only on the seed and ``i``, never on the worker
  count, the chunk size, or which other topologies share the batch:
  parallel output is element-wise identical to the serial run, which is what
  the parity tests assert.

* **Merged statistics and per-phase throughput** — per-shard
  :class:`~repro.legalization.LegalizationStats` are folded into one block,
  and a :class:`LegalizationReport` (analogous to ``SamplingReport``)
  reports topologies/second, patterns/second and how much aggregate solver
  time the wall-clock run amortised.

The ``chunk_size`` knob trades scheduling overhead against load balance:
smaller chunks keep slow solves from starving idle workers, without changing
any output value.

The pool is created per batch call and torn down with it — forking is cheap
on Linux and nothing can leak between runs; the reference library is shipped
to each worker once per call via the pool initializer, not once per chunk.
Callers that legalise repeatedly should hold on to one engine (the pipeline
caches its engine per dataset/knob combination).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..squish import SquishPattern
from ..utils import resolve_seed
from .batched import SolverOptions
from .legalizer import LegalizationStats, LegalizedTopology, Legalizer
from .rules import DesignRules


def default_workers() -> int:
    """A sensible worker count for this host (capped to keep RAM bounded).

    The ``REPRO_WORKERS`` environment variable (a positive integer)
    overrides the heuristic, so container deployments can size the pool
    without code changes.
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be a positive integer, got {env!r}")
        return workers
    return max(1, min(8, os.cpu_count() or 1))


@dataclass
class LegalizationReport:
    """Per-phase throughput of one :class:`LegalizationEngine` run."""

    num_topologies: int
    num_solutions: int
    workers: int
    chunk_size: int
    num_chunks: int
    total_seconds: float = 0.0
    #: Aggregate time spent inside the nonlinear solver, summed across all
    #: workers — it exceeds ``total_seconds`` when parallelism is winning.
    solver_seconds: float = 0.0
    stats: LegalizationStats = field(default_factory=LegalizationStats)

    @property
    def seconds_per_topology(self) -> float:
        return self.total_seconds / self.num_topologies if self.num_topologies else 0.0

    @property
    def topologies_per_second(self) -> float:
        return self.num_topologies / self.total_seconds if self.total_seconds else float("inf")

    @property
    def patterns_per_second(self) -> float:
        return self.stats.solutions / self.total_seconds if self.total_seconds else float("inf")

    @property
    def solver_utilization(self) -> float:
        """Aggregate solver time per wall-clock second (≈ effective workers)."""
        return self.solver_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def success_rate(self) -> float:
        return self.stats.success_rate

    def merge(self, other: "LegalizationReport") -> "LegalizationReport":
        """Fold another report into this one (streamed-run aggregation)."""
        self.num_topologies += other.num_topologies
        self.num_chunks += other.num_chunks
        self.total_seconds += other.total_seconds
        self.solver_seconds += other.solver_seconds
        self.stats.merge(other.stats)
        self.num_solutions = max(self.num_solutions, other.num_solutions)
        self.workers = max(self.workers, other.workers)
        self.chunk_size = max(self.chunk_size, other.chunk_size)
        return self

    def format(self) -> str:
        lines = [
            f"topologies         {self.num_topologies} "
            f"(chunks of <= {self.chunk_size}, {self.num_chunks} chunk(s), "
            f"{self.workers} worker(s), {self.num_solutions} solution(s) each)",
            f"total              {self.total_seconds:.4f} s "
            f"({self.topologies_per_second:.2f} topologies/s, "
            f"{self.patterns_per_second:.2f} patterns/s)",
            f"  solver aggregate {self.solver_seconds:.4f} s "
            f"({self.solver_utilization:.2f} effective workers)",
            f"  solved           {self.stats.solved}/{self.stats.attempted} "
            f"({self.success_rate:.0%}), {self.stats.solutions} pattern(s), "
            f"{self.stats.total_iterations} solver iteration(s)",
            f"  fast path        {self.stats.fast_path_solutions}/{self.stats.solutions} "
            f"solution(s) via repair ({self.stats.fast_path_fraction:.0%})",
            f"  batched          {self.stats.batched_sweeps} whole-chunk sweep(s) "
            f"over {self.stats.batched_sweep_topologies} topologies "
            f"(mean {self.stats.batched_sweep_mean_size:.1f}), "
            f"{self.stats.batched_tail_solves} SLSQP tail solve(s)",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# worker-process plumbing
# --------------------------------------------------------------------------- #
# One Legalizer per worker process, built once by the pool initializer so the
# (potentially large) reference-geometry library is shipped to each worker a
# single time instead of once per chunk.
_WORKER_LEGALIZER: "Legalizer | None" = None


def _init_worker(
    rules: DesignRules,
    references: "list[tuple[np.ndarray, np.ndarray]] | None",
    options: SolverOptions,
) -> None:
    global _WORKER_LEGALIZER
    _WORKER_LEGALIZER = Legalizer(rules, reference_geometries=references, options=options)


def _legalize_shard(
    payload: "tuple[int, list[np.ndarray], int, int]",
) -> "tuple[int, list[LegalizedTopology], LegalizationStats]":
    """Legalise one chunk inside a worker; returns ``(start_index, results, stats)``."""
    start_index, topologies, num_solutions, base_seed = payload
    legalizer = _WORKER_LEGALIZER
    if legalizer is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process was not initialised")
    legalizer.stats = LegalizationStats()
    results = legalizer.legalize_batch(
        topologies, num_solutions=num_solutions, rng=base_seed, first_index=start_index
    )
    return start_index, results, legalizer.stats


class LegalizationEngine:
    """Sharded, deterministic batch legaliser.

    Parameters
    ----------
    rules:
        Active design rules.
    reference_geometries:
        Optional warm-start library (``Solving-E``); bucketed by shape once
        per worker via :class:`~repro.legalization.ReferenceIndex`.
    options:
        Numerical solver options.
    workers:
        Process-pool width.  ``1`` (the default) runs serially in-process;
        ``None`` uses :func:`default_workers`.
    chunk_size:
        Topologies per pool task.  ``None`` derives a balanced default from
        the batch and worker count.  Output never depends on this value.
    """

    def __init__(
        self,
        rules: DesignRules,
        reference_geometries: "list[tuple[np.ndarray, np.ndarray]] | None" = None,
        options: "SolverOptions | None" = None,
        workers: "int | None" = 1,
        chunk_size: "int | None" = None,
    ) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.rules = rules
        self.reference_geometries = list(reference_geometries or [])
        self.options = options if options is not None else SolverOptions()
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.last_report: "LegalizationReport | None" = None
        self._pool: "ProcessPoolExecutor | None" = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def legalize_batch(
        self,
        topologies: "np.ndarray | list[np.ndarray]",
        num_solutions: int = 1,
        seed: "int | np.random.Generator | None" = 0,
        chunk_size: "int | None" = None,
        first_index: int = 0,
    ) -> list[LegalizedTopology]:
        """Legalise a batch; element ``i`` depends only on ``(seed, i)``.

        ``first_index`` offsets the per-topology streams: the batch occupies
        indices ``[first_index, first_index + len(batch))`` of the seed's
        virtual sequence, so a streaming caller legalising consecutive
        windows reproduces one monolithic call bit for bit.
        """
        results, _ = self.legalize_batch_with_report(
            topologies,
            num_solutions=num_solutions,
            seed=seed,
            chunk_size=chunk_size,
            first_index=first_index,
        )
        return results

    def legalize_batch_with_report(
        self,
        topologies: "np.ndarray | list[np.ndarray]",
        num_solutions: int = 1,
        seed: "int | np.random.Generator | None" = 0,
        chunk_size: "int | None" = None,
        first_index: int = 0,
    ) -> tuple[list[LegalizedTopology], LegalizationReport]:
        """Like :meth:`legalize_batch` but also returns the throughput report."""
        if first_index < 0:
            raise ValueError("first_index must be >= 0")
        batch = [np.asarray(t) for t in topologies]
        base_seed = resolve_seed(seed)
        chunk = self._resolve_chunk_size(len(batch), chunk_size)
        shards = [
            (first_index + start, batch[start : start + chunk], int(num_solutions), base_seed)
            for start in range(0, len(batch), chunk)
        ]
        report = LegalizationReport(
            num_topologies=len(batch),
            num_solutions=int(num_solutions),
            workers=self.workers,
            chunk_size=chunk,
            num_chunks=len(shards),
        )

        start_total = time.perf_counter()
        if self._in_process() or len(batch) <= 1:
            # One legaliser per call, like the parallel path ships the
            # reference library per call: reassigning engine attributes
            # between calls affects serial and parallel runs identically.
            legalizer = Legalizer(
                self.rules,
                reference_geometries=self.reference_geometries,
                options=self.options,
            )
            outputs = [self._run_shard_serial(shard, legalizer) for shard in shards]
        else:
            outputs = self._run_shards_parallel(shards)
        report.total_seconds = time.perf_counter() - start_total

        outputs.sort(key=lambda item: item[0])
        results: list[LegalizedTopology] = []
        for _, shard_results, shard_stats in outputs:
            results.extend(shard_results)
            report.stats.merge(shard_stats)
        report.solver_seconds = report.stats.total_solver_time
        self.last_report = report
        return results, report

    @contextmanager
    def pool(self):
        """Hold one process pool open across several batch calls.

        The default per-call pool keeps one-shot batches leak-free, but a
        streaming caller that legalises many small chunks would otherwise
        pay pool startup — and re-ship the reference-geometry library to
        every worker — once *per chunk*.  Inside this context the pool (and
        the workers' reference copies) persists until exit; re-entering is a
        no-op, and at ``workers=1`` there is nothing to hold.  The engine's
        rules/references/options are pinned for the lifetime of the pool —
        reassign them only outside the context.
        """
        if self._in_process() or self._pool is not None:
            yield self
            return
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.rules, self.reference_geometries, self.options),
        )
        try:
            yield self
        finally:
            pool, self._pool = self._pool, None
            pool.shutdown()

    def legal_patterns(
        self,
        topologies: "np.ndarray | list[np.ndarray]",
        num_solutions: int = 1,
        seed: "int | np.random.Generator | None" = 0,
        chunk_size: "int | None" = None,
    ) -> list[SquishPattern]:
        """Flatten :meth:`legalize_batch` into the final pattern library."""
        results = self.legalize_batch(
            topologies, num_solutions=num_solutions, seed=seed, chunk_size=chunk_size
        )
        return [pattern for result in results for pattern in result.patterns]

    @property
    def stats(self) -> LegalizationStats:
        """Merged statistics of the most recent run."""
        return self.last_report.stats if self.last_report is not None else LegalizationStats()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _in_process(self) -> bool:
        """Serial in-process runs: ``workers=1``, or a daemonic process (a
        supervised serve worker), which may not start a pool."""
        return self.workers == 1 or multiprocessing.current_process().daemon

    def _resolve_chunk_size(self, num_topologies: int, chunk_size: "int | None") -> int:
        chunk = chunk_size if chunk_size is not None else self.chunk_size
        if chunk is None:
            # Aim for ~4 chunks per worker so one hard solve cannot starve
            # the pool, without drowning it in per-task overhead.
            chunk = max(1, -(-num_topologies // (4 * self.workers)))
        if chunk < 1:
            raise ValueError("chunk_size must be >= 1")
        return int(chunk)

    def _run_shard_serial(
        self,
        shard: "tuple[int, list[np.ndarray], int, int]",
        legalizer: Legalizer,
    ) -> "tuple[int, list[LegalizedTopology], LegalizationStats]":
        start_index, topologies, num_solutions, base_seed = shard
        legalizer.stats = LegalizationStats()
        results = legalizer.legalize_batch(
            topologies, num_solutions=num_solutions, rng=base_seed, first_index=start_index
        )
        return start_index, results, legalizer.stats

    def _run_shards_parallel(
        self, shards: "list[tuple[int, list[np.ndarray], int, int]]"
    ) -> "list[tuple[int, list[LegalizedTopology], LegalizationStats]]":
        if self._pool is not None:
            return list(self._pool.map(_legalize_shard, shards))
        max_workers = min(self.workers, len(shards))
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(self.rules, self.reference_geometries, self.options),
        ) as pool:
            return list(pool.map(_legalize_shard, shards))
