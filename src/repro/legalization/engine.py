"""The legalization entry point: a sharded, deterministic batch legaliser.

:class:`LegalizationEngine` implements the "2D Legal Pattern Assessment"
phase (Section III-D): every generated topology receives one
(DiffPattern-S) or many (DiffPattern-L) legal geometric-vector assignments
under the active design rules, and a topology the solver cannot legalise is
kept with an empty pattern list so callers can count it.  It is the only
way the package legalises — the pipeline, the Table I/II harnesses, the
examples and the benchmarks all call it — and each of its chunks is one
:func:`~repro.legalization.solve_geometry_chunk` call.  It mirrors the
design of :class:`~repro.pipeline.SamplingEngine`:

* **Embarrassingly parallel hot path** — each topology needs one independent
  nonlinear solve (or several, in DiffPattern-L mode), so the batch is
  sharded across a ``concurrent.futures.ProcessPoolExecutor``.  At
  ``workers=1`` the engine runs in-process with zero pool overhead, and
  each call is one chunk solve over the whole batch.

* **Shard-invariant determinism** — every topology index owns an independent
  random stream spawned from ``(seed, index)`` via
  :class:`numpy.random.SeedSequence`.  The solver targets drawn for topology
  ``i`` therefore depend only on the seed and ``i``, never on the worker
  count, the chunk size, or which other topologies share the batch:
  parallel output is element-wise identical to the serial run, which is what
  the parity tests assert.

* **Merged statistics and per-phase throughput** — per-shard
  :class:`LegalizationStats` are folded into one block, and a
  :class:`LegalizationReport` (analogous to ``SamplingReport``) reports
  topologies/second, patterns/second and how much aggregate solver time the
  wall-clock run amortised.

Across the pool the batch is split into about four chunks per worker, so
one hard solve cannot starve idle workers; the ``chunk_size`` constructor
argument fixes the chunk length instead.  Neither changes any output value.

The pool is created per batch call and torn down with it — forking is cheap
on Linux and nothing can leak between runs; the reference library is shipped
to each worker once per call via the pool initializer, not once per chunk.
Before a pool forks, the engine loads ``scipy.optimize``
(:func:`~repro.legalization.scipy_optimize`) so every worker inherits it
rather than importing SciPy itself on each call.
Callers that legalise repeatedly should hold on to one engine (the pipeline
caches its engine per dataset/knob combination).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from ..squish import SquishPattern
from ..utils import child_rng, resolve_seed
from .batched import GeometrySolution, scipy_optimize, solve_geometry_chunk
from .compiled import compiled_for_topology
from .rules import DesignRules


@dataclass
class LegalizationStats:
    """Aggregate statistics of a legalisation run (feeds Table II)."""

    attempted: int = 0
    solved: int = 0
    failed: int = 0
    total_solver_time: float = 0.0
    total_iterations: int = 0
    solutions: int = 0
    #: How many of ``solutions`` the repair-first projection produced without
    #: an SLSQP call (always 0 under ``solver_mode="slsqp"``).
    fast_path_solutions: int = 0
    #: Whole-chunk vectorized repair sweeps (one per solution slot per chunk
    #: under ``solver_mode="auto"``).
    batched_sweeps: int = 0
    #: Topologies covered by those sweeps (sum of sweep sizes); divide by
    #: ``batched_sweeps`` for the mean sweep width.
    batched_sweep_topologies: int = 0
    #: Per-topology SLSQP calls issued by the restart-round tail.
    batched_tail_solves: int = 0

    @property
    def average_time_per_solution(self) -> float:
        return self.total_solver_time / self.solutions if self.solutions else 0.0

    @property
    def success_rate(self) -> float:
        return self.solved / self.attempted if self.attempted else 0.0

    @property
    def fast_path_fraction(self) -> float:
        """Fraction of solutions legalised by the repair fast path."""
        return self.fast_path_solutions / self.solutions if self.solutions else 0.0

    @property
    def batched_sweep_mean_size(self) -> float:
        """Mean number of topologies per whole-chunk repair sweep."""
        return (
            self.batched_sweep_topologies / self.batched_sweeps
            if self.batched_sweeps
            else 0.0
        )

    def merge(self, other: "LegalizationStats") -> "LegalizationStats":
        """Fold another stats block into this one (shard aggregation)."""
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> dict:
        """Every counter by field name (a library chunk record's ``stats``)."""
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "LegalizationStats":
        """Decode :meth:`as_dict`; a counter an older record lacks reads as 0."""
        return cls(**{
            counter.name: type(counter.default)(data.get(counter.name, 0))
            for counter in fields(cls)
        })


class ReferenceIndex:
    """Warm-start target index: reference geometries bucketed by shape.

    The engine picks its ``Solving-E`` warm-start target uniformly among
    the reference pairs whose vector lengths match the topology's constraint
    shape.  Bucketing the library by ``(rows, cols)`` once turns that pick
    from an O(library) rescan per topology into an O(1) lookup, while
    preserving the original candidate ordering inside each bucket (so the
    uniform draw selects the same pair as the linear scan did).
    """

    def __init__(
        self, references: "list[tuple[np.ndarray, np.ndarray]] | None" = None
    ) -> None:
        self._buckets: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
        self._size = 0
        for dx, dy in references or []:
            self.add(dx, dy)

    def add(self, delta_x: np.ndarray, delta_y: np.ndarray) -> None:
        """Register one ``(delta_x, delta_y)`` pair under its shape bucket."""
        pair = (
            np.asarray(delta_x, dtype=np.float64),
            np.asarray(delta_y, dtype=np.float64),
        )
        key = (len(pair[1]), len(pair[0]))  # (rows, cols)
        self._buckets.setdefault(key, []).append(pair)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def candidates(
        self, shape: tuple[int, int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """All reference pairs matching a ``(rows, cols)`` constraint shape."""
        return self._buckets.get((int(shape[0]), int(shape[1])), [])

    def pick(
        self, shape: tuple[int, int], rng: np.random.Generator
    ) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """Uniformly draw a matching pair, or ``(None, None)`` when none fit."""
        candidates = self.candidates(shape)
        if not candidates:
            return None, None
        dx, dy = candidates[int(rng.integers(0, len(candidates)))]
        return dx, dy


@dataclass
class LegalizedTopology:
    """All legal patterns produced from one topology matrix."""

    topology: np.ndarray
    patterns: list[SquishPattern] = field(default_factory=list)
    solutions: list[GeometrySolution] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return bool(self.patterns)


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
# the chunk body
# --------------------------------------------------------------------------- #
#: What every chunk is solved under: ``(rules, reference index, solver mode)``.
_Context = tuple[DesignRules, ReferenceIndex, str]

# A pool worker's context, built once by the pool initializer so the
# (potentially large) reference-geometry library is shipped to each worker a
# single time instead of once per chunk.
_WORKER_CONTEXT: "_Context | None" = None


def _init_worker(
    rules: DesignRules,
    references: "list[tuple[np.ndarray, np.ndarray]]",
    solver_mode: str,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (rules, ReferenceIndex(references), solver_mode)


def _legalize_shard(
    payload: "tuple[int, list[np.ndarray], int, int]",
    context: "_Context | None" = None,
) -> "tuple[int, list[LegalizedTopology], LegalizationStats]":
    """Legalise one chunk as one chunk solve; returns ``(start_index, results, stats)``.

    Topology ``i`` of the chunk draws from ``child_rng(base_seed,
    start_index + i)``.  In process the engine passes its own ``context``;
    inside the pool the worker's initializer-built copy is used.
    """
    start_index, topologies, num_solutions, base_seed = payload
    if context is None:
        context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process was not initialised")
    rules, references, solver_mode = context
    # The compiled kernel is cached by topology content + rules, so its
    # compilation is paid once even across repeats of the same topology.
    compiled = [compiled_for_topology(topology, rules) for topology in topologies]
    outcome = solve_geometry_chunk(
        compiled,
        rules,
        [child_rng(base_seed, start_index + i) for i in range(len(compiled))],
        solver_mode=solver_mode,
        num_solutions=num_solutions,
        # The Solving-E warm start draws one uniform when a reference pair
        # of the topology's shape exists, and nothing otherwise.
        initial_targets=lambda i, rng: references.pick(compiled[i].shape, rng),
    )
    stats = LegalizationStats(
        batched_sweeps=outcome.sweeps,
        batched_sweep_topologies=outcome.sweep_topologies,
        batched_tail_solves=outcome.tail_solves,
    )
    results: list[LegalizedTopology] = []
    for topology, slots in zip(topologies, outcome.solutions):
        result = LegalizedTopology(topology=topology.astype(np.uint8))
        stats.attempted += 1
        for solution in slots:
            stats.total_solver_time += solution.elapsed_seconds
            stats.total_iterations += solution.iterations
            if not solution.success:
                # Unsolved slots are skipped; the remaining slots are
                # still tried with fresh random targets.
                continue
            stats.solutions += 1
            if solution.method == "repair":
                stats.fast_path_solutions += 1
            result.solutions.append(solution)
            result.patterns.append(
                SquishPattern(
                    topology=result.topology,
                    delta_x=solution.delta_x,
                    delta_y=solution.delta_y,
                )
            )
        if result.solved:
            stats.solved += 1
        else:
            stats.failed += 1
        results.append(result)
    return start_index, results, stats


class LegalizationEngine:
    """Sharded, deterministic batch legaliser.

    Parameters
    ----------
    rules:
        Active design rules.
    reference_geometries:
        Optional list of ``(delta_x, delta_y)`` pairs from the existing
        pattern library.  When given, each topology's first solution is
        warm-started from a randomly chosen pair of its shape
        (``Solving-E``); otherwise random targets are used (``Solving-R``).
        The list is bucketed by shape (:class:`ReferenceIndex`) at every
        call, once per worker in a pool, so changing
        ``engine.reference_geometries`` — in place or by assignment — takes
        effect on the next call outside :meth:`pool`.
    solver_mode:
        ``"auto"`` (the repair sweep and its area-lift rounds first, SLSQP
        for what they leave) or ``"slsqp"`` (the full solve for every
        topology); see :data:`~repro.legalization.SOLVER_MODES`.
    workers:
        Process-pool width.  ``1`` (the default) runs in-process; ``None``
        uses :func:`default_workers`.
    chunk_size:
        Topologies per chunk solve.  ``None`` solves an in-process call as
        one chunk and splits a pooled call into about four chunks per
        worker.  Output never depends on this value.
    """

    def __init__(
        self,
        rules: DesignRules,
        reference_geometries: "list[tuple[np.ndarray, np.ndarray]] | None" = None,
        solver_mode: str = "auto",
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
        self.solver_mode = solver_mode
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
        first_index: int = 0,
    ) -> list[LegalizedTopology]:
        """Legalise a batch; element ``i`` depends only on ``(seed, i)``.

        ``first_index`` offsets the per-topology streams: the batch occupies
        indices ``[first_index, first_index + len(batch))`` of the seed's
        virtual sequence, so a streaming caller legalising consecutive
        windows reproduces one monolithic call bit for bit.
        """
        results, _ = self.legalize_batch_with_report(
            topologies, num_solutions=num_solutions, seed=seed, first_index=first_index
        )
        return results

    def legalize_batch_with_report(
        self,
        topologies: "np.ndarray | list[np.ndarray]",
        num_solutions: int = 1,
        seed: "int | np.random.Generator | None" = 0,
        first_index: int = 0,
    ) -> tuple[list[LegalizedTopology], LegalizationReport]:
        """Like :meth:`legalize_batch` but also returns the throughput report."""
        if first_index < 0:
            raise ValueError("first_index must be >= 0")
        batch = [np.asarray(t) for t in topologies]
        base_seed = resolve_seed(seed)
        chunk = self._chunk_size(len(batch))
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
            # The reference index is rebuilt per call, like the parallel
            # path ships the reference library per call: changing the
            # engine's attributes (or the elements of its reference list)
            # between calls affects serial and parallel runs identically.
            context = (self.rules, ReferenceIndex(self.reference_geometries), self.solver_mode)
            outputs = [_legalize_shard(shard, context) for shard in shards]
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
        rules/references/solver mode are pinned for the lifetime of the pool —
        reassign them only outside the context.
        """
        if self._in_process() or self._pool is not None:
            yield self
            return
        scipy_optimize()  # the forked workers inherit it
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.rules, self.reference_geometries, self.solver_mode),
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
    ) -> list[SquishPattern]:
        """Flatten :meth:`legalize_batch` into the final pattern library."""
        results = self.legalize_batch(topologies, num_solutions=num_solutions, seed=seed)
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

    def _chunk_size(self, num_topologies: int) -> int:
        if self.chunk_size is not None:
            return int(self.chunk_size)
        if self._in_process():
            return max(1, num_topologies)
        # Aim for ~4 chunks per worker so one hard solve cannot starve the
        # pool, without drowning it in per-task overhead.
        return max(1, -(-num_topologies // (4 * self.workers)))

    def _run_shards_parallel(
        self, shards: "list[tuple[int, list[np.ndarray], int, int]]"
    ) -> "list[tuple[int, list[LegalizedTopology], LegalizationStats]]":
        if self._pool is not None:
            return list(self._pool.map(_legalize_shard, shards))
        max_workers = min(self.workers, len(shards))
        scipy_optimize()  # the forked workers inherit it
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(self.rules, self.reference_geometries, self.solver_mode),
        ) as pool:
            return list(pool.map(_legalize_shard, shards))
