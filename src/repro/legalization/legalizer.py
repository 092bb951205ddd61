"""High-level legalisation API: topology matrix in, legal squish patterns out.

Implements the "2D Legal Pattern Assessment" phase of the framework
(Section III-D): every generated topology receives one (DiffPattern-S) or
many (DiffPattern-L) legal geometric-vector assignments under the active
design rules, and unsolvable topologies are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..squish import SquishPattern
from ..utils import as_rng, child_rng, resolve_seed
from .batched import GeometrySolution, SolverOptions, solve_geometry_chunk
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
        self.attempted += other.attempted
        self.solved += other.solved
        self.failed += other.failed
        self.total_solver_time += other.total_solver_time
        self.total_iterations += other.total_iterations
        self.solutions += other.solutions
        self.fast_path_solutions += other.fast_path_solutions
        self.batched_sweeps += other.batched_sweeps
        self.batched_sweep_topologies += other.batched_sweep_topologies
        self.batched_tail_solves += other.batched_tail_solves
        return self


class ReferenceIndex:
    """Warm-start target index: reference geometries bucketed by shape.

    The legaliser picks its ``Solving-E`` warm-start target uniformly among
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


class Legalizer:
    """Assigns legal geometric vectors to generated topology matrices.

    Parameters
    ----------
    rules:
        Active design rules.
    reference_geometries:
        Optional list of ``(delta_x, delta_y)`` pairs from the existing
        pattern library.  When given, the solver is warm-started from a
        randomly chosen pair (``Solving-E``); otherwise it uses random
        targets (``Solving-R``).
    options:
        Numerical solver options.
    """

    def __init__(
        self,
        rules: DesignRules,
        reference_geometries: "list[tuple[np.ndarray, np.ndarray]] | None" = None,
        options: "SolverOptions | None" = None,
    ) -> None:
        self.rules = rules
        self.reference_geometries = list(reference_geometries or [])
        self.options = options if options is not None else SolverOptions()
        self.stats = LegalizationStats()

    @property
    def reference_geometries(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The warm-start library; assigning rebuilds the shape index.

        Appending/extending in place is also detected (via a length check on
        the next pick); replacing *elements* in place without changing the
        length is not — reassign the list for that.
        """
        return self._reference_geometries

    @reference_geometries.setter
    def reference_geometries(
        self, references: "list[tuple[np.ndarray, np.ndarray]] | None"
    ) -> None:
        self._reference_geometries = list(references or [])
        self.reference_index = ReferenceIndex(self._reference_geometries)

    # ------------------------------------------------------------------ #
    def _pick_targets(
        self, shape: tuple[int, int], rng: np.random.Generator
    ) -> tuple["np.ndarray | None", "np.ndarray | None"]:
        """Choose solver targets: an existing geometry pair when available."""
        if len(self.reference_index) != len(self._reference_geometries):
            # The public list was mutated in place (e.g. .append); re-bucket
            # so the pick sees the same candidates a linear scan would.
            self.reference_index = ReferenceIndex(self._reference_geometries)
        return self.reference_index.pick(shape, rng)

    # ------------------------------------------------------------------ #
    def legalize_topology(
        self,
        topology: np.ndarray,
        num_solutions: int = 1,
        rng: "int | np.random.Generator | None" = None,
    ) -> LegalizedTopology:
        """Produce up to ``num_solutions`` legal patterns for one topology.

        DiffPattern-S uses ``num_solutions=1``; DiffPattern-L uses a larger
        value (100 in the paper).  Each solution uses a fresh target, so the
        returned geometries differ (Fig. 7).
        """
        return self._legalize_chunk([topology], num_solutions, [as_rng(rng)])[0]

    # ------------------------------------------------------------------ #
    def legalize_batch(
        self,
        topologies: "np.ndarray | list[np.ndarray]",
        num_solutions: int = 1,
        rng: "int | np.random.Generator | None" = None,
        first_index: int = 0,
    ) -> list[LegalizedTopology]:
        """Legalise a batch of topology matrices; unsolvable ones are kept in
        the output with an empty pattern list so callers can count failures.

        Every topology owns an independent random stream derived from
        ``(seed, first_index + position)``, so the result for one topology
        does not depend on the composition of the batch around it: re-running
        a single topology at the same index reproduces its batch result, and
        the :class:`~repro.legalization.LegalizationEngine` gets element-wise
        identical output for any sharding of the same batch.  The batch is
        solved as one chunk (:func:`~repro.legalization.solve_geometry_chunk`).
        """
        batch = list(topologies)
        base_seed = resolve_seed(rng)
        rngs = [
            child_rng(base_seed, first_index + position) for position in range(len(batch))
        ]
        return self._legalize_chunk(batch, num_solutions, rngs)

    def _legalize_chunk(
        self,
        topologies: "list[np.ndarray]",
        num_solutions: int,
        rngs: "list[np.random.Generator]",
    ) -> list[LegalizedTopology]:
        """Solve ``topologies`` as one chunk, ``rngs[i]`` drawing for topology ``i``."""
        batch = [np.asarray(topology) for topology in topologies]
        if not batch:
            return []
        # The compiled kernel is cached by topology content + rules, so the
        # constraint extraction and array compilation are paid once even
        # across repeats of the same topology.
        compiled = [compiled_for_topology(topology, self.rules) for topology in batch]

        def initial_targets(position: int, rng: np.random.Generator):
            # The warm-start pick draws one uniform when candidates exist.
            if not self.reference_geometries:
                return None, None
            return self._pick_targets(compiled[position].shape, rng)

        outcome = solve_geometry_chunk(
            compiled,
            self.rules,
            rngs,
            options=self.options,
            num_solutions=num_solutions,
            initial_targets=initial_targets,
        )
        self.stats.batched_sweeps += outcome.sweeps
        self.stats.batched_sweep_topologies += outcome.sweep_topologies
        self.stats.batched_tail_solves += outcome.tail_solves

        results: list[LegalizedTopology] = []
        for topology, slots in zip(batch, outcome.solutions):
            result = LegalizedTopology(topology=topology.astype(np.uint8))
            self.stats.attempted += 1
            for solution in slots:
                self.stats.total_solver_time += solution.elapsed_seconds
                self.stats.total_iterations += solution.iterations
                if not solution.success:
                    # Unsolved slots are skipped; the remaining slots are
                    # still tried with fresh random targets.
                    continue
                self.stats.solutions += 1
                if solution.method == "repair":
                    self.stats.fast_path_solutions += 1
                result.solutions.append(solution)
                result.patterns.append(
                    SquishPattern(
                        topology=topology.astype(np.uint8),
                        delta_x=solution.delta_x,
                        delta_y=solution.delta_y,
                    )
                )
            if result.solved:
                self.stats.solved += 1
            else:
                self.stats.failed += 1
            results.append(result)
        return results

    def legal_patterns(
        self,
        topologies: "np.ndarray | list[np.ndarray]",
        num_solutions: int = 1,
        rng: "int | np.random.Generator | None" = None,
    ) -> list[SquishPattern]:
        """Flatten :meth:`legalize_batch` into the final pattern library."""
        results = self.legalize_batch(topologies, num_solutions=num_solutions, rng=rng)
        return [pattern for result in results for pattern in result.patterns]
