"""The legalization solve: a chunk of topologies through stacked kernels.

One topology's system (Eq. 14) has the geometric vectors ``delta_x`` (one
entry per topology column) and ``delta_y`` (one per row) as unknowns, under
positivity of every interval, both vectors summing to the pattern window
size, linear lower bounds for every width / space run and nonlinear
two-sided bounds on every polygon area.  The objective is a least-squares
pull towards a *target* geometry, which makes the solution set explorable:
different random targets give different legal geometries for the same
topology (DiffPattern-L), and targets taken from existing dataset
geometries give the accelerated ``Solving-E`` variant of Table II.

Every legalization in the package runs :func:`solve_geometry_chunk`, one
call per :class:`~repro.legalization.LegalizationEngine` chunk; a single
topology is a chunk of one.  The chunk's compiled constraint systems are
stacked block-diagonally with per-topology variable offsets, and each
solution slot runs a constant number of numpy passes:

* **Whole-chunk repair sweep** (``solver_mode="auto"``) — every target is
  scaled onto the sum equality, lifted onto the rounding-safe per-index
  interval lower bounds (see
  :meth:`~repro.legalization.CompiledConstraints.repair_lower_bounds`), its
  remaining slack redistributed in proportion to the free mass, rounded by
  largest remainder and verified exactly against every constraint, the
  polygon-area windows included.  One pass partitions the chunk into
  fast-path successes and a residual tail.
* **SLSQP tail** — the residual topologies are solved in restart rounds
  grouped by attempt number (restarts draw fresh random targets), and each
  round's continuous solutions are rounded and integer-verified as one
  stacked pass over the block-diagonal system.

Chunk invariance
----------------
A topology's solutions do not depend on the chunk around it: its size, the
other topologies in it, or the worker that runs it.  Three facts make that
hold:

* Every topology owns an independent generator (``(seed, index)`` spawn
  keys), and the slot / attempt loops below draw from each generator in the
  order a chunk of one would.
* Row-wise reductions over a C-contiguous 2-D stack of *equal-length* rows
  (``M.sum(axis=1)``, ``np.argsort(-R, axis=1)``) apply the identical
  pairwise reduction / sort to each row whatever the stack height, so the
  per-axis passes group rows by exact axis length; zero-padding to a common
  length would not be bit-identical (see :mod:`repro.legalization.compiled`).
* Integer verification is exact ``int64`` arithmetic — any grouping of the
  block-diagonal system yields the same booleans.

One thing deliberately stays per topology: the scipy SLSQP call.  Stacking
K independent systems into a single ``minimize`` call would share one line
search, one merit function and one ``ftol``/``maxiter`` termination across
blocks, coupling the iterates, so a topology's result would depend on its
chunk.  The tail batches everything around scipy (target assembly, restart
grouping, stacked rounding and verification) and keeps the solver calls per
topology, which is where nearly all of the tail's time goes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .compiled import CompiledConstraints
from .rules import DesignRules

__all__ = [
    "SOLVER_MODES",
    "SolverOptions",
    "GeometrySolution",
    "BatchCompiledConstraints",
    "ChunkSolveOutcome",
    "solve_geometry_chunk",
]

#: Valid values of :attr:`SolverOptions.solver_mode`.
SOLVER_MODES = ("auto", "slsqp")


@dataclass
class SolverOptions:
    """Numerical options of the legalisation solve."""

    margin: float = 2.0            # slack (nm) added to every >= constraint before rounding
    lower_bound: float = 4.0       # minimum interval length (nm)
    max_iterations: int = 300
    tolerance: float = 1e-6
    max_attempts: int = 4          # restarts with fresh random targets on failure
    #: ``"auto"`` tries the deterministic repair projection before SLSQP;
    #: ``"slsqp"`` always runs the full solve (bit-identical to the legacy
    #: lambda formulation — what ``paper-tables`` pins).
    solver_mode: str = "auto"


@dataclass
class GeometrySolution:
    """Result of one legalisation solve."""

    success: bool
    delta_x: "np.ndarray | None"
    delta_y: "np.ndarray | None"
    iterations: int
    elapsed_seconds: float
    message: str = ""
    attempts: int = 1
    objective: float = field(default=float("nan"))
    #: Which path produced the solution: ``"slsqp"`` for the full nonlinear
    #: solve, ``"repair"`` for the projection fast path.
    method: str = "slsqp"


def _random_partition(total: int, parts: int, rng: np.random.Generator) -> np.ndarray:
    """A random positive vector of length ``parts`` summing to ``total``."""
    weights = rng.dirichlet(np.full(parts, 2.0))
    return weights * float(total)


def _solve_once(
    compiled: CompiledConstraints,
    target_x: np.ndarray,
    target_y: np.ndarray,
    opts: SolverOptions,
) -> dict:
    """One SLSQP solve of one topology's system towards ``(target_x, target_y)``."""
    rows, cols = compiled.shape
    total = compiled.total
    n_vars = compiled.n_vars
    target = np.concatenate([target_x, target_y])
    # Normalise the least-squares pull so that objective values are O(100) and
    # gradients O(0.1): small enough to be well conditioned, large enough that
    # SLSQP keeps descending towards the target instead of stopping at the
    # first feasible point (which would collapse solution diversity).
    scale = 1.0 / total

    def objective(v: np.ndarray) -> float:
        diff = v - target
        return float(diff @ diff) * scale

    def objective_grad(v: np.ndarray) -> np.ndarray:
        return 2.0 * (v - target) * scale

    cons = compiled.slsqp_constraints(opts.margin)

    bounds = [(opts.lower_bound, total)] * n_vars
    # Start from uniform intervals: it satisfies the equality constraints
    # exactly and is (near-)feasible for typical width/space minima, which
    # keeps SLSQP well-behaved.  Diversity comes from the random *target* in
    # the objective, not from the start point.
    x0 = np.empty(n_vars)
    x0[:cols] = total / cols
    x0[cols:] = total / rows

    result = optimize.minimize(
        objective,
        x0,
        jac=objective_grad,
        bounds=bounds,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": opts.max_iterations, "ftol": opts.tolerance},
    )
    return {
        "success": bool(result.success),
        "delta_x": result.x[:cols],
        "delta_y": result.x[cols:],
        "iterations": int(result.nit),
        "message": str(result.message),
        "objective": float(result.fun),
    }


def _project_axis_rows(
    targets: np.ndarray, lower: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project every row of ``targets`` onto ``{v >= lower[row], sum(v) = total}``.

    Returns ``(values, feasible)``; rows with ``feasible=False`` have no
    projection (their ``values`` row is meaningless).
    """
    slack = float(total) - lower.sum(axis=1)
    t = np.maximum(targets, 1e-9)
    scale = float(total) / t.sum(axis=1)
    lifted = np.maximum(t * scale[:, None], lower)
    free = lifted - lower
    free_sum = free.sum(axis=1)
    ratio = np.divide(
        slack, free_sum, out=np.zeros_like(slack), where=free_sum > 0.0
    )
    values = lower + free * ratio[:, None]
    on_bounds = free_sum <= 0.0
    if on_bounds.any():
        # Every entry sits on its bound; feasible only when the bounds
        # already consume the whole window.
        values[on_bounds] = lower[on_bounds]
    feasible = (slack >= 0.0) & (~on_bounds | (slack == 0.0))
    return values, feasible


def _round_rows(values: np.ndarray, total: int) -> np.ndarray:
    """Round every row to positive integers summing to ``total`` (largest remainder).

    A row whose floors (each at least 1) fall short of ``total`` hands the
    deficit out by descending remainder: position ``order[j]`` gets
    ``deficit // n`` units plus one more for the first ``deficit % n``
    positions — what cycling the remainder order one unit per visit gives.
    Ranking positions in ``argsort(axis=1)`` order does that for all rows
    at once.  A row whose floors overshoot (possible only for SLSQP tail
    candidates far below their floors) gives units back one full cycle at a
    time over its descending-value order, never below 1; when no entry can
    give, the row keeps its overshoot and fails verification.
    """
    if values.shape[0] == 0:
        return np.zeros(values.shape, dtype=np.int64)
    fractional = np.floor(values)
    floors = np.maximum(fractional.astype(np.int64), 1)
    n = values.shape[1]
    deficits = total - floors.sum(axis=1)
    positive = deficits > 0
    if positive.any():
        remainders = values - fractional
        order = np.argsort(-remainders, axis=1)
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.broadcast_to(np.arange(n), order.shape), axis=1)
        extra = np.where(positive, deficits, 0)
        floors = floors + ((rank < (extra % n)[:, None]) & positive[:, None])
        floors = floors + (extra // n)[:, None]
    for row in np.nonzero(deficits < 0)[0]:
        line = floors[row]
        deficit = int(deficits[row])
        order = np.argsort(-line)
        while deficit < 0:
            candidates = order[line[order] > 1][:-deficit]
            if candidates.size == 0:
                break
            line[candidates] -= 1
            deficit += candidates.size
    return floors


class BatchCompiledConstraints:
    """K topologies' :class:`CompiledConstraints` stacked block-diagonally.

    The stacked unknown vector concatenates every topology's
    ``[delta_x, delta_y]`` block at offset ``var_offsets[i]``; all index
    matrices below address that stacked vector directly.  Constraint groups
    are merged **across** topologies by exact segment length / polygon cell
    count, so one gather + row-sum evaluates the whole chunk's constraints
    of that shape, and ``topology_ids`` maps violations back to blocks.
    Instances are immutable in practice and cover every solution round and
    restart attempt of one chunk solve.
    """

    def __init__(self, compiled: "list[CompiledConstraints]") -> None:
        if not compiled:
            raise ValueError("need at least one compiled constraint set")
        rules = compiled[0].rules
        for c in compiled:
            if c.rules != rules:
                raise ValueError(
                    "all topologies in a batch must share one DesignRules set"
                )
        self.compiled = list(compiled)
        self.rules = rules
        self.k = len(self.compiled)
        self.total = int(rules.pattern_size)
        n_vars = np.array([c.n_vars for c in self.compiled], dtype=np.int64)
        self.var_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(n_vars)]
        )
        self.n_stacked = int(self.var_offsets[-1])
        col_counts = np.array([c.cols for c in self.compiled], dtype=np.int64)

        #: ``(topology ids, axis length)`` per distinct axis length, ids
        #: ascending — every dense per-axis pass (projection, rounding,
        #: positivity/window checks) runs once per group on a (g, length)
        #: row stack.
        self.x_groups = self._axis_groups([c.cols for c in self.compiled])
        self.y_groups = self._axis_groups([c.rows for c in self.compiled])
        # Stacked-vector gather matrices for the per-axis integer checks.
        self._x_index = [
            (ids, self.var_offsets[ids][:, None] + np.arange(length))
            for ids, length in self.x_groups
        ]
        self._y_index = [
            (ids, (self.var_offsets[ids] + col_counts[ids])[:, None] + np.arange(length))
            for ids, length in self.y_groups
        ]

        # Block-diagonal interval system, merged by segment length.  Parts
        # are collected raw and offset/labelled with one vectorized pass per
        # merged group — per-part ``+ offset`` arithmetic would dominate the
        # chunk setup for large chunks.
        interval_parts: dict[int, tuple[list, list, list, list]] = {}
        for i, c in enumerate(self.compiled):
            offset = int(self.var_offsets[i])
            for positions, index_matrix in c._interval_groups:
                part = interval_parts.setdefault(
                    index_matrix.shape[1], ([], [], [], [])
                )
                part[0].append(index_matrix)
                part[1].append(c.interval_minimums[positions])
                part[2].append(i)
                part[3].append(offset)
        #: ``(index matrix, minimums, topology ids)`` per segment length.
        self.interval_groups = []
        for mats, mins, topo_idx, offs in interval_parts.values():
            counts = np.array([m.shape[0] for m in mats], dtype=np.int64)
            shifts = np.repeat(np.asarray(offs, dtype=np.int64), counts)
            self.interval_groups.append(
                (
                    np.concatenate(mats) + shifts[:, None],
                    np.concatenate(mins),
                    np.repeat(np.asarray(topo_idx, dtype=np.int64), counts),
                )
            )

        # Block-diagonal polygon-area system, merged by cell count.
        poly_parts: dict[int, tuple[list, list, list, list]] = {}
        for i, c in enumerate(self.compiled):
            offset = int(self.var_offsets[i])
            for positions, col_mat, row_mat in c._poly_groups:
                part = poly_parts.setdefault(col_mat.shape[1], ([], [], [], []))
                part[0].append(col_mat)
                part[1].append(row_mat)
                part[2].append(i)
                part[3].append(offset)
        #: ``(col matrix, row matrix, topology ids)`` per cell count.
        self.poly_groups = []
        for cols, rows, topo_idx, offs in poly_parts.values():
            counts = np.array([m.shape[0] for m in cols], dtype=np.int64)
            shifts = np.repeat(np.asarray(offs, dtype=np.int64), counts)
            self.poly_groups.append(
                (
                    np.concatenate(cols) + shifts[:, None],
                    np.concatenate(rows) + shifts[:, None],
                    np.repeat(np.asarray(topo_idx, dtype=np.int64), counts),
                )
            )

        self._repair_bounds_cache: dict[float, tuple[list, list]] = {}

    @staticmethod
    def _axis_groups(lengths: "list[int]") -> "list[tuple[np.ndarray, int]]":
        values = np.asarray(lengths, dtype=np.int64)
        return [
            (np.nonzero(values == length)[0], int(length))
            for length in np.unique(values)
        ]

    # ------------------------------------------------------------------ #
    def _stacked_repair_bounds(self, floor: float) -> tuple[list, list]:
        """Per-group ``(g, length)`` lower-bound stacks, cached per floor."""
        key = float(floor)
        cached = self._repair_bounds_cache.get(key)
        if cached is not None:
            return cached
        bounds = [c.repair_lower_bounds(floor) for c in self.compiled]
        stacked = (
            [np.stack([bounds[i][0] for i in ids]) for ids, _ in self.x_groups],
            [np.stack([bounds[i][1] for i in ids]) for ids, _ in self.y_groups],
        )
        self._repair_bounds_cache[key] = stacked
        return stacked

    # ------------------------------------------------------------------ #
    def round_pairs(
        self, candidates: "dict[int, tuple[np.ndarray, np.ndarray]]"
    ) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
        """Largest-remainder-round many float candidate pairs in one pass."""
        member = np.zeros(self.k, dtype=bool)
        member[list(candidates)] = True
        rounded_x: dict[int, np.ndarray] = {}
        rounded_y: dict[int, np.ndarray] = {}
        for groups, part, out in (
            (self.x_groups, 0, rounded_x),
            (self.y_groups, 1, rounded_y),
        ):
            for ids, _ in groups:
                selected = ids[member[ids]]
                if not selected.size:
                    continue
                stack = np.stack([candidates[int(i)][part] for i in selected])
                rounded = _round_rows(stack, self.total)
                for row, i in enumerate(selected):
                    out[int(i)] = rounded[row]
        return {i: (rounded_x[i], rounded_y[i]) for i in candidates}

    def verify_pairs(
        self, pairs: "dict[int, tuple[np.ndarray, np.ndarray]]"
    ) -> np.ndarray:
        """Exact integer verification of many candidate pairs at once.

        One stacked pass over the block-diagonal system; returns a length-K
        boolean array (``False`` for topologies without a candidate).  All
        arithmetic is ``int64``-exact, so every entry equals
        ``CompiledConstraints.verify_integer`` on that pair alone.
        """
        verified = np.zeros(self.k, dtype=bool)
        if not pairs:
            return verified
        member = np.zeros(self.k, dtype=bool)
        stacked = np.ones(self.n_stacked, dtype=np.int64)
        for i, (dx, dy) in pairs.items():
            offset = int(self.var_offsets[i])
            c = self.compiled[i]
            stacked[offset : offset + c.cols] = dx
            stacked[offset + c.cols : offset + c.n_vars] = dy
            member[i] = True
            verified[i] = True
        # Positivity + window-sum equality, per axis-length group.
        for ids, index in self._x_index + self._y_index:
            in_group = member[ids]
            if not in_group.any():
                continue
            block = stacked[index[in_group]]
            bad = (block <= 0).any(axis=1) | (block.sum(axis=1) != self.total)
            verified[ids[in_group][bad]] = False
        # Interval minimums over the merged block-diagonal groups.  Blocks
        # without a candidate hold placeholder ones; masking violations by
        # membership discards them.
        for index, minimums, topo_ids in self.interval_groups:
            sums = stacked[index].sum(axis=1)
            violated = (sums < minimums) & member[topo_ids]
            verified[topo_ids[violated]] = False
        # Two-sided polygon-area windows.
        for col_mat, row_mat, topo_ids in self.poly_groups:
            areas = (stacked[col_mat] * stacked[row_mat]).sum(axis=1)
            violated = (
                (areas < self.rules.area_min) | (areas > self.rules.area_max)
            ) & member[topo_ids]
            verified[topo_ids[violated]] = False
        return verified

    # ------------------------------------------------------------------ #
    def repair_sweep(
        self,
        targets_x: "list[np.ndarray]",
        targets_y: "list[np.ndarray]",
        options: SolverOptions,
    ) -> "tuple[dict[int, tuple[np.ndarray, np.ndarray]], list[int]]":
        """One vectorized whole-chunk repair pass over all K topologies.

        Runs the repair projection (scale onto the sum equality, lift onto
        the rounding-safe lower bounds, redistribute slack, round, verify
        exactly) for the entire chunk in a constant number of numpy passes.
        Returns ``(solved, residual)``: ``solved`` maps topology position to
        its ``(delta_x, delta_y)`` fast-path pair; ``residual`` lists the
        positions the projection could not legalise, ascending — the SLSQP
        tail's work list.
        """
        bounds_x, bounds_y = self._stacked_repair_bounds(options.lower_bound)
        feasible = np.ones(self.k, dtype=bool)
        values_x: list = [None] * self.k
        values_y: list = [None] * self.k
        for groups, bounds, targets, values in (
            (self.x_groups, bounds_x, targets_x, values_x),
            (self.y_groups, bounds_y, targets_y, values_y),
        ):
            for (ids, _), lower in zip(groups, bounds):
                stack = np.stack([targets[i] for i in ids])
                projected, ok = _project_axis_rows(stack, lower, self.total)
                feasible[ids] &= ok
                for row, i in enumerate(ids):
                    values[i] = projected[row]
        pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        rounded_x: dict[int, np.ndarray] = {}
        rounded_y: dict[int, np.ndarray] = {}
        for groups, values, out in (
            (self.x_groups, values_x, rounded_x),
            (self.y_groups, values_y, rounded_y),
        ):
            for ids, _ in groups:
                selected = ids[feasible[ids]]
                if not selected.size:
                    continue
                rounded = _round_rows(
                    np.stack([values[i] for i in selected]), self.total
                )
                for row, i in enumerate(selected):
                    out[int(i)] = rounded[row]
        for i in np.nonzero(feasible)[0]:
            pairs[int(i)] = (rounded_x[int(i)], rounded_y[int(i)])
        verified = self.verify_pairs(pairs)
        solved = {i: pair for i, pair in pairs.items() if verified[i]}
        residual = [i for i in range(self.k) if i not in solved]
        return solved, residual

    def objective_values(
        self,
        pairs: "dict[int, tuple[np.ndarray, np.ndarray]]",
        targets_x: "list[np.ndarray]",
        targets_y: "list[np.ndarray]",
    ) -> "dict[int, float]":
        """Least-squares objectives of many integer pairs in stacked passes.

        Every ``(rows, cols)`` shape group runs as one batched 1xN @ Nx1
        matmul, which invokes the same BLAS inner product per row as a 1-D
        ``diff @ diff`` of the concatenated ``[delta_x, delta_y]`` diff, so
        a pair's objective does not depend on the group around it.
        """
        objectives: dict[int, float] = {}
        if not pairs:
            return objectives
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i in pairs:
            by_shape.setdefault(self.compiled[i].shape, []).append(i)
        for ids in by_shape.values():
            deltas = np.concatenate(
                [
                    np.stack([pairs[i][0] for i in ids]),
                    np.stack([pairs[i][1] for i in ids]),
                ],
                axis=1,
            ).astype(np.float64)
            targets = np.concatenate(
                [
                    np.stack([targets_x[i] for i in ids]),
                    np.stack([targets_y[i] for i in ids]),
                ],
                axis=1,
            )
            diffs = deltas - targets
            dots = (diffs[:, None, :] @ diffs[:, :, None]).reshape(-1)
            for row, i in enumerate(ids):
                objectives[i] = float(dots[row]) / self.total
        return objectives


@dataclass
class ChunkSolveOutcome:
    """Solutions and chunk-solve counters for one chunk solve."""

    #: Per topology position, one :class:`GeometrySolution` per requested
    #: solution slot (success or failure), in slot order.
    solutions: "list[list[GeometrySolution]]" = field(default_factory=list)
    #: Whole-chunk repair sweeps executed (one per solution slot in auto).
    sweeps: int = 0
    #: Topologies covered by those sweeps (sum of sweep sizes).
    sweep_topologies: int = 0
    #: Per-topology SLSQP calls issued by the restart-round tail.
    tail_solves: int = 0


def solve_geometry_chunk(
    compiled: "list[CompiledConstraints]",
    rules: DesignRules,
    rngs: "list[np.random.Generator]",
    options: "SolverOptions | None" = None,
    num_solutions: int = 1,
    initial_targets=None,
) -> ChunkSolveOutcome:
    """Solve a whole chunk of topologies, ``num_solutions`` slots each.

    ``rngs[i]`` is topology ``i``'s independent generator (engine chunks
    derive it from ``(seed, first_index + i)``); ``initial_targets(i, rng)``,
    when given, supplies the slot-0 targets (``Solving-E`` warm start; a
    ``None`` entry is drawn at random) and may consume draws from ``rng``.
    Per generator, draws happen in slot order, and within a slot in attempt
    order, so every topology sees the stream it would see alone.

    ``elapsed_seconds`` of each solution is its topology's own SLSQP time
    plus an equal share of the slot's chunk-wide work (the first slot's
    share includes the chunk setup), so the solutions' times add up to the
    call's wall time.
    """
    start = time.perf_counter()
    opts = options if options is not None else SolverOptions()
    if opts.solver_mode not in SOLVER_MODES:
        raise ValueError(
            f"solver_mode must be one of {SOLVER_MODES}, got {opts.solver_mode!r}"
        )
    if len(rngs) != len(compiled):
        raise ValueError("need exactly one generator per topology")
    outcome = ChunkSolveOutcome(solutions=[[] for _ in compiled])
    if not compiled:
        return outcome
    for c in compiled:
        if c.rules != rules:
            raise ValueError(
                "compiled constraints were built for a different DesignRules set"
            )
    batch = BatchCompiledConstraints(compiled)
    total = rules.pattern_size

    slot_start = start
    for slot in range(num_solutions):
        # Attempt-1 targets, drawn per topology in index order (the repair
        # sweep consumes no extra draws and shares them with SLSQP attempt 1).
        targets_x: list[np.ndarray] = []
        targets_y: list[np.ndarray] = []
        for i, c in enumerate(compiled):
            tx = ty = None
            if slot == 0 and initial_targets is not None:
                tx, ty = initial_targets(i, rngs[i])
            tx = (
                np.asarray(tx, dtype=np.float64)
                if tx is not None
                else _random_partition(total, c.cols, rngs[i])
            )
            ty = (
                np.asarray(ty, dtype=np.float64)
                if ty is not None
                else _random_partition(total, c.rows, rngs[i])
            )
            if tx.shape[0] != c.cols or ty.shape[0] != c.rows:
                raise ValueError(
                    f"target vectors have wrong length (need {c.cols} x-targets, "
                    f"{c.rows} y-targets)"
                )
            targets_x.append(tx)
            targets_y.append(ty)

        # Every solution below is created with elapsed_seconds=0.0 and timed
        # when the slot ends.
        found: "list[GeometrySolution | None]" = [None] * batch.k
        pending = list(range(batch.k))
        if opts.solver_mode == "auto":
            solved, pending = batch.repair_sweep(targets_x, targets_y, opts)
            outcome.sweeps += 1
            outcome.sweep_topologies += batch.k
            objectives = batch.objective_values(solved, targets_x, targets_y)
            for i, (dx, dy) in solved.items():
                found[i] = GeometrySolution(
                    success=True,
                    delta_x=dx,
                    delta_y=dy,
                    iterations=0,
                    elapsed_seconds=0.0,
                    message="repaired",
                    attempts=1,
                    objective=objectives[i],
                    method="repair",
                )

        # SLSQP tail: restart rounds grouped by attempt number.  scipy runs
        # per topology (see module docstring), while the round's rounding +
        # integer verification are one stacked pass.  The stacked system is
        # rebuilt over the residual alone so each round scales with the
        # tail, not the chunk (rounding is per-row and the verification is
        # int64-exact, so the regrouping changes no result).
        if pending and len(pending) < batch.k:
            tail_batch = BatchCompiledConstraints([compiled[i] for i in pending])
        else:
            tail_batch = batch
        tail_pos = {i: pos for pos, i in enumerate(pending)}
        iterations = {i: 0 for i in pending}
        own_seconds = {i: 0.0 for i in pending}
        messages = {i: "" for i in pending}
        active = list(pending)
        for attempt in range(1, opts.max_attempts + 1):
            if not active:
                break
            for i in active:
                if attempt > 1:
                    targets_x[i] = _random_partition(total, compiled[i].cols, rngs[i])
                    targets_y[i] = _random_partition(total, compiled[i].rows, rngs[i])
            converged: dict[int, dict] = {}
            for i in active:
                solve_start = time.perf_counter()
                result = _solve_once(compiled[i], targets_x[i], targets_y[i], opts)
                own_seconds[i] += time.perf_counter() - solve_start
                outcome.tail_solves += 1
                iterations[i] += result["iterations"]
                if result["success"]:
                    converged[i] = result
                else:
                    messages[i] = result["message"]
            rounded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            verified = np.zeros(tail_batch.k, dtype=bool)
            if converged:
                rounded_local = tail_batch.round_pairs(
                    {
                        tail_pos[i]: (r["delta_x"], r["delta_y"])
                        for i, r in converged.items()
                    }
                )
                verified = tail_batch.verify_pairs(rounded_local)
                rounded = {i: rounded_local[tail_pos[i]] for i in converged}
            still_active = []
            for i in active:
                if i in converged and verified[tail_pos[i]]:
                    dx, dy = rounded[i]
                    found[i] = GeometrySolution(
                        success=True,
                        delta_x=dx,
                        delta_y=dy,
                        iterations=iterations[i],
                        elapsed_seconds=0.0,
                        message="converged",
                        attempts=attempt,
                        objective=converged[i]["objective"],
                    )
                else:
                    if i in converged:
                        messages[i] = "rounded solution violated a constraint"
                    still_active.append(i)
            active = still_active
        for i in active:
            found[i] = GeometrySolution(
                success=False,
                delta_x=None,
                delta_y=None,
                iterations=iterations[i],
                elapsed_seconds=0.0,
                message=messages[i] or "no feasible solution found",
                attempts=max(opts.max_attempts, 0),
            )

        # Each topology keeps its own SLSQP time; the rest of the slot (and,
        # for slot 0, the chunk setup) is shared equally.
        slot_end = time.perf_counter()
        shared = (slot_end - slot_start - sum(own_seconds.values())) / batch.k
        for i, solution in enumerate(found):
            solution.elapsed_seconds = shared + own_seconds.get(i, 0.0)
            outcome.solutions[i].append(solution)
        slot_start = slot_end
    return outcome
