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
  polygon-area windows included.  Those bounds keep every width and space
  run after rounding, so a candidate can fail only on a polygon area.
* **Area-lift rounds** (``auto`` as well) — a failed candidate whose
  polygons are all below ``area_max`` has each column and row under a
  polygon below ``area_min`` given the integer lower bound
  ``ceil(value * sqrt(area_min / area))``, and its same targets are
  projected, rounded and verified again.  Rounding never takes an entry
  below an integer bound, so the lifted polygon keeps an area of at least
  ``area_min``; the exact check decides legality as in the first round.  The
  rounds draw nothing, and stop when no bound rises or after
  :data:`LIFT_ROUNDS`.
* **SLSQP tail** — what the rounds leave (no projection, an area above
  ``area_max``, no raised bound), and every topology in ``slsqp`` mode, is
  solved in restart rounds grouped by attempt number (restarts draw fresh
  random targets).  Each round writes its converged solutions into the
  chunk's stacked vector and rounds and verifies them with the sweep's own
  pass (:meth:`BatchCompiledConstraints.round_and_verify`), masked to the
  converged topologies.

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
  block-diagonal system yields the same booleans.  A lift round's bounds are
  elementwise per polygon and merged with ``np.maximum.at``, whose result
  does not depend on the order of the updates.

One thing deliberately stays per topology: the scipy SLSQP call.  Stacking
K independent systems into a single ``minimize`` call would share one line
search, one merit function and one ``ftol``/``maxiter`` termination across
blocks, coupling the iterates, so a topology's result would depend on its
chunk.  The tail batches everything around scipy (target assembly, restart
grouping, stacked rounding and verification) and keeps the solver calls per
topology, which is where nearly all of the tail's time goes.

SciPy is imported at the first SLSQP solve (:func:`scipy_optimize`), not
with the package: in ``auto`` mode the repair sweep and its lift rounds
legalize most chunks without it, and a process that never reaches the tail
never pays for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rules import DesignRules

if TYPE_CHECKING:
    from .compiled import CompiledConstraints

__all__ = [
    "SOLVER_MODES",
    "GeometrySolution",
    "BatchCompiledConstraints",
    "ChunkSolveOutcome",
    "solve_geometry_chunk",
    "scipy_optimize",
]

#: Valid ``solver_mode`` values.  ``"auto"`` tries the deterministic repair
#: projection and its area-lift rounds before SLSQP, which then solves only
#: what they leave; ``"slsqp"`` always runs the full solve (bit-identical to
#: the legacy lambda formulation — what ``paper-tables`` pins).
SOLVER_MODES = ("auto", "slsqp")

#: Slack (nm) added to every width/space minimum of the SLSQP system, so the
#: continuous solution survives rounding.
MARGIN = 2.0
#: Smallest interval length (nm): the SLSQP variable bound and the floor of
#: the repair projection's per-index bounds.
LOWER_BOUND = 4.0
#: SLSQP iteration cap and ``ftol`` of one solve.
MAX_ITERATIONS = 300
TOLERANCE = 1e-6
#: SLSQP attempts per solution slot; each restart draws fresh random targets.
MAX_ATTEMPTS = 4

#: Most area-lift rounds one repair sweep runs after its first projection.
#: The hotspot-expansion builds measured need at most two; the cap bounds
#: the numpy passes a slot spends before what is left goes to SLSQP.
LIFT_ROUNDS = 4


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
    #: solve, ``"repair"`` for the projection fast path and its lift rounds.
    method: str = "slsqp"


def scipy_optimize():
    """``scipy.optimize``, imported on the first call.

    ``import repro`` does not load SciPy (about half a second and 50 MB on
    a cold start); the SLSQP tail loads it here.  Code that forks solver
    processes calls this first, so the children inherit the module instead
    of importing it each.
    """
    from scipy import optimize

    return optimize


def _random_partition(total: int, parts: int, rng: np.random.Generator) -> np.ndarray:
    """A random positive vector of length ``parts`` summing to ``total``."""
    weights = rng.dirichlet(np.full(parts, 2.0))
    return weights * float(total)


def _solve_once(
    compiled: "CompiledConstraints",
    target_x: np.ndarray,
    target_y: np.ndarray,
):
    """One SLSQP solve of one topology's system towards ``(target_x, target_y)``.

    Returns scipy's ``OptimizeResult``; ``x`` is ``[delta_x, delta_y]``.
    """
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

    cons = compiled.slsqp_constraints()

    bounds = [(LOWER_BOUND, total)] * n_vars
    # Start from uniform intervals: it satisfies the equality constraints
    # exactly and is (near-)feasible for typical width/space minima, which
    # keeps SLSQP well-behaved.  Diversity comes from the random *target* in
    # the objective, not from the start point.
    x0 = np.empty(n_vars)
    x0[:cols] = total / cols
    x0[cols:] = total / rows

    return scipy_optimize().minimize(
        objective,
        x0,
        jac=objective_grad,
        bounds=bounds,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": MAX_ITERATIONS, "ftol": TOLERANCE},
    )


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

        self._repair_bounds: "np.ndarray | None" = None

    @staticmethod
    def _axis_groups(lengths: "list[int]") -> "list[tuple[np.ndarray, int]]":
        values = np.asarray(lengths, dtype=np.int64)
        return [
            (np.nonzero(values == length)[0], int(length))
            for length in np.unique(values)
        ]

    # ------------------------------------------------------------------ #
    def _stacked_repair_bounds(self) -> np.ndarray:
        """Every topology's repair lower bounds over the stacked vector (computed once)."""
        if self._repair_bounds is None:
            self._repair_bounds = np.concatenate(
                [bound for c in self.compiled for bound in c.repair_lower_bounds()]
            )
        return self._repair_bounds

    def deltas(self, stacked: np.ndarray, i: int) -> "tuple[np.ndarray, np.ndarray]":
        """Copies of topology ``i``'s ``(delta_x, delta_y)`` in a stacked vector."""
        offset = int(self.var_offsets[i])
        split = offset + self.compiled[i].cols
        return stacked[offset:split].copy(), stacked[split : int(self.var_offsets[i + 1])].copy()

    def round_and_verify(
        self, values: np.ndarray, member: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Round the ``member`` blocks of a stacked float vector and check them exactly.

        The one pass both the repair sweep and the SLSQP tail run: one
        largest-remainder :func:`_round_rows` call per axis-length group,
        then the exact integer check of every member block.  Returns
        ``(candidate, verified)``: the stacked ``int64`` candidate (ones
        outside the member blocks) and a length-K mask of the members that
        pass.
        """
        candidate = np.ones(self.n_stacked, dtype=np.int64)
        for ids, index in self._x_index + self._y_index:
            rows = index[member[ids]]
            if rows.size:
                candidate[rows] = _round_rows(values[rows], self.total)
        return candidate, self._verify_stacked(candidate, member)

    def _verify_stacked(self, stacked: np.ndarray, member: np.ndarray) -> np.ndarray:
        """Exact check of the ``member`` blocks of one stacked ``int64`` vector."""
        verified = member.copy()
        if not member.any():
            return verified
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
    ) -> "tuple[dict[int, tuple[np.ndarray, np.ndarray]], list[int]]":
        """The whole-chunk repair pass over all K topologies, then its lift rounds.

        The first round runs the repair projection (scale onto the sum
        equality, lift onto the rounding-safe lower bounds, redistribute
        slack, round, verify exactly) for the entire chunk in a constant
        number of numpy passes.  Those bounds satisfy every width and space
        run after rounding, so a candidate fails only on a polygon area.
        Each *lift round* then raises, for every failed candidate with a
        polygon below ``area_min`` and none above ``area_max``, the bound of
        each column and row under such a polygon to
        ``ceil(value * sqrt(area_min / area))`` and re-projects the same
        targets onto the raised bounds.  Rounding never takes an entry below
        its integer bound, so bounds whose products reach ``area_min`` keep
        the area; the exact check decides legality either way.  The rounds
        stop when no bound rises, or after :data:`LIFT_ROUNDS`.

        Returns ``(solved, residual)``: ``solved`` maps topology position to
        its ``(delta_x, delta_y)`` pair; ``residual`` lists the positions no
        round could legalise (no projection, an area above ``area_max``, no
        raised bound, or the round cap), ascending — the SLSQP tail's work
        list.
        """
        target = np.concatenate([t for pair in zip(targets_x, targets_y) for t in pair])
        # The lift rounds raise a per-call copy of the cached bounds.
        lower = self._stacked_repair_bounds().copy()
        solved: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        active = np.ones(self.k, dtype=bool)
        for lifts_left in range(LIFT_ROUNDS, -1, -1):
            values, feasible = self._project(target, lower, active)
            candidate, verified = self.round_and_verify(values, feasible)
            for i in np.nonzero(verified)[0]:
                solved[int(i)] = self.deltas(candidate, i)
            if not lifts_left:
                break
            active = self._lift_area_bounds(candidate, feasible & ~verified, lower)
            if not active.any():
                break
        residual = [i for i in range(self.k) if i not in solved]
        return solved, residual

    def _project(
        self, target: np.ndarray, lower: np.ndarray, active: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Project the ``active`` topologies' targets onto ``lower``.

        Returns ``(values, feasible)``: the stacked float projection and
        which active topologies have a projection on both axes.
        """
        values = np.zeros(self.n_stacked)
        feasible = active.copy()
        for ids, index in self._x_index + self._y_index:
            selected = active[ids]
            if selected.any():
                rows = index[selected]
                projected, ok = _project_axis_rows(target[rows], lower[rows], self.total)
                values[rows] = projected
                feasible[ids[selected]] &= ok
        return values, feasible

    def _lift_area_bounds(
        self, candidate: np.ndarray, failed: np.ndarray, lower: np.ndarray
    ) -> np.ndarray:
        """Raise ``lower`` in place under the ``failed`` candidates' small polygons.

        Returns which topologies to re-project: those whose bounds rose and
        that have no polygon above ``area_max``, which raising bounds cannot
        shrink.
        """
        before = lower.copy()
        too_large = np.zeros(self.k, dtype=bool)
        for col_mat, row_mat, topo_ids in self.poly_groups:
            selected = failed[topo_ids]
            if not selected.any():
                continue
            col_idx, row_idx = col_mat[selected], row_mat[selected]
            dx, dy = candidate[col_idx], candidate[row_idx]
            areas = (dx * dy).sum(axis=1)
            too_large[topo_ids[selected][areas > self.rules.area_max]] = True
            low = areas < self.rules.area_min
            scale = np.sqrt(self.rules.area_min / areas[low])[:, None]
            np.maximum.at(lower, col_idx[low], np.ceil(dx[low] * scale))
            np.maximum.at(lower, row_idx[low], np.ceil(dy[low] * scale))
        owner = np.repeat(np.arange(self.k), np.diff(self.var_offsets))
        rose = np.zeros(self.k, dtype=bool)
        rose[owner[lower > before]] = True
        return rose & ~too_large

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
    solver_mode: str = "auto",
    num_solutions: int = 1,
    initial_targets=None,
) -> ChunkSolveOutcome:
    """Solve a whole chunk of topologies, ``num_solutions`` slots each.

    ``solver_mode`` is one of :data:`SOLVER_MODES`.  ``rngs[i]`` is topology
    ``i``'s independent generator (engine chunks derive it from
    ``(seed, first_index + i)``); ``initial_targets(i, rng)``, when given,
    supplies the slot-0 targets (``Solving-E`` warm start; a ``None`` entry
    is drawn at random) and may consume draws from ``rng``.
    Per generator, draws happen in slot order, and within a slot in attempt
    order, so every topology sees the stream it would see alone.

    ``elapsed_seconds`` of each solution is its topology's own SLSQP time
    plus an equal share of the slot's chunk-wide work (the first slot's
    share includes the chunk setup), so the solutions' times add up to the
    call's wall time.
    """
    start = time.perf_counter()
    if solver_mode not in SOLVER_MODES:
        raise ValueError(
            f"solver_mode must be one of {SOLVER_MODES}, got {solver_mode!r}"
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
        if solver_mode == "auto":
            solved, pending = batch.repair_sweep(targets_x, targets_y)
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
        # per topology (see module docstring); each round writes its
        # converged solutions into the chunk's stacked vector and checks them
        # with the sweep's own round-and-verify pass, masked to the converged
        # topologies (rounding is per row and the check int64-exact, so the
        # rest of the chunk changes no result).
        iterations = {i: 0 for i in pending}
        own_seconds = {i: 0.0 for i in pending}
        messages = {i: "" for i in pending}
        active = pending
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if not active:
                break
            for i in active:
                if attempt > 1:
                    targets_x[i] = _random_partition(total, compiled[i].cols, rngs[i])
                    targets_y[i] = _random_partition(total, compiled[i].rows, rngs[i])
            values = np.zeros(batch.n_stacked)
            converged = np.zeros(batch.k, dtype=bool)
            tail_objectives: dict[int, float] = {}
            for i in active:
                solve_start = time.perf_counter()
                result = _solve_once(compiled[i], targets_x[i], targets_y[i])
                own_seconds[i] += time.perf_counter() - solve_start
                outcome.tail_solves += 1
                iterations[i] += int(result.nit)
                if result.success:
                    values[batch.var_offsets[i] : batch.var_offsets[i + 1]] = result.x
                    converged[i] = True
                    tail_objectives[i] = float(result.fun)
                else:
                    messages[i] = str(result.message)
            candidate, verified = batch.round_and_verify(values, converged)
            still_active = []
            for i in active:
                if verified[i]:
                    dx, dy = batch.deltas(candidate, i)
                    found[i] = GeometrySolution(
                        success=True,
                        delta_x=dx,
                        delta_y=dy,
                        iterations=iterations[i],
                        elapsed_seconds=0.0,
                        message="converged",
                        attempts=attempt,
                        objective=tail_objectives[i],
                    )
                else:
                    if converged[i]:
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
                attempts=MAX_ATTEMPTS,
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
