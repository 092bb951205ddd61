"""Compiled constraint kernels for the 2D legal pattern assessment.

:class:`CompiledConstraints` reads the pattern-dependent constraint sets of
the nonlinear system (Eq. 14) off one topology matrix straight into stacked
index arrays:

* ``SetW`` — one interval per maximal run of 1s along a row (over
  ``delta_x``) or a column (over ``delta_y``), whose sum must be at least
  ``width_min``;
* ``SetS`` — one interval per maximal interior run of 0s between two shapes
  of a row or column, whose sum must be at least ``space_min``;
* one cell list per 4-connected polygon for the two-sided area constraints
  ``sum_{(r,c) in polygon} delta_x[c] * delta_y[r] in [area_min, area_max]``.

Runs of 0s that touch the window border are *not* space constraints: the
distance to the clip boundary is unknown (the neighbouring clip continues
there), exactly as in the paper's formulation where only adjacent polygons
constrain each other.  Identical runs repeat across the lines of a grid
(every row crossing the same rectangle yields the same column range); only
the first occurrence becomes a constraint.  Intervals are ordered x widths,
y widths, x spaces, y spaces, each in row-major scan order; polygons are
ordered by label (scan order of their first cell), their cells row-major.

The SLSQP solve historically registered one Python lambda per
width/space/area constraint and re-invoked every one of them (plus its
jacobian) on every iteration — a scalar-Python tax of hundreds of
interpreter round-trips per solve.  The arrays built here are compiled
**once per topology** so that each SLSQP iteration evaluates

* all interval (width/space) constraints with one gather + row-sum per
  distinct segment length,
* all polygon-area constraints with one elementwise product + row-sum per
  distinct cell count, and
* all jacobians from precomputed constant matrices (intervals) or two
  ``bincount`` scatters (areas),

handing scipy a *constant number* of vector-valued constraint dicts instead
of an O(#constraints) lambda list.

Bit-identity contract
---------------------
``solver_mode="slsqp"`` must reproduce the legacy formulation bit for bit
(the ``paper-tables`` scenario and its committed baselines are pinned to it).
scipy's SLSQP writes each constraint dict's values/jacobian rows into
preallocated arrays in dict order, so equality holds exactly when every
individual constraint value is computed bit-identically.  Two NumPy facts
shape the layout:

* Summing the rows of a C-contiguous 2-D array (``M.sum(axis=1)``) uses the
  same pairwise reduction as summing each row as a contiguous 1-D array —
  so gathering *equal-length* segments into a matrix and row-summing is
  bit-identical to the legacy per-constraint ``v[idx].sum()``.
* Zero-padding segments to a common width, or taking prefix-sum differences,
  changes the pairwise reduction tree and is **not** bit-identical.

Hence constraints are grouped by exact segment length / polygon cell count;
each group evaluates in one vectorized shot with no padding.

The module also hosts the repair-first fast path's per-index lower bounds
and :func:`compiled_for_topology`, the topology-hash compilation cache
through which the :class:`~repro.legalization.LegalizationEngine` compiles
every topology it legalises: it dedupes compilation across repeated
topologies in a batch and across calls.  The solve's numerical constants
(:data:`~repro.legalization.batched.MARGIN`,
:data:`~repro.legalization.batched.LOWER_BOUND`) live with the solve in
:mod:`repro.legalization.batched`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..geometry import connected_components, interior_runs_2d, runs_2d, validate_grid
from .batched import LOWER_BOUND, MARGIN
from .rules import DesignRules

__all__ = [
    "CompiledConstraints",
    "compiled_for_topology",
    "compilation_cache_info",
    "clear_compilation_cache",
]


def _length_groups(
    lengths: np.ndarray,
) -> "list[tuple[np.ndarray, int]]":
    """``(positions, length)`` pairs, one per distinct segment length."""
    groups = []
    for length in np.unique(lengths):
        positions = np.nonzero(lengths == length)[0]
        groups.append((positions, int(length)))
    return groups


def _first_occurrences(
    start: np.ndarray, end: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence dedup of ``(start, end)`` run pairs, scan order kept."""
    codes = start.astype(np.int64) * (span + 1) + end
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return start[first], end[first]


class CompiledConstraints:
    """One topology's constraint system of Eq. (14) as stacked numpy arrays.

    The unknown vector ``v`` is ``concatenate([delta_x, delta_y])`` —
    ``n_vars = cols + rows`` entries.  All index arrays below address ``v``
    directly (y-axis constraints carry the ``+ cols`` offset baked in).
    Instances are immutable in practice and safe to share across solves of
    the same topology under the same rules.
    """

    def __init__(self, topology: np.ndarray, rules: DesignRules) -> None:
        grid = validate_grid(topology)
        self.rules = rules
        rows, cols = grid.shape
        self.shape = (rows, cols)
        self.rows = rows
        self.cols = cols
        self.n_vars = cols + rows
        self.total = float(rules.pattern_size)

        # ---------------- interval (width / space) constraints ------------ #
        # Horizontal runs constrain delta_x; vertical runs (the transposed
        # grid) constrain delta_y, whose entries sit ``cols`` into ``v``.
        starts, lengths, minimums = [], [], []
        for kernel, value, minimum in (
            (runs_2d, 1, rules.width_min),
            (interior_runs_2d, 0, rules.space_min),
        ):
            for view, span, offset in ((grid, cols, 0), (grid.T, rows, cols)):
                _, start, end = kernel(view, value)
                start, end = _first_occurrences(start, end, span)
                starts.append(start + offset)
                lengths.append(end - start + 1)
                minimums.append(np.full(start.size, float(minimum)))
        starts = np.concatenate(starts)
        lengths = np.concatenate(lengths)
        self.n_intervals = starts.size
        self.interval_minimums = np.concatenate(minimums)
        #: ``(positions, (k, L) index matrix)`` per distinct segment length;
        #: equal-length grouping keeps each row-sum bit-identical to the
        #: legacy per-constraint slice sum (see module docstring).
        self._interval_groups: list[tuple[np.ndarray, np.ndarray]] = [
            (positions, starts[positions][:, None] + np.arange(length)[None, :])
            for positions, length in _length_groups(lengths)
        ]
        jac = np.zeros((self.n_intervals, self.n_vars))
        for positions, index_matrix in self._interval_groups:
            jac[positions[:, None], index_matrix] = 1.0
        self.interval_jacobian = jac

        # ---------------- polygon-area constraints ------------------------ #
        # One stable sort of the foreground cells by component label puts
        # them polygon-major (label order), row-major within a polygon.
        labels, self.n_polygons = connected_components(grid)
        flat_labels = labels.ravel()
        cells = np.flatnonzero(flat_labels)
        cells = cells[np.argsort(flat_labels[cells], kind="stable")]
        cell_counts = np.bincount(flat_labels[cells], minlength=self.n_polygons + 1)[1:]
        flat_rows, flat_cols = np.divmod(cells, cols)
        # Flattened COO cell arrays in polygon-major cell order (the order
        # the legacy per-polygon ``np.add.at`` scattered in).
        self._poly_ids = np.repeat(np.arange(self.n_polygons, dtype=np.int64), cell_counts)
        self._poly_col_vars = flat_cols                  # indices into v[:cols]
        self._poly_row_vars = cols + flat_rows           # indices into v[cols:]
        #: ``(positions, (k, L) col matrix, (k, L) row matrix)`` per distinct
        #: polygon cell count, each polygon's cells in row-major order.
        bounds = np.concatenate([[0], np.cumsum(cell_counts)])
        self._poly_groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for positions, count in _length_groups(cell_counts):
            cell_index = bounds[positions][:, None] + np.arange(count)[None, :]
            self._poly_groups.append(
                (positions, self._poly_col_vars[cell_index], self._poly_row_vars[cell_index])
            )

        # Rounding each interval by at most 1 nm can change a polygon's area
        # by up to ~2 * pattern_size + (#cells), so the continuous solve must
        # stay that far inside the legal area window for the rounded solution
        # to verify (same formula as the legacy solver).
        area_margin = 2.0 * self.total + rows * cols
        if rules.area_max - rules.area_min <= 2.0 * area_margin:
            area_margin = max(0.0, (rules.area_max - rules.area_min) / 4.0)
        self.area_margin = area_margin

        # ---------------- equality constraints ---------------------------- #
        self.equality_jacobian = np.zeros((2, self.n_vars))
        self.equality_jacobian[0, :cols] = 1.0
        self.equality_jacobian[1, cols:] = 1.0

        self._repair_bounds: "tuple[np.ndarray, np.ndarray] | None" = None

    # ------------------------------------------------------------------ #
    # kernel evaluation
    # ------------------------------------------------------------------ #
    def interval_values(self, v: np.ndarray) -> np.ndarray:
        """``sum(v[segment])`` per interval constraint, constraint order."""
        out = np.empty(self.n_intervals)
        for positions, index_matrix in self._interval_groups:
            out[positions] = v[index_matrix].sum(axis=1)
        return out

    def polygon_areas(self, v: np.ndarray) -> np.ndarray:
        """``sum(delta_x[c] * delta_y[r])`` per polygon, polygon order."""
        out = np.empty(self.n_polygons)
        for positions, col_mat, row_mat in self._poly_groups:
            out[positions] = (v[col_mat] * v[row_mat]).sum(axis=1)
        return out

    def polygon_area_jacobian(self, v: np.ndarray) -> np.ndarray:
        """``(n_polygons, n_vars)`` gradient of every polygon area at ``v``.

        Two ``bincount`` scatters over the flattened COO arrays; the column
        and row variable slots are disjoint, and ``bincount`` accumulates in
        input (= polygon-major cell) order, so every entry matches the legacy
        per-polygon ``np.add.at`` bit for bit.
        """
        size = self.n_polygons * self.n_vars
        flat_col = self._poly_ids * self.n_vars + self._poly_col_vars
        flat_row = self._poly_ids * self.n_vars + self._poly_row_vars
        by_col = np.bincount(flat_col, weights=v[self._poly_row_vars], minlength=size)
        by_row = np.bincount(flat_row, weights=v[self._poly_col_vars], minlength=size)
        return (by_col + by_row).reshape(self.n_polygons, self.n_vars)

    def equality_values(self, v: np.ndarray) -> np.ndarray:
        """Window-sum residuals ``[sum(delta_x) - P, sum(delta_y) - P]``."""
        return np.array(
            [v[: self.cols].sum() - self.total, v[self.cols :].sum() - self.total]
        )

    # ------------------------------------------------------------------ #
    # SLSQP constraint assembly
    # ------------------------------------------------------------------ #
    def slsqp_constraints(self) -> list[dict]:
        """The scipy constraint dicts of Eq. (14) over this kernel.

        Every width/space minimum carries the solve's :data:`MARGIN` of
        slack, so the continuous solution survives rounding.

        scipy fills constraint values and jacobian rows into preallocated
        arrays in dict order (eq dicts first, then ineq dicts), so the
        concatenated system it sees is element-for-element the one the legacy
        per-constraint lambda list produced: the two sum equalities, every
        interval constraint in extraction order, then the polygon lower/upper
        area bounds interleaved per polygon.
        """
        cons: list[dict] = [
            {
                "type": "eq",
                "fun": self.equality_values,
                "jac": lambda v: self.equality_jacobian,
            }
        ]
        if self.n_intervals:
            bounds = self.interval_minimums + MARGIN
            cons.append(
                {
                    "type": "ineq",
                    "fun": lambda v, bounds=bounds: self.interval_values(v) - bounds,
                    "jac": lambda v: self.interval_jacobian,
                }
            )
        if self.n_polygons:
            lower = self.rules.area_min + self.area_margin
            upper = self.rules.area_max - self.area_margin
            p = self.n_polygons

            def area_fun(v: np.ndarray) -> np.ndarray:
                areas = self.polygon_areas(v)
                out = np.empty(2 * p)
                out[0::2] = areas - lower
                out[1::2] = upper - areas
                return out

            def area_jac(v: np.ndarray) -> np.ndarray:
                jac = self.polygon_area_jacobian(v)
                out = np.empty((2 * p, self.n_vars))
                out[0::2] = jac
                out[1::2] = -jac
                return out

            cons.append({"type": "ineq", "fun": area_fun, "jac": area_jac})
        return cons

    # ------------------------------------------------------------------ #
    # repair-first fast path support
    # ------------------------------------------------------------------ #
    def repair_lower_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-index lower bounds ``(lb_x, lb_y)`` for the repair projection.

        An integer vector with ``delta[i] >= lb[i]`` for every index
        automatically satisfies every interval constraint **after rounding**:
        each index carries ``ceil(minimum / length)`` of its tightest
        covering constraint, so a length-``L`` constraint sums to at least
        ``L * ceil(minimum / L) >= minimum`` even when every entry was
        rounded down to the bound.  No bound is below the solve's
        :data:`LOWER_BOUND`.  Area constraints are not representable per
        index and are left to exact verification.  Computed once per kernel.
        """
        if self._repair_bounds is None:
            lb = np.full(self.n_vars, max(1.0, np.ceil(LOWER_BOUND)))
            for positions, index_matrix in self._interval_groups:
                per_index = np.ceil(self.interval_minimums[positions] / index_matrix.shape[1])
                np.maximum.at(lb, index_matrix, per_index[:, None])
            self._repair_bounds = (lb[: self.cols].copy(), lb[self.cols :].copy())
        return self._repair_bounds


# --------------------------------------------------------------------------- #
# topology-hash compilation cache
# --------------------------------------------------------------------------- #
# Compilation is pure in (topology bytes, rules), so one bounded LRU dedupes
# the work across repeated topologies in a batch and across calls.  Worker
# processes each hold their own cache (no cross-process sharing).  The
# capacity bounds memory, not correctness: a compiled kernel holds a dense
# (n_intervals, n_vars) jacobian, which reaches a few MB per entry at paper
# scale (128x128 grids), and every pool worker owns a cache.  The reuse the cache targets is temporally local —
# restart attempts and multi-solution solves reuse the object a chunk solve
# already holds; only repeats of the same topology go through the LRU — so a
# small window captures it.
_CACHE: "OrderedDict[tuple, CompiledConstraints]" = OrderedDict()
_CACHE_CAPACITY = 32
_CACHE_HITS = 0
_CACHE_MISSES = 0


def compiled_for_topology(
    topology: np.ndarray, rules: DesignRules
) -> CompiledConstraints:
    """The compiled kernel for one topology matrix, LRU-cached by content."""
    global _CACHE_HITS, _CACHE_MISSES
    grid = validate_grid(topology)
    key = (grid.shape, grid.tobytes(), rules)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        _CACHE_HITS += 1
        return cached
    _CACHE_MISSES += 1
    compiled = CompiledConstraints(grid, rules)
    _CACHE[key] = compiled
    if len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.popitem(last=False)
    return compiled


def compilation_cache_info() -> dict:
    """Hit/miss/size/capacity counters of the process-local compilation cache."""
    return {
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "size": len(_CACHE),
        "capacity": _CACHE_CAPACITY,
    }


def clear_compilation_cache() -> None:
    """Drop all cached kernels and reset the counters (test isolation)."""
    global _CACHE_HITS, _CACHE_MISSES
    _CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
