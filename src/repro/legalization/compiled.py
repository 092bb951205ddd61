"""Compiled constraint kernels for the 2D legal pattern assessment.

The SLSQP solve historically registered one Python lambda per
width/space/area constraint and re-invoked every one of them (plus its
jacobian) on every iteration — a scalar-Python tax of hundreds of
interpreter round-trips per solve.  This module compiles a
:class:`~repro.legalization.TopologyConstraints` into stacked index arrays
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

The module also hosts the repair-first fast path's building blocks
(per-index lower bounds, exact integer verification) and
:func:`compiled_for_topology`, the topology-hash compilation cache through
which the :class:`~repro.legalization.LegalizationEngine` compiles every
topology it legalises: it dedupes extraction + compilation across repeated
topologies in a batch and across calls.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..geometry import validate_grid
from .constraints import TopologyConstraints, extract_constraints
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


class CompiledConstraints:
    """A :class:`TopologyConstraints` lowered to stacked numpy arrays.

    The unknown vector ``v`` is ``concatenate([delta_x, delta_y])`` —
    ``n_vars = cols + rows`` entries.  All index arrays below address ``v``
    directly (y-axis constraints carry the ``+ cols`` offset baked in).
    Instances are immutable in practice and safe to share across solves of
    the same topology under the same rules.
    """

    def __init__(self, constraints: TopologyConstraints, rules: DesignRules) -> None:
        self.constraints = constraints
        self.rules = rules
        rows, cols = constraints.shape
        self.shape = (rows, cols)
        self.rows = rows
        self.cols = cols
        self.n_vars = cols + rows
        self.total = float(rules.pattern_size)

        # ---------------- interval (width / space) constraints ------------ #
        intervals = constraints.all_interval_constraints
        self.n_intervals = len(intervals)
        starts = np.empty(self.n_intervals, dtype=np.int64)
        lengths = np.empty(self.n_intervals, dtype=np.int64)
        minimums = np.empty(self.n_intervals, dtype=np.float64)
        is_x = np.empty(self.n_intervals, dtype=bool)
        for i, constraint in enumerate(intervals):
            offset = 0 if constraint.axis == "x" else cols
            starts[i] = constraint.start + offset
            lengths[i] = constraint.end - constraint.start + 1
            minimums[i] = float(constraint.minimum)
            is_x[i] = constraint.axis == "x"
        self.interval_minimums = minimums
        self._interval_starts = starts
        self._interval_lengths = lengths
        self._interval_is_x = is_x
        #: ``(positions, (k, L) index matrix)`` per distinct segment length;
        #: equal-length grouping keeps each row-sum bit-identical to the
        #: legacy per-constraint slice sum (see module docstring).
        self._interval_groups: list[tuple[np.ndarray, np.ndarray]] = [
            (positions, starts[positions][:, None] + np.arange(length)[None, :])
            for positions, length in _length_groups(lengths)
        ]
        jac = np.zeros((self.n_intervals, self.n_vars))
        for i in range(self.n_intervals):
            jac[i, starts[i] : starts[i] + lengths[i]] = 1.0
        self.interval_jacobian = jac

        # ---------------- polygon-area constraints ------------------------ #
        polygons = constraints.polygon_cells
        self.n_polygons = len(polygons)
        cell_counts = np.array([len(cells) for cells in polygons], dtype=np.int64)
        # Flattened COO cell arrays in polygon-major cell order (the order
        # the legacy per-polygon ``np.add.at`` scattered in).
        poly_ids = np.repeat(np.arange(self.n_polygons, dtype=np.int64), cell_counts)
        flat_rows = np.concatenate(
            [np.asarray([r for r, _ in cells], dtype=np.int64) for cells in polygons]
        ) if self.n_polygons else np.empty(0, dtype=np.int64)
        flat_cols = np.concatenate(
            [np.asarray([c for _, c in cells], dtype=np.int64) for cells in polygons]
        ) if self.n_polygons else np.empty(0, dtype=np.int64)
        self._poly_ids = poly_ids
        self._poly_col_vars = flat_cols                  # indices into v[:cols]
        self._poly_row_vars = cols + flat_rows           # indices into v[cols:]
        #: ``(positions, (k, L) col matrix, (k, L) row matrix)`` per distinct
        #: polygon cell count, cells in the same order as ``polygon_cells``.
        self._poly_groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        bounds = np.cumsum(np.concatenate([[0], cell_counts]))
        for positions, count in _length_groups(cell_counts) if self.n_polygons else []:
            col_mat = np.empty((positions.size, count), dtype=np.int64)
            row_mat = np.empty((positions.size, count), dtype=np.int64)
            for k, p in enumerate(positions):
                col_mat[k] = self._poly_col_vars[bounds[p] : bounds[p + 1]]
                row_mat[k] = self._poly_row_vars[bounds[p] : bounds[p + 1]]
            self._poly_groups.append((positions, col_mat, row_mat))

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

        self._repair_bounds_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

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
    def slsqp_constraints(self, margin: float) -> list[dict]:
        """The scipy constraint dicts of Eq. (14) over this kernel.

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
            bounds = self.interval_minimums + margin
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
    def repair_lower_bounds(self, floor: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-index lower bounds ``(lb_x, lb_y)`` for the repair projection.

        An integer vector with ``delta[i] >= lb[i]`` for every index
        automatically satisfies every interval constraint **after rounding**:
        each index carries ``ceil(minimum / length)`` of its tightest
        covering constraint, so a length-``L`` constraint sums to at least
        ``L * ceil(minimum / L) >= minimum`` even when every entry was
        rounded down to the bound.  Area constraints are not representable
        per index and are left to exact verification.
        """
        key = float(floor)
        cached = self._repair_bounds_cache.get(key)
        if cached is not None:
            return cached
        lb = np.full(self.n_vars, max(1.0, np.ceil(floor)))
        if self.n_intervals:
            per_index = np.ceil(self.interval_minimums / self._interval_lengths)
            flat_values = np.repeat(per_index, self._interval_lengths)
            flat_indices = np.concatenate(
                [
                    np.arange(start, start + length)
                    for start, length in zip(self._interval_starts, self._interval_lengths)
                ]
            )
            np.maximum.at(lb, flat_indices, flat_values)
        result = (lb[: self.cols].copy(), lb[self.cols :].copy())
        self._repair_bounds_cache[key] = result
        return result

    def verify_integer(self, delta_x: np.ndarray, delta_y: np.ndarray) -> bool:
        """Exact integer re-check of Eq. (14) on rounded vectors."""
        dx = np.asarray(delta_x, dtype=np.int64)
        dy = np.asarray(delta_y, dtype=np.int64)
        if (dx <= 0).any() or (dy <= 0).any():
            return False
        if int(dx.sum()) != self.rules.pattern_size:
            return False
        if int(dy.sum()) != self.rules.pattern_size:
            return False
        v = np.concatenate([dx, dy])
        for positions, index_matrix in self._interval_groups:
            sums = v[index_matrix].sum(axis=1)
            if (sums < self.interval_minimums[positions]).any():
                return False
        for positions, col_mat, row_mat in self._poly_groups:
            areas = (v[col_mat] * v[row_mat]).sum(axis=1)
            if (areas < self.rules.area_min).any() or (areas > self.rules.area_max).any():
                return False
        return True


# --------------------------------------------------------------------------- #
# topology-hash compilation cache
# --------------------------------------------------------------------------- #
# Constraint extraction + compilation is pure in (topology bytes, rules), so
# one bounded LRU dedupes the work across repeated topologies in a batch and
# across calls.  Worker processes each hold their own cache (no
# cross-process sharing).  The capacity bounds memory, not correctness: a
# compiled kernel holds a dense (n_intervals, n_vars) jacobian, which
# reaches a few MB per entry at paper scale (128x128 grids), and every pool
# worker owns a cache.  The reuse the cache targets is temporally local —
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
    constraints = extract_constraints(grid, rules.width_min, rules.space_min)
    compiled = CompiledConstraints(constraints, rules)
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
