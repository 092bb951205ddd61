"""Constraint extraction for the 2D legal pattern assessment (Eq. 14).

Given a generated binary topology matrix, this module derives the
pattern-dependent constraint sets of the nonlinear system:

* ``SetW`` — index ranges of the geometric vectors whose sum must be at least
  ``width_min`` (one range per maximal run of 1s in every row / column),
* ``SetS`` — index ranges whose sum must be at least ``space_min`` (one range
  per maximal interior run of 0s between two shapes in a row / column),
* the per-polygon cell lists used by the nonlinear area constraints
  ``sum_{(r,c) in polygon} delta_x[c] * delta_y[r] in [area_min, area_max]``.

Runs of 0s that touch the window border are *not* space constraints: the
distance to the clip boundary is unknown (the neighbouring clip continues
there), exactly as in the paper's formulation where only adjacent polygons
constrain each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import connected_components, interior_runs_2d, runs_2d, validate_grid


@dataclass(frozen=True)
class IntervalConstraint:
    """``sum(delta[start..end]) >= minimum`` over one geometric vector.

    ``axis`` is ``"x"`` when the constraint applies to ``delta_x`` (a
    horizontal run) and ``"y"`` for ``delta_y``.
    """

    axis: str
    start: int
    end: int
    minimum: int
    kind: str  # "width" or "space"

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.end + 1)


@dataclass
class TopologyConstraints:
    """All pattern-dependent constraints extracted from one topology matrix."""

    shape: tuple[int, int]
    width_constraints: list[IntervalConstraint] = field(default_factory=list)
    space_constraints: list[IntervalConstraint] = field(default_factory=list)
    polygon_cells: list[list[tuple[int, int]]] = field(default_factory=list)

    @property
    def num_polygons(self) -> int:
        return len(self.polygon_cells)

    @property
    def all_interval_constraints(self) -> list[IntervalConstraint]:
        return self.width_constraints + self.space_constraints


def _dedup_runs(
    start: np.ndarray, end: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence dedup of ``(start, end)`` pairs, scan order kept.

    The vectorized form of the seen-set the extraction loop used to carry:
    identical runs repeat across the lines of a grid (every row crossing the
    same rectangle yields the same column range), and only the first
    occurrence becomes a constraint.
    """
    codes = start.astype(np.int64) * (span + 1) + end
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return start[first], end[first]


def extract_constraints(
    topology: np.ndarray, width_min: int, space_min: int
) -> TopologyConstraints:
    """Build the constraint sets of Eq. (14) for one topology matrix.

    Runs are extracted with the vectorized run-length kernels of
    :mod:`repro.geometry` (one diff + nonzero per direction instead of a
    Python loop per line); constraint order is unchanged — first occurrence
    in row-major scan order, rows before columns.
    """
    grid = validate_grid(topology)
    rows, cols = grid.shape
    constraints = TopologyConstraints(shape=(rows, cols))

    # Horizontal runs constrain delta_x; vertical runs (via the transposed
    # grid) constrain delta_y.
    for axis, view, span in (("x", grid, cols), ("y", grid.T, rows)):
        _, start, end = runs_2d(view, 1)
        for s, e in zip(*_dedup_runs(start, end, span)):
            constraints.width_constraints.append(
                IntervalConstraint(axis, int(s), int(e), width_min, "width")
            )
        _, start, end = interior_runs_2d(view, 0)
        for s, e in zip(*_dedup_runs(start, end, span)):
            constraints.space_constraints.append(
                IntervalConstraint(axis, int(s), int(e), space_min, "space")
            )

    # Polygon cells for the area constraints.
    labels, count = connected_components(grid)
    for comp in range(1, count + 1):
        rr, cc = np.nonzero(labels == comp)
        constraints.polygon_cells.append(list(zip(rr.tolist(), cc.tolist())))

    return constraints
