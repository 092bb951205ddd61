"""Test-side references for the legalization solve.

The legalization engine solves its chunks with
:func:`repro.legalization.solve_geometry_chunk`, and a topology's solutions
must not depend on the chunk around it.  :func:`solve_alone` and
:func:`legalize_alone` call the chunk solve directly on a single topology,
which is the reference the engine's chunked, pooled and warm-started output
is compared with.

:func:`line_constraints` is the constraint oracle: Eq. (14)'s width, space
and polygon sets read off a grid with plain Python loops and a flood fill,
sharing none of the run-length and labelling kernels that
:class:`~repro.legalization.CompiledConstraints` is built from.
:func:`verify_integer_solution` re-checks an integer geometry against it
and :func:`polygon_area` is the per-polygon area oracle for the compiled
area kernels.
"""

from dataclasses import dataclass

import numpy as np

from repro.legalization import (
    CompiledConstraints,
    LegalizedTopology,
    ReferenceIndex,
    compiled_for_topology,
    solve_geometry_chunk,
)
from repro.squish import SquishPattern
from repro.utils import as_rng, child_rng


@dataclass
class LineConstraints:
    """One grid's constraint sets of Eq. (14), in the oracle's plain form."""

    shape: tuple
    #: ``(axis, start, end, minimum)`` per interval, ``end`` inclusive: x
    #: widths, y widths, x spaces, y spaces, each in scan order with repeats
    #: of an earlier ``(start, end)`` on the same axis and kind dropped.
    intervals: list
    #: Each 4-connected polygon's ``(row, col)`` cells in row-major order;
    #: polygons in scan order of their first cell.
    polygons: list


def _runs(line, value):
    """Maximal runs ``(start, end)`` of ``value`` in one line, left to right."""
    runs, start = [], None
    for position, cell in enumerate([*line, None]):
        if cell == value and start is None:
            start = position
        elif cell != value and start is not None:
            runs.append((start, position - 1))
            start = None
    return runs


def line_constraints(topology, width_min, space_min):
    """Eq. (14)'s constraint sets of one binary grid, line by line.

    Every row (over ``delta_x``) and every column (over ``delta_y``) is
    scanned in a Python loop: each maximal run of 1s is a width interval,
    and each run of 0s that touches neither end of its line (so lies
    between two shapes) is a space interval.  Polygons are found by flood
    fill from each unvisited 1 in scan order.
    """
    grid = [[int(cell) for cell in row] for row in np.asarray(topology).tolist()]
    if any(cell not in (0, 1) for row in grid for cell in row):
        raise ValueError("topology grid entries must be 0 or 1")
    rows, cols = len(grid), len(grid[0])
    lines = {"x": grid, "y": [[grid[r][c] for r in range(rows)] for c in range(cols)]}
    intervals = []
    for kind, minimum in (("width", width_min), ("space", space_min)):
        for axis in ("x", "y"):
            seen = set()
            for line in lines[axis]:
                if kind == "width":
                    runs = _runs(line, 1)
                else:
                    runs = [(s, e) for s, e in _runs(line, 0) if s > 0 and e < len(line) - 1]
                for run in runs:
                    if run not in seen:
                        seen.add(run)
                        intervals.append((axis, run[0], run[1], minimum))
    visited = [[False] * cols for _ in range(rows)]
    polygons = []
    for r in range(rows):
        for c in range(cols):
            if grid[r][c] != 1 or visited[r][c]:
                continue
            visited[r][c] = True
            stack, cells = [(r, c)], []
            while stack:
                y, x = stack.pop()
                cells.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < rows and 0 <= nx < cols and grid[ny][nx] == 1 and not visited[ny][nx]:
                        visited[ny][nx] = True
                        stack.append((ny, nx))
            polygons.append(sorted(cells))
    return LineConstraints((rows, cols), intervals, polygons)


def compiled_lines(compiled):
    """A :class:`CompiledConstraints`' interval and polygon arrays in the oracle's form."""
    cols = compiled.cols
    # Each interval is a row of its length group's segment index matrix.
    runs = [None] * compiled.n_intervals
    for positions, index_matrix in compiled._interval_groups:
        for position, row in zip(positions.tolist(), index_matrix.tolist()):
            runs[position] = (row[0], row[-1])
    intervals = [
        ("x", start, end, minimum) if start < cols else ("y", start - cols, end - cols, minimum)
        for (start, end), minimum in zip(runs, compiled.interval_minimums.tolist())
    ]
    polygons = [[] for _ in range(compiled.n_polygons)]
    for polygon, col, row in zip(
        compiled._poly_ids.tolist(),
        compiled._poly_col_vars.tolist(),
        compiled._poly_row_vars.tolist(),
    ):
        polygons[polygon].append((row - cols, col))
    return LineConstraints(compiled.shape, intervals, polygons)


def verify_integer_solution(constraints, rules, delta_x, delta_y):
    """Exact re-check of Eq. (14) straight from the oracle's constraint sets."""
    delta_x = np.asarray(delta_x)
    delta_y = np.asarray(delta_y)
    if (delta_x <= 0).any() or (delta_y <= 0).any():
        return False
    if int(delta_x.sum()) != rules.pattern_size or int(delta_y.sum()) != rules.pattern_size:
        return False
    for axis, start, end, minimum in constraints.intervals:
        delta = delta_x if axis == "x" else delta_y
        if int(delta[start : end + 1].sum()) < minimum:
            return False
    for cells in constraints.polygons:
        area = polygon_area(cells, delta_x, delta_y)
        if not rules.area_min <= area <= rules.area_max:
            return False
    return True


def polygon_area(cells, delta_x, delta_y):
    """Area of one polygon: ``delta_x[col] * delta_y[row]`` summed over its ``(row, col)`` cells."""
    coords = np.asarray(cells, dtype=np.int64)
    if coords.size == 0:
        return 0.0
    dx = np.asarray(delta_x, dtype=np.float64)
    dy = np.asarray(delta_y, dtype=np.float64)
    return float((dx[coords[:, 1]] * dy[coords[:, 0]]).sum())


def solve_alone(topology, rules, rng=None, solver_mode="auto", target_x=None, target_y=None):
    """The single solution of one topology (a grid or its compiled constraints).

    ``target_x`` / ``target_y`` steer the first attempt (``Solving-E``);
    when omitted the targets are drawn from ``rng`` (``Solving-R``).
    """
    if not isinstance(topology, CompiledConstraints):
        topology = compiled_for_topology(topology, rules)
    outcome = solve_geometry_chunk(
        [topology],
        rules,
        [as_rng(rng)],
        solver_mode,
        initial_targets=lambda _i, _rng: (target_x, target_y),
    )
    return outcome.solutions[0][0]


def legalize_alone(
    topologies, rules, seed, num_solutions=1, solver_mode="auto", references=None
):
    """Each topology legalized alone on its ``(seed, index)`` stream and
    warm-started from ``references`` the way the engine picks them: the
    results every engine call must reproduce element-wise."""
    index = ReferenceIndex(references)
    results = []
    for position, topology in enumerate(topologies):
        compiled = compiled_for_topology(topology, rules)
        outcome = solve_geometry_chunk(
            [compiled],
            rules,
            [child_rng(seed, position)],
            solver_mode,
            num_solutions=num_solutions,
            initial_targets=lambda _i, gen: index.pick(compiled.shape, gen),
        )
        result = LegalizedTopology(topology=np.asarray(topology, dtype=np.uint8))
        for solution in outcome.solutions[0]:
            if solution.success:
                result.solutions.append(solution)
                result.patterns.append(
                    SquishPattern(result.topology, solution.delta_x, solution.delta_y)
                )
        results.append(result)
    return results
