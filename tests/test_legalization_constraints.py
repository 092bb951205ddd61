"""Unit tests for design rules and constraint extraction (Eq. 14).

Each extraction case states the expected constraint sets on the
line-by-line oracle (``legalization_helpers.line_constraints``) and checks
that ``CompiledConstraints`` reads the same sets off the grid.
"""

import numpy as np
import pytest
from legalization_helpers import compiled_lines, line_constraints, polygon_area

from repro.legalization import (
    LARGER_SPACE_RULES,
    NORMAL_RULES,
    SMALLER_AREA_RULES,
    CompiledConstraints,
    DesignRules,
)


def extract(topology, width_min, space_min):
    """The oracle's constraint sets, asserted equal to the compiled kernel's."""
    constraints = line_constraints(topology, width_min, space_min)
    rules = DesignRules(width_min=width_min, space_min=space_min)
    assert compiled_lines(CompiledConstraints(topology, rules)) == constraints
    return constraints


def kinds(constraints, width_min):
    """``(widths, spaces)``: the oracle's intervals split by kind."""
    widths = [c for c in constraints.intervals if c[3] == width_min]
    spaces = [c for c in constraints.intervals if c[3] != width_min]
    return widths, spaces


class TestDesignRules:
    def test_defaults_are_consistent(self):
        rules = DesignRules()
        assert rules.space_min > 0 and rules.width_min > 0
        assert rules.area_min <= rules.area_max
        assert rules.pattern_size == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignRules(space_min=0)
        with pytest.raises(ValueError):
            DesignRules(area_min=10, area_max=5)
        with pytest.raises(ValueError):
            DesignRules(pattern_size=-1)

    def test_rule_variants_for_fig8(self):
        assert LARGER_SPACE_RULES.space_min > NORMAL_RULES.space_min
        assert SMALLER_AREA_RULES.area_max < NORMAL_RULES.area_max

    def test_with_helpers_return_new_objects(self):
        rules = DesignRules()
        assert rules.with_space_min(100).space_min == 100
        assert rules.with_area_range(1, 2).area_max == 2
        assert rules.space_min == DesignRules().space_min  # original unchanged


class TestConstraintExtraction:
    def test_single_rectangle_constraints(self):
        topo = np.zeros((4, 4), dtype=np.uint8)
        topo[1:3, 1:3] = 1
        constraints = extract(topo, width_min=30, space_min=20)
        # one width run along x (columns 1..2) and one along y (rows 1..2)
        assert constraints.intervals == [("x", 1, 2, 30), ("y", 1, 2, 30)]
        assert len(constraints.polygons) == 1

    def test_space_constraint_between_two_shapes(self):
        topo = np.zeros((1, 5), dtype=np.uint8)
        topo[0, 0] = 1
        topo[0, 4] = 1
        constraints = extract(topo, width_min=30, space_min=20)
        _, spaces = kinds(constraints, 30)
        assert spaces == [("x", 1, 3, 20)]

    def test_border_gaps_are_not_space_constraints(self):
        topo = np.zeros((1, 5), dtype=np.uint8)
        topo[0, 2] = 1
        constraints = extract(topo, width_min=30, space_min=20)
        assert kinds(constraints, 30)[1] == []

    def test_duplicate_runs_are_deduplicated(self):
        topo = np.zeros((4, 4), dtype=np.uint8)
        topo[0:4, 1:3] = 1  # same column run repeated on every row
        constraints = extract(topo, width_min=30, space_min=20)
        x_widths = [c for c in kinds(constraints, 30)[0] if c[0] == "x"]
        assert x_widths == [("x", 1, 2, 30)]

    def test_polygon_cells_and_area(self):
        topo = np.zeros((3, 3), dtype=np.uint8)
        topo[0, 0] = 1
        topo[2, 1:3] = 1
        constraints = extract(topo, 10, 10)
        assert constraints.polygons == [[(0, 0)], [(2, 1), (2, 2)]]
        dx = np.array([10, 20, 30])
        dy = np.array([5, 6, 7])
        areas = sorted(polygon_area(cells, dx, dy) for cells in constraints.polygons)
        assert areas == [50.0, (20 + 30) * 7.0]

    def test_interval_constraint_indices(self):
        # An interval's end is inclusive: columns 2..5 are four entries of
        # delta_x, one segment-index row of length 4 in the compiled kernel.
        topo = np.zeros((1, 8), dtype=np.uint8)
        topo[0, 2:6] = 1
        constraints = extract(topo, 40, 20)
        assert ("x", 2, 5, 40) in constraints.intervals
        compiled = CompiledConstraints(topo, DesignRules(width_min=40, space_min=20))
        (index_rows,) = [m for _, m in compiled._interval_groups if m.shape[1] == 4]
        np.testing.assert_array_equal(index_rows, [[2, 3, 4, 5]])

    def test_all_interval_constraints_concatenates(self):
        # Widths come before spaces, x before y within each kind.
        topo = np.zeros((5, 5), dtype=np.uint8)
        topo[0, 0] = 1
        topo[0, 4] = 1
        topo[4, 0] = 1
        constraints = extract(topo, 30, 20)
        widths, spaces = kinds(constraints, 30)
        assert constraints.intervals == widths + spaces
        assert [c[0] for c in widths] == ["x", "x", "y", "y"]
        assert spaces == [("x", 1, 3, 20), ("y", 1, 3, 20)]

    def test_empty_topology_has_no_constraints(self):
        constraints = extract(np.zeros((3, 3), dtype=np.uint8), 10, 10)
        assert constraints.intervals == []
        assert constraints.polygons == []

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CompiledConstraints(np.full((2, 2), 2), DesignRules())
        with pytest.raises(ValueError):
            line_constraints(np.full((2, 2), 2), 10, 10)
