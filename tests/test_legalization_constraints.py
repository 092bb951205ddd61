"""Unit tests for design rules and constraint extraction (Eq. 14)."""

import numpy as np
import pytest
from legalization_helpers import polygon_area

from repro.legalization import (
    LARGER_SPACE_RULES,
    NORMAL_RULES,
    SMALLER_AREA_RULES,
    DesignRules,
    IntervalConstraint,
    extract_constraints,
)


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
        constraints = extract_constraints(topo, width_min=30, space_min=20)
        # one width run along x (columns 1..2) and one along y (rows 1..2)
        axes = {(c.axis, c.start, c.end) for c in constraints.width_constraints}
        assert ("x", 1, 2) in axes and ("y", 1, 2) in axes
        assert constraints.space_constraints == []
        assert constraints.num_polygons == 1

    def test_space_constraint_between_two_shapes(self):
        topo = np.zeros((1, 5), dtype=np.uint8)
        topo[0, 0] = 1
        topo[0, 4] = 1
        constraints = extract_constraints(topo, width_min=30, space_min=20)
        spaces = [(c.axis, c.start, c.end) for c in constraints.space_constraints]
        assert spaces == [("x", 1, 3)]
        assert all(c.minimum == 20 for c in constraints.space_constraints)

    def test_border_gaps_are_not_space_constraints(self):
        topo = np.zeros((1, 5), dtype=np.uint8)
        topo[0, 2] = 1
        constraints = extract_constraints(topo, width_min=30, space_min=20)
        assert constraints.space_constraints == []

    def test_duplicate_runs_are_deduplicated(self):
        topo = np.zeros((4, 4), dtype=np.uint8)
        topo[0:4, 1:3] = 1  # same column run repeated on every row
        constraints = extract_constraints(topo, width_min=30, space_min=20)
        x_widths = [c for c in constraints.width_constraints if c.axis == "x"]
        assert len(x_widths) == 1

    def test_polygon_cells_and_area(self):
        topo = np.zeros((3, 3), dtype=np.uint8)
        topo[0, 0] = 1
        topo[2, 1:3] = 1
        constraints = extract_constraints(topo, 10, 10)
        assert constraints.num_polygons == 2
        dx = np.array([10, 20, 30])
        dy = np.array([5, 6, 7])
        areas = sorted(polygon_area(cells, dx, dy) for cells in constraints.polygon_cells)
        assert areas == [50.0, (20 + 30) * 7.0]

    def test_interval_constraint_indices(self):
        constraint = IntervalConstraint("x", 2, 5, 40, "width")
        np.testing.assert_array_equal(constraint.indices(), [2, 3, 4, 5])

    def test_all_interval_constraints_concatenates(self):
        topo = np.zeros((1, 5), dtype=np.uint8)
        topo[0, 0] = 1
        topo[0, 4] = 1
        constraints = extract_constraints(topo, 30, 20)
        assert len(constraints.all_interval_constraints) == (
            len(constraints.width_constraints) + len(constraints.space_constraints)
        )

    def test_empty_topology_has_no_constraints(self):
        constraints = extract_constraints(np.zeros((3, 3), dtype=np.uint8), 10, 10)
        assert constraints.width_constraints == []
        assert constraints.space_constraints == []
        assert constraints.num_polygons == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            extract_constraints(np.full((2, 2), 2), 10, 10)
