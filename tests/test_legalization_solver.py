"""Unit tests for the nonlinear legalisation solve and single-topology legalization.

``TestSolveTopology`` solves one topology as a chunk of one through
``solve_geometry_chunk``; ``TestLegalizer`` legalizes single topologies and
small batches through ``LegalizationEngine``, the package's entry point.
"""

import numpy as np
import pytest
from legalization_helpers import (
    line_constraints,
    polygon_area,
    solve_alone,
    verify_integer_solution,
)

from repro.drc import DesignRuleChecker
from repro.legalization import DesignRules, LegalizationEngine, batched
from repro.legalization.batched import _round_rows


@pytest.fixture(scope="module")
def rules():
    return DesignRules()


def _round_preserving_sum(values: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of one vector: ``_round_rows`` on a one-row stack."""
    return _round_rows(values[None, :], total)[0]


def _reference_round_preserving_sum(values: np.ndarray, total: int) -> np.ndarray:
    """The original per-unit loop, kept as the oracle for the vectorized form."""
    floors = np.floor(values).astype(np.int64)
    floors = np.maximum(floors, 1)
    deficit = int(total - floors.sum())
    if deficit > 0:
        remainders = values - np.floor(values)
        order = np.argsort(-remainders)
        for i in range(deficit):
            floors[order[i % len(order)]] += 1
    elif deficit < 0:
        order = np.argsort(-floors)
        i = 0
        while deficit < 0:
            idx = order[i % len(order)]
            if floors[idx] > 1:
                floors[idx] -= 1
                deficit += 1
            i += 1
    return floors


class TestRounding:
    def test_sum_preserved(self):
        values = np.array([10.4, 20.7, 68.9])
        rounded = _round_preserving_sum(values, 100)
        assert rounded.sum() == 100
        assert (rounded >= 1).all()

    def test_sum_preserved_with_deficit(self):
        values = np.array([0.2, 0.3, 99.4])
        rounded = _round_preserving_sum(values, 100)
        assert rounded.sum() == 100
        assert (rounded >= 1).all()

    def test_sum_preserved_when_overshooting(self):
        values = np.array([50.9, 50.9])
        rounded = _round_preserving_sum(values, 100)
        assert rounded.sum() == 100

    def test_vectorized_rounding_matches_reference_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 24))
            values = rng.uniform(0.01, 60.0, size=n)
            # Totals both above and below the floored sum exercise the
            # surplus and deficit redistribution paths.
            total = max(n, int(rng.integers(n, 4 * n * 30)))
            np.testing.assert_array_equal(
                _round_preserving_sum(values.copy(), total),
                _reference_round_preserving_sum(values.copy(), total),
            )

    def test_deficit_larger_than_length_wraps_the_order(self):
        # deficit = 97 over 3 entries: every entry gains 32 and the largest
        # remainder gains one more, exactly like the cycling loop.
        values = np.array([1.9, 1.2, 0.5])
        rounded = _round_preserving_sum(values, 100)
        np.testing.assert_array_equal(
            rounded, _reference_round_preserving_sum(values, 100)
        )
        assert rounded.sum() == 100


class TestPolygonArea:
    def test_vectorized_area_matches_per_cell_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            n_cells = int(rng.integers(1, rows * cols + 1))
            cells = [
                (int(r), int(c))
                for r, c in zip(rng.integers(0, rows, n_cells), rng.integers(0, cols, n_cells))
            ]
            dx = rng.integers(1, 300, size=cols).astype(np.int64)
            dy = rng.integers(1, 300, size=rows).astype(np.int64)
            expected = float(sum(int(dx[c]) * int(dy[r]) for r, c in cells))
            assert polygon_area(cells, dx, dy) == expected

    def test_empty_cell_list_has_zero_area(self):
        assert polygon_area([], np.array([1, 2]), np.array([3, 4])) == 0.0


class TestSolveTopology:
    def test_two_shape_topology_is_solvable(self, rules, two_shape_topology):
        solution = solve_alone(two_shape_topology, rules, rng=0)
        assert solution.success
        assert solution.delta_x.sum() == rules.pattern_size
        assert solution.delta_y.sum() == rules.pattern_size

    def test_solution_satisfies_every_constraint(self, rules, two_shape_topology):
        solution = solve_alone(two_shape_topology, rules, rng=1)
        constraints = line_constraints(two_shape_topology, rules.width_min, rules.space_min)
        assert constraints.intervals and constraints.polygons
        for axis, start, end, minimum in constraints.intervals:
            delta = solution.delta_x if axis == "x" else solution.delta_y
            assert delta[start : end + 1].sum() >= minimum
        for cells in constraints.polygons:
            area = polygon_area(cells, solution.delta_x, solution.delta_y)
            assert rules.area_min <= area <= rules.area_max
        assert verify_integer_solution(constraints, rules, solution.delta_x, solution.delta_y)

    def test_empty_topology_trivially_solvable(self, rules):
        solution = solve_alone(np.zeros((8, 8), dtype=np.uint8), rules, rng=0)
        assert solution.success

    def test_full_topology_infeasible_under_small_area_max(self):
        rules = DesignRules(area_max=10_000)
        solution = solve_alone(np.ones((4, 4), dtype=np.uint8), rules, rng=0)
        assert not solution.success
        assert solution.delta_x is None

    def test_target_vector_length_validated(self, rules, two_shape_topology):
        with pytest.raises(ValueError, match="wrong length"):
            solve_alone(
                two_shape_topology, rules, rng=0, target_x=np.ones(3), target_y=np.ones(8)
            )

    def test_existing_target_accelerates_or_matches(self, rules, two_shape_topology):
        # Warm start from an already feasible geometry: uniform intervals.
        uniform = np.full(8, rules.pattern_size // 8, dtype=np.float64)
        warm = solve_alone(
            two_shape_topology, rules, rng=0, target_x=uniform, target_y=uniform
        )
        assert warm.success

    def test_different_seeds_give_different_geometries(self, rules, two_shape_topology):
        a = solve_alone(two_shape_topology, rules, rng=1)
        b = solve_alone(two_shape_topology, rules, rng=2)
        assert a.success and b.success
        assert not np.array_equal(a.delta_x, b.delta_x)


class TestLegalizer:
    def test_single_solution_mode(self, rules, two_shape_topology):
        (result,) = LegalizationEngine(rules).legalize_batch(
            [two_shape_topology], num_solutions=1, seed=0
        )
        assert result.solved
        assert len(result.patterns) == 1

    def test_multi_solution_mode_produces_distinct_patterns(self, rules, two_shape_topology):
        (result,) = LegalizationEngine(rules).legalize_batch(
            [two_shape_topology], num_solutions=4, seed=0
        )
        assert len(result.patterns) == 4
        signatures = {tuple(p.delta_x.tolist()) for p in result.patterns}
        assert len(signatures) > 1

    def test_all_solutions_are_drc_clean(self, rules, two_shape_topology):
        checker = DesignRuleChecker(rules)
        (result,) = LegalizationEngine(rules).legalize_batch(
            [two_shape_topology], num_solutions=3, seed=0
        )
        assert all(checker.is_legal(p) for p in result.patterns)

    def test_reference_geometries_are_used_when_shapes_match(self, rules, two_shape_topology):
        uniform = np.full(8, rules.pattern_size // 8, dtype=np.int64)
        engine = LegalizationEngine(rules, reference_geometries=[(uniform, uniform)])
        (result,) = engine.legalize_batch([two_shape_topology], num_solutions=1, seed=0)
        assert result.solved
        # The warm start pulls the solve towards the uniform pair instead of
        # a random target.
        (cold,) = LegalizationEngine(rules).legalize_batch(
            [two_shape_topology], num_solutions=1, seed=0
        )
        assert not np.array_equal(result.patterns[0].delta_x, cold.patterns[0].delta_x)

    def test_stats_accumulate(self, rules, two_shape_topology):
        engine = LegalizationEngine(rules)
        engine.legalize_batch([two_shape_topology, two_shape_topology], seed=0)
        assert engine.stats.attempted == 2
        assert engine.stats.solved == 2
        assert engine.stats.solutions == 2
        assert engine.stats.average_time_per_solution > 0
        assert engine.stats.success_rate == 1.0

    def test_unsolvable_topology_reported_not_raised(self):
        rules = DesignRules(area_max=10_000)
        engine = LegalizationEngine(rules)
        (result,) = engine.legalize_batch([np.ones((4, 4), dtype=np.uint8)], seed=0)
        assert not result.solved
        assert engine.stats.failed == 1

    def test_legal_patterns_flattens_batches(self, rules, two_shape_topology):
        engine = LegalizationEngine(rules)
        patterns = engine.legal_patterns([two_shape_topology] * 2, num_solutions=2, seed=0)
        assert len(patterns) == 4

    def test_solver_options_respected(self, rules, two_shape_topology, monkeypatch):
        # The solve's settings are module constants of repro.legalization.batched,
        # read at every solve.
        monkeypatch.setattr(batched, "MAX_ATTEMPTS", 1)
        monkeypatch.setattr(batched, "MAX_ITERATIONS", 50)
        engine = LegalizationEngine(rules, solver_mode="slsqp")
        (result,) = engine.legalize_batch([two_shape_topology], seed=0)
        assert result.solved
        assert result.solutions[0].attempts == 1
        assert 0 < result.solutions[0].iterations <= 50
        # An unsolvable topology gives up after the one attempt.
        tight = LegalizationEngine(DesignRules(area_max=10_000), solver_mode="slsqp")
        (failed,) = tight.legalize_batch([np.ones((4, 4), dtype=np.uint8)], seed=0)
        assert not failed.solved
        assert tight.stats.batched_tail_solves == 1
