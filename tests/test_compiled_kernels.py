"""Parity and correctness suite for the compiled constraint kernels.

``CompiledConstraints`` reads its interval and polygon arrays off the grid
with the ``repro.geometry`` run-length and labelling kernels; on random
grids they must equal the line-by-line oracle's constraint sets
(``legalization_helpers.line_constraints``), which shares none of that
code.  On top of that, three contracts are asserted here:

1. the compiled ``fun``/``jac`` kernels match the historical per-constraint
   lambda formulation **bit for bit** at arbitrary evaluation points,
2. ``solver_mode="slsqp"`` reproduces the historical solver's output
   bit-identically (a faithful re-implementation of the pre-kernel solver
   lives in this file as the reference, over the constraint sets of the
   line-by-line oracle in ``legalization_helpers``), and
3. ``solver_mode="auto"`` always returns solutions that pass the exact
   integer verification *and* the DRC, deterministically per seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from legalization_helpers import (
    compiled_lines,
    line_constraints,
    polygon_area,
    solve_alone,
    verify_integer_solution,
)
from scipy import optimize

from repro.data import SyntheticLayoutGenerator
from repro.drc import DesignRuleChecker
from repro.legalization import (
    BatchCompiledConstraints,
    CompiledConstraints,
    DesignRules,
    compiled_for_topology,
)
from repro.legalization import batched
from repro.legalization.batched import _round_rows
from repro.legalization.compiled import (
    clear_compilation_cache,
    compilation_cache_info,
)
from repro.utils import as_rng


@pytest.fixture(scope="module")
def rules():
    return DesignRules()


@pytest.fixture(scope="module")
def random_topologies():
    """A spread of realistic squish topologies (varied shapes and densities)."""
    patterns = SyntheticLayoutGenerator().generate_library(24, rng=99)
    return [p.topology for p in patterns]


# --------------------------------------------------------------------------- #
# the historical (pre-kernel) formulation, kept as the parity reference
# --------------------------------------------------------------------------- #
def _round_preserving_sum(values, total):
    """Largest-remainder rounding of one vector (a one-row ``_round_rows``)."""
    return _round_rows(np.asarray(values, dtype=np.float64)[None, :], total)[0]


def _oracle(topology, rules):
    return line_constraints(topology, rules.width_min, rules.space_min)


def legacy_constraint_dicts(constraints, rules):
    """The per-constraint lambda list the seed solver handed to SLSQP."""
    rows, cols = constraints.shape
    total = float(rules.pattern_size)
    n_vars = cols + rows
    cons = []
    sum_x_jac = np.concatenate([np.ones(cols), np.zeros(rows)])
    sum_y_jac = np.concatenate([np.zeros(cols), np.ones(rows)])
    cons.append({"type": "eq", "fun": lambda v: v[:cols].sum() - total, "jac": lambda v: sum_x_jac})
    cons.append({"type": "eq", "fun": lambda v: v[cols:].sum() - total, "jac": lambda v: sum_y_jac})
    for axis, start, end, minimum in constraints.intervals:
        jac = np.zeros(n_vars)
        idx = np.arange(start, end + 1) + (0 if axis == "x" else cols)
        jac[idx] = 1.0
        minimum = minimum + batched.MARGIN

        def fun(v, idx=idx, minimum=minimum):
            return float(v[idx].sum() - minimum)

        cons.append({"type": "ineq", "fun": fun, "jac": lambda v, jac=jac: jac})
    area_margin = 2.0 * total + rows * cols
    if rules.area_max - rules.area_min <= 2.0 * area_margin:
        area_margin = max(0.0, (rules.area_max - rules.area_min) / 4.0)
    for cells in constraints.polygons:
        rows_idx = np.asarray([r for r, _ in cells])
        cols_idx = np.asarray([c for _, c in cells])

        def area_fun(v, rows_idx=rows_idx, cols_idx=cols_idx):
            return float((v[cols_idx] * v[cols + rows_idx]).sum())

        def area_jac(v, rows_idx=rows_idx, cols_idx=cols_idx):
            grad = np.zeros(n_vars)
            np.add.at(grad, cols_idx, v[cols + rows_idx])
            np.add.at(grad, cols + rows_idx, v[cols_idx])
            return grad

        cons.append(
            {
                "type": "ineq",
                "fun": lambda v, f=area_fun: f(v) - (rules.area_min + area_margin),
                "jac": lambda v, j=area_jac: j(v),
            }
        )
        cons.append(
            {
                "type": "ineq",
                "fun": lambda v, f=area_fun: (rules.area_max - area_margin) - f(v),
                "jac": lambda v, j=area_jac: -j(v),
            }
        )
    return cons


def legacy_solve_geometry(constraints, rules, rng=None):
    """Faithful re-implementation of the pre-kernel single-topology solve."""
    gen = as_rng(rng)
    rows, cols = constraints.shape
    total = rules.pattern_size
    n_vars = cols + rows
    attempts = 0
    total_iterations = 0
    while attempts < batched.MAX_ATTEMPTS:
        attempts += 1
        tx = gen.dirichlet(np.full(cols, 2.0)) * float(total)
        ty = gen.dirichlet(np.full(rows, 2.0)) * float(total)
        target = np.concatenate([tx, ty])
        scale = 1.0 / float(total)

        def objective(v):
            diff = v - target
            return float(diff @ diff) * scale

        def objective_grad(v):
            return 2.0 * (v - target) * scale

        cons = legacy_constraint_dicts(constraints, rules)
        x0 = np.empty(n_vars)
        x0[:cols] = float(total) / cols
        x0[cols:] = float(total) / rows
        result = optimize.minimize(
            objective,
            x0,
            jac=objective_grad,
            bounds=[(batched.LOWER_BOUND, float(total))] * n_vars,
            constraints=cons,
            method="SLSQP",
            options={"maxiter": batched.MAX_ITERATIONS, "ftol": batched.TOLERANCE},
        )
        total_iterations += int(result.nit)
        if result.success:
            dx = _round_preserving_sum(result.x[:cols], total)
            dy = _round_preserving_sum(result.x[cols:], total)
            if verify_integer_solution(constraints, rules, dx, dy):
                return True, dx, dy, total_iterations, attempts
    return False, None, None, total_iterations, attempts


def evaluate_dicts(cons, v):
    """Concatenated (eq, ineq) values and jacobian rows, dict order —
    exactly the arrays scipy's SLSQP assembles internally."""
    eq, ineq, eq_jac, ineq_jac = [], [], [], []
    for con in cons:
        values = np.atleast_1d(con["fun"](v)).ravel()
        jac = np.atleast_2d(con["jac"](v))
        (eq if con["type"] == "eq" else ineq).append(values)
        (eq_jac if con["type"] == "eq" else ineq_jac).append(jac)
    return (
        np.concatenate(eq) if eq else np.empty(0),
        np.concatenate(ineq) if ineq else np.empty(0),
        np.vstack(eq_jac) if eq_jac else np.empty((0, v.size)),
        np.vstack(ineq_jac) if ineq_jac else np.empty((0, v.size)),
    )


# --------------------------------------------------------------------------- #
# 0. the compiled arrays against the line-by-line oracle
# --------------------------------------------------------------------------- #
class TestOracleParity:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    @given(
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.integers(0, 1),
        ),
        st.integers(1, 200),
        st.integers(1, 200),
    )
    def test_interval_and_polygon_arrays_match_oracle(self, grid, width_min, space_min):
        rules = DesignRules(width_min=width_min, space_min=space_min)
        compiled = CompiledConstraints(grid, rules)
        # Start, length, minimum and order of every interval; cells and
        # order of every polygon.
        oracle = line_constraints(grid, width_min, space_min)
        assert compiled_lines(compiled) == oracle
        # The jacobian rows cover the same segments.
        rows, cols = np.nonzero(compiled.interval_jacobian)
        covered = [
            (i, c if axis == "x" else c + compiled.cols)
            for i, (axis, start, end, _) in enumerate(oracle.intervals)
            for c in range(start, end + 1)
        ]
        assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(covered)

    def test_oracle_matches_on_realistic_topologies(self, rules, random_topologies):
        for topology in random_topologies:
            assert compiled_lines(CompiledConstraints(topology, rules)) == _oracle(
                topology, rules
            )


# --------------------------------------------------------------------------- #
# 1. kernel evaluation parity
# --------------------------------------------------------------------------- #
class TestKernelParity:
    def test_fun_and_jac_bit_identical_to_lambda_formulation(self, rules, random_topologies):
        rng = np.random.default_rng(3)
        for topology in random_topologies:
            compiled = CompiledConstraints(topology, rules)
            legacy = legacy_constraint_dicts(_oracle(topology, rules), rules)
            new = compiled.slsqp_constraints()
            for _ in range(3):
                v = rng.uniform(1.0, rules.pattern_size / 2, size=compiled.n_vars)
                for a, b in zip(evaluate_dicts(legacy, v), evaluate_dicts(new, v)):
                    np.testing.assert_array_equal(a, b)

    def test_interval_values_match_slice_sums(self, rules, random_topologies):
        rng = np.random.default_rng(4)
        topology = random_topologies[0]
        compiled = CompiledConstraints(topology, rules)
        cols = compiled.cols
        v = rng.uniform(0.5, 300.0, size=compiled.n_vars)
        values = compiled.interval_values(v)
        intervals = _oracle(topology, rules).intervals
        assert values.size == len(intervals)
        for i, (axis, start, end, _) in enumerate(intervals):
            idx = np.arange(start, end + 1) + (0 if axis == "x" else cols)
            assert values[i] == v[idx].sum()

    def test_polygon_areas_match_polygon_area(self, rules, random_topologies):
        rng = np.random.default_rng(5)
        for topology in random_topologies[:6]:
            compiled = CompiledConstraints(topology, rules)
            cols = compiled.cols
            v = rng.uniform(0.5, 300.0, size=compiled.n_vars)
            areas = compiled.polygon_areas(v)
            polygons = _oracle(topology, rules).polygons
            assert areas.size == len(polygons)
            for i, cells in enumerate(polygons):
                assert areas[i] == polygon_area(cells, v[:cols], v[cols:])

    def test_verify_integer_matches_reference_verifier(self, rules, random_topologies):
        # The exact integer check is the stacked pass the repair sweep and
        # the SLSQP tail share; on a chunk of one it must agree with the
        # per-constraint oracle.
        rng = np.random.default_rng(6)
        for topology in random_topologies[:8]:
            compiled = compiled_for_topology(topology, rules)
            batch = BatchCompiledConstraints([compiled])
            oracle = _oracle(topology, rules)
            rows, cols = compiled.shape
            for _ in range(4):
                # A mix of legal-ish and clearly illegal integer vectors.
                dx = rng.integers(1, 2 * rules.pattern_size // cols, size=cols)
                dx = _round_preserving_sum(dx.astype(float), rules.pattern_size)
                dy = rng.integers(1, 2 * rules.pattern_size // rows, size=rows)
                dy = _round_preserving_sum(dy.astype(float), rules.pattern_size)
                (verified,) = batch._verify_stacked(np.concatenate([dx, dy]), np.ones(1, bool))
                assert verified == verify_integer_solution(oracle, rules, dx, dy)


# --------------------------------------------------------------------------- #
# 2. solver_mode="slsqp" bit-identity
# --------------------------------------------------------------------------- #
class TestSlsqpBitIdentity:
    def test_solutions_bit_identical_to_legacy_solver(self, rules, random_topologies):
        for seed, topology in enumerate(random_topologies):
            ok, dx, dy, iterations, attempts = legacy_solve_geometry(
                _oracle(topology, rules), rules, rng=seed
            )
            solution = solve_alone(
                CompiledConstraints(topology, rules), rules, rng=seed, solver_mode="slsqp"
            )
            assert solution.success == ok
            assert solution.iterations == iterations
            assert solution.attempts == attempts
            if ok:
                np.testing.assert_array_equal(solution.delta_x, dx)
                np.testing.assert_array_equal(solution.delta_y, dy)

    def test_slsqp_mode_never_uses_fast_path(self, rules, two_shape_topology):
        solution = solve_alone(two_shape_topology, rules, rng=0, solver_mode="slsqp")
        assert solution.success
        assert solution.method == "slsqp"
        assert solution.iterations > 0


# --------------------------------------------------------------------------- #
# 3. solver_mode="auto" correctness
# --------------------------------------------------------------------------- #
class TestAutoMode:
    def test_outputs_verify_and_pass_drc(self, rules, random_topologies):
        checker = DesignRuleChecker(rules)
        fast = 0
        for seed, topology in enumerate(random_topologies):
            solution = solve_alone(topology, rules, rng=seed, solver_mode="auto")
            assert solution.success
            assert verify_integer_solution(
                _oracle(topology, rules), rules, solution.delta_x, solution.delta_y
            )
            from repro.squish import SquishPattern

            pattern = SquishPattern(
                topology.astype(np.uint8), solution.delta_x, solution.delta_y
            )
            assert checker.is_legal(pattern)
            fast += solution.method == "repair"
        # The fast path must actually fire on this workload, not just fall
        # back to SLSQP everywhere.
        assert fast > len(random_topologies) // 2

    def test_deterministic_per_seed(self, rules, random_topologies):
        topology = random_topologies[0]
        a = solve_alone(topology, rules, rng=123, solver_mode="auto")
        b = solve_alone(topology, rules, rng=123, solver_mode="auto")
        np.testing.assert_array_equal(a.delta_x, b.delta_x)
        np.testing.assert_array_equal(a.delta_y, b.delta_y)
        assert a.method == b.method

    def test_distinct_seeds_give_distinct_geometries(self, rules, two_shape_topology):
        a = solve_alone(two_shape_topology, rules, rng=1, solver_mode="auto")
        b = solve_alone(two_shape_topology, rules, rng=2, solver_mode="auto")
        assert a.success and b.success
        assert not np.array_equal(a.delta_x, b.delta_x)

    def test_fast_path_solution_reports_repair_metadata(self, two_shape_topology):
        # A generous area window so the projection verifies outright (the
        # dense 8x8 fixture sits near the default area_max, where repair
        # legitimately falls back for many targets).
        wide_rules = DesignRules(area_max=1_200_000)
        solution = solve_alone(two_shape_topology, wide_rules, rng=0, solver_mode="auto")
        assert solution.success
        assert solution.method == "repair"
        assert solution.iterations == 0
        assert solution.message == "repaired"

    def test_falls_back_to_slsqp_when_projection_cannot_verify(self):
        # A tight area window the proportional projection overshoots: the
        # exact verifier rejects the repaired vectors and the full solve runs.
        rules = DesignRules(area_min=3_000, area_max=9_000, pattern_size=2_048)
        topology = np.zeros((8, 8), dtype=np.uint8)
        topology[3:5, 3:5] = 1
        auto = solve_alone(topology, rules, rng=0, solver_mode="auto")
        pinned = solve_alone(topology, rules, rng=0, solver_mode="slsqp")
        assert auto.method == "slsqp"
        assert auto.success == pinned.success
        if auto.success:
            np.testing.assert_array_equal(auto.delta_x, pinned.delta_x)

    def test_infeasible_topology_still_fails_cleanly(self):
        rules = DesignRules(area_max=10_000)
        solution = solve_alone(
            np.ones((4, 4), dtype=np.uint8), rules, rng=0, solver_mode="auto"
        )
        assert not solution.success
        assert solution.delta_x is None

    def test_unknown_mode_rejected(self, rules, two_shape_topology):
        with pytest.raises(ValueError, match="solver_mode"):
            solve_alone(two_shape_topology, rules, rng=0, solver_mode="newton")


# --------------------------------------------------------------------------- #
# compilation cache
# --------------------------------------------------------------------------- #
class TestCompilationCache:
    def test_repeated_topologies_hit_the_cache(self, rules, two_shape_topology):
        clear_compilation_cache()
        first = compiled_for_topology(two_shape_topology, rules)
        second = compiled_for_topology(np.array(two_shape_topology), rules)
        assert second is first
        info = compilation_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_different_rules_compile_separately(self, rules, two_shape_topology):
        clear_compilation_cache()
        a = compiled_for_topology(two_shape_topology, rules)
        b = compiled_for_topology(two_shape_topology, rules.with_space_min(96))
        assert a is not b

    def test_cache_rejects_invalid_grids(self, rules):
        with pytest.raises(ValueError):
            compiled_for_topology(np.array([[0, 2], [1, 0]]), rules)
