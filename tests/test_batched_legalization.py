"""Chunk-invariance, timing and kernel tests for the chunk legalization solve.

Every legalization runs :func:`repro.legalization.solve_geometry_chunk`:
one vectorized repair sweep partitions the chunk into fast-path successes
and a residual tail, and the tail's SLSQP restart rounds share stacked
rounding + verification.  Its contract is that a topology's solutions do
not depend on the chunk around it: any chunk size, worker count and batch
composition gives the output of the serial per-topology loop (each
topology solved alone as a chunk of one on its own ``(seed, index)``
stream), in both ``auto`` and ``slsqp`` modes —
asserted element-wise here on adversarial batches (mixed shapes,
duplicates, unsolvable topologies, multi-solution runs, warm-start
references, restart-heavy rule sets).  ``tests/test_legalization_golden.py``
pins the outcomes themselves.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from legalization_helpers import legalize_alone, solve_alone

from repro.legalization import (
    BatchCompiledConstraints,
    DesignRules,
    LegalizationEngine,
    LegalizationStats,
    SolverOptions,
    clear_compilation_cache,
    compilation_cache_info,
    compiled_for_topology,
    default_workers,
    solve_geometry_chunk,
)
from repro.legalization import batched
from repro.legalization.batched import _project_axis_rows, _round_rows
from repro.serve.metrics import ServeMetrics
from repro.utils import child_rng


def _project_axis(target, lower, total):
    """Project one ``target`` onto ``{v >= lower, sum(v) = total}`` (or ``None``).

    The 1-D projection ``_project_axis_rows`` vectorizes, kept as its oracle.
    """
    slack = float(total) - lower.sum()
    if slack < 0:
        return None
    t = np.maximum(np.asarray(target, dtype=np.float64), 1e-9)
    scaled = t * (float(total) / t.sum())
    lifted = np.maximum(scaled, lower)
    free = lifted - lower
    free_sum = free.sum()
    if free_sum <= 0.0:
        return lower.copy() if slack == 0.0 else None
    return lower + free * (slack / free_sum)


def _blocky(rows, cols, blocks):
    grid = np.zeros((rows, cols), dtype=np.uint8)
    for r0, r1, c0, c1 in blocks:
        grid[r0:r1, c0:c1] = 1
    return grid


@pytest.fixture(scope="module")
def adversarial_batch(two_shape_topology):
    """Mixed shapes, duplicates, and an unsolvable all-ones topology.

    The all-ones grid is a single polygon covering the whole window, whose
    area (``pattern_size**2``) exceeds ``area_max`` under the default rules
    — every solver path must fail it, exercising the failure bookkeeping.
    """
    other = _blocky(8, 8, [(2, 5, 3, 6)])
    tall = _blocky(10, 6, [(2, 5, 1, 4)])
    wide = _blocky(8, 8, [(1, 3, 1, 7)])
    unsolvable = np.ones((4, 4), dtype=np.uint8)
    return [two_shape_topology, other, unsolvable, tall, two_shape_topology, other, wide]


def full_signatures(results):
    """Element-wise outcome of a legalisation run, timing excluded."""
    out = []
    for result in results:
        solutions = tuple(
            (
                s.success,
                s.attempts,
                s.iterations,
                s.method,
                s.message,
                s.objective,
                tuple(s.delta_x.tolist()),
                tuple(s.delta_y.tolist()),
            )
            for s in result.solutions
        )
        patterns = tuple(
            (tuple(p.delta_x.tolist()), tuple(p.delta_y.tolist()))
            for p in result.patterns
        )
        out.append((solutions, patterns))
    return out


def run_engine(
    rules,
    batch,
    *,
    mode="auto",
    num_solutions=1,
    workers=1,
    chunk=None,
    refs=None,
    seed=7,
):
    engine = LegalizationEngine(
        rules,
        reference_geometries=refs,
        options=SolverOptions(solver_mode=mode),
        workers=workers,
        chunk_size=chunk,
    )
    return engine.legalize_batch(batch, num_solutions=num_solutions, seed=seed)


def run_serial(rules, batch, *, mode="auto", num_solutions=1, refs=None, seed=7):
    """The per-topology loop: each topology alone on its ``(seed, index)`` stream."""
    return legalize_alone(
        batch, rules, seed, num_solutions, SolverOptions(solver_mode=mode), refs
    )


# --------------------------------------------------------------------------- #
# chunk invariance: any chunking vs the per-topology loop
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["auto", "slsqp"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_any_chunk_size_matches_serial(self, rules, adversarial_batch, mode, chunk):
        serial = run_serial(rules, adversarial_batch, mode=mode)
        chunked = run_engine(rules, adversarial_batch, mode=mode, chunk=chunk)
        assert full_signatures(chunked) == full_signatures(serial)

    @pytest.mark.parametrize("mode", ["auto", "slsqp"])
    def test_two_workers_match_serial(self, rules, adversarial_batch, mode):
        serial = run_serial(rules, adversarial_batch, mode=mode)
        chunked = run_engine(rules, adversarial_batch, mode=mode, workers=2, chunk=2)
        assert full_signatures(chunked) == full_signatures(serial)

    @pytest.mark.parametrize("mode", ["auto", "slsqp"])
    def test_multi_solution_diffpattern_l(self, rules, adversarial_batch, mode):
        serial = run_serial(rules, adversarial_batch, mode=mode, num_solutions=3)
        chunked = run_engine(
            rules, adversarial_batch, mode=mode, num_solutions=3, chunk=3
        )
        assert full_signatures(chunked) == full_signatures(serial)

    def test_warm_start_references(self, rules, adversarial_batch):
        rng = np.random.default_rng(5)
        refs = [
            (
                rng.dirichlet(np.full(8, 2.0)) * rules.pattern_size,
                rng.dirichlet(np.full(8, 2.0)) * rules.pattern_size,
            )
            for _ in range(3)
        ]
        serial = run_serial(rules, adversarial_batch, refs=refs, num_solutions=2)
        chunked = run_engine(
            rules, adversarial_batch, refs=refs, num_solutions=2, chunk=3
        )
        assert full_signatures(chunked) == full_signatures(serial)

    @pytest.mark.parametrize("mode", ["auto", "slsqp"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_restart_heavy_tail(self, mode, seed):
        # A tight area window the repair projection cannot satisfy: every
        # solvable topology goes through the SLSQP tail, and restart rounds
        # (fresh per-index target draws) fire for the hard cases.
        rules = DesignRules(area_min=3_000, area_max=9_000, pattern_size=2_048)
        hard = _blocky(8, 8, [(3, 5, 3, 5)])
        bigger = _blocky(8, 8, [(2, 6, 2, 6)])
        batch = [hard, bigger, hard, np.ones((4, 4), dtype=np.uint8)]
        serial = run_serial(rules, batch, mode=mode, seed=seed)
        chunked = run_engine(rules, batch, mode=mode, seed=seed)
        assert full_signatures(chunked) == full_signatures(serial)

    def test_tail_actually_fires(self):
        rules = DesignRules(area_min=3_000, area_max=9_000, pattern_size=2_048)
        batch = [_blocky(8, 8, [(3, 5, 3, 5)])] * 3
        engine = LegalizationEngine(rules, options=SolverOptions(solver_mode="auto"))
        engine.legalize_batch(batch, seed=0)
        assert engine.stats.batched_sweeps > 0
        assert engine.stats.batched_tail_solves > 0

    def test_empty_batch(self, rules):
        engine = LegalizationEngine(rules)
        assert engine.legalize_batch([]) == []
        outcome = solve_geometry_chunk([], rules, [])
        assert outcome.solutions == [] and outcome.sweeps == 0


# --------------------------------------------------------------------------- #
# vectorized kernels: stack invariance and scalar oracles
# --------------------------------------------------------------------------- #
class TestRoundingKernel:
    def test_matches_scalar_oracle(self):
        # Every row of a stack rounds exactly as it would alone (a one-row
        # stack), which is what makes the chunk solve chunk-invariant.
        rng = np.random.default_rng(42)
        total = 2048
        for n in (3, 8, 16):
            rows = [rng.dirichlet(np.full(n, 2.0)) * total for _ in range(40)]
            # Adversarial ties: equal entries everywhere, and .5 remainders.
            rows.append(np.full(n, total / n))
            rows.append(np.floor(rng.dirichlet(np.full(n, 2.0)) * total) + 0.5)
            stacked = np.stack(rows)
            rounded = _round_rows(stacked, total)
            for got, values in zip(rounded, stacked):
                np.testing.assert_array_equal(got, _round_rows(values[None, :], total)[0])
            assert (rounded.sum(axis=1) == total).all()
            assert (rounded >= 1).all()

    def test_negative_deficit_rows_match_oracle(self):
        total = 100
        stacked = np.stack(
            [
                np.array([60.9, 55.2, 40.7, 3.1]),   # floors overshoot the sum
                np.array([20.2, 30.3, 25.4, 24.5]),  # ordinary positive deficit
                np.array([25.0, 25.0, 25.0, 25.0]),  # zero deficit
            ]
        )
        rounded = _round_rows(stacked, total)
        # Floors [60, 55, 40, 3] overshoot by 58: two full give-back cycles
        # bring the last entry to the floor of 1, sixteen more cycles over
        # the other three and a partial one over the two largest finish it.
        np.testing.assert_array_equal(rounded[0], [41, 36, 22, 1])
        np.testing.assert_array_equal(rounded[1], [20, 30, 25, 25])
        np.testing.assert_array_equal(rounded[2], [25, 25, 25, 25])
        for got, values in zip(rounded, stacked):
            np.testing.assert_array_equal(got, _round_rows(values[None, :], total)[0])
        assert (rounded.sum(axis=1) == total).all()

    def test_give_back_stops_at_the_floor(self):
        # Every entry already sits at 1 and the floors still overshoot: the
        # row keeps its overshoot (and fails verification downstream).
        np.testing.assert_array_equal(
            _round_rows(np.array([[0.5, 0.2, 0.9]]), 2), [[1, 1, 1]]
        )

    def test_empty_input(self):
        assert _round_rows(np.empty((0, 5)), 100).shape == (0, 5)


class TestProjectionKernel:
    def test_matches_scalar_oracle(self, rules, two_shape_topology):
        compiled = compiled_for_topology(two_shape_topology, rules)
        lb_x, _ = compiled.repair_lower_bounds(4.0)
        total = rules.pattern_size
        rng = np.random.default_rng(3)
        rows = [rng.dirichlet(np.full(lb_x.size, 2.0)) * total for _ in range(20)]
        values, feasible = _project_axis_rows(
            np.stack(rows), np.stack([lb_x] * len(rows)), total
        )
        for i, target in enumerate(rows):
            expected = _project_axis(target, lb_x, total)
            assert feasible[i] == (expected is not None)
            if expected is not None:
                np.testing.assert_array_equal(values[i], expected)

    def test_infeasible_and_on_bound_rows(self):
        total = 100
        lower_infeasible = np.full(4, 30.0)  # bounds alone exceed the window
        lower_tight = np.full(4, 25.0)       # bounds consume it exactly
        targets = np.stack([np.full(4, 25.0), np.full(4, 25.0)])
        lowers = np.stack([lower_infeasible, lower_tight])
        values, feasible = _project_axis_rows(targets, lowers, total)
        assert not feasible[0]
        assert feasible[1]
        assert _project_axis(targets[0], lower_infeasible, total) is None
        np.testing.assert_array_equal(
            values[1], _project_axis(targets[1], lower_tight, total)
        )


class TestBatchVerify:
    def test_matches_per_topology_verify(self, rules, adversarial_batch):
        compiled = [compiled_for_topology(t, rules) for t in adversarial_batch]
        batch = BatchCompiledConstraints(compiled)
        pairs = {}
        for i, c in enumerate(compiled):
            dx = np.full(c.cols, rules.pattern_size // c.cols, dtype=np.int64)
            dx[0] += rules.pattern_size - dx.sum()
            dy = np.full(c.rows, rules.pattern_size // c.rows, dtype=np.int64)
            dy[0] += rules.pattern_size - dy.sum()
            if i % 3 == 1:
                dx[0] -= 17  # break the window-sum equality
            if i % 3 == 2:
                dx[-1] = -5  # break positivity
            pairs[i] = (dx, dy)
        verified = batch.verify_pairs(pairs)
        for i, c in enumerate(compiled):
            assert bool(verified[i]) == c.verify_integer(*pairs[i])

    def test_subset_and_empty(self, rules, adversarial_batch):
        compiled = [compiled_for_topology(t, rules) for t in adversarial_batch]
        batch = BatchCompiledConstraints(compiled)
        assert not batch.verify_pairs({}).any()
        c = compiled[0]
        dx = np.full(c.cols, rules.pattern_size // c.cols, dtype=np.int64)
        dx[0] += rules.pattern_size - dx.sum()
        dy = np.full(c.rows, rules.pattern_size // c.rows, dtype=np.int64)
        dy[0] += rules.pattern_size - dy.sum()
        verified = batch.verify_pairs({0: (dx, dy)})
        assert bool(verified[0]) == c.verify_integer(dx, dy)
        assert not verified[1:].any()

    def test_rejects_mixed_rules(self, rules, two_shape_topology):
        a = compiled_for_topology(two_shape_topology, rules)
        b = compiled_for_topology(two_shape_topology, rules.with_space_min(96))
        with pytest.raises(ValueError):
            BatchCompiledConstraints([a, b])


# --------------------------------------------------------------------------- #
# stats counters and report surfacing
# --------------------------------------------------------------------------- #
class TestStatsAndCounters:
    def test_auto_mode_counters(self, rules, adversarial_batch):
        engine = LegalizationEngine(
            rules, options=SolverOptions(solver_mode="auto"), chunk_size=3
        )
        _, report = engine.legalize_batch_with_report(
            adversarial_batch, num_solutions=2, seed=0
        )
        # One sweep per chunk per solution round, covering every topology.
        assert report.stats.batched_sweeps == report.num_chunks * 2
        assert report.stats.batched_sweep_topologies == len(adversarial_batch) * 2
        assert report.stats.fast_path_solutions > 0
        assert report.stats.batched_sweep_mean_size == pytest.approx(
            len(adversarial_batch) / report.num_chunks
        )
        assert "batched" in report.format()

    def test_slsqp_mode_has_no_sweeps(self, rules, adversarial_batch):
        engine = LegalizationEngine(rules, options=SolverOptions(solver_mode="slsqp"))
        engine.legalize_batch(adversarial_batch, seed=0)
        assert engine.stats.batched_sweeps == 0
        assert engine.stats.batched_tail_solves >= len(adversarial_batch)

    def test_merge_folds_batched_counters(self):
        a = LegalizationStats(
            batched_sweeps=1, batched_sweep_topologies=4, batched_tail_solves=2
        )
        b = LegalizationStats(
            batched_sweeps=2, batched_sweep_topologies=6, batched_tail_solves=1
        )
        a.merge(b)
        assert a.batched_sweeps == 3
        assert a.batched_sweep_topologies == 10
        assert a.batched_tail_solves == 3
        assert a.batched_sweep_mean_size == pytest.approx(10 / 3)


# --------------------------------------------------------------------------- #
# satellites: env overrides, cache capacity, serve metrics, knob routing
# --------------------------------------------------------------------------- #
class TestWorkersEnvOverride:
    def test_env_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5

    def test_without_env_uses_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert 1 <= default_workers() <= 8

    @pytest.mark.parametrize("bad", ["zero", "0", "-2"])
    def test_invalid_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError):
            default_workers()


class TestCompileCacheCapacity:
    def test_capacity_evicts_lru(self, rules):
        clear_compilation_cache()
        try:
            capacity = compilation_cache_info()["capacity"]
            assert capacity == 32
            grids = [
                _blocky(8, 8, [(row, row + 1, col, col + 1)])
                for row in range(1, 7)
                for col in range(1, 7)
            ][: capacity + 2]
            for grid in grids:
                compiled_for_topology(grid, rules)
            info = compilation_cache_info()
            assert (info["size"], info["misses"]) == (capacity, capacity + 2)
            compiled_for_topology(grids[-1], rules)  # newest: still cached
            compiled_for_topology(grids[0], rules)  # oldest: evicted
            info = compilation_cache_info()
            assert (info["hits"], info["misses"]) == (1, capacity + 3)
        finally:
            clear_compilation_cache()


class TestServeMetricsLegalization:
    def test_record_and_snapshot(self):
        metrics = ServeMetrics()
        stats = LegalizationStats(
            attempted=4,
            solved=3,
            failed=1,
            solutions=5,
            fast_path_solutions=4,
            batched_sweeps=2,
            batched_sweep_topologies=8,
            batched_tail_solves=3,
        )
        metrics.record_legalization(stats)
        metrics.record_legalization(stats)
        snapshot = metrics.snapshot()
        assert snapshot["legalize_attempted"] == 8
        assert snapshot["legalize_solved"] == 6
        assert snapshot["legalize_solutions"] == 10
        assert snapshot["legalize_fast_path_fraction"] == pytest.approx(0.8)
        assert snapshot["legalize_batched_sweeps"] == 4
        assert snapshot["legalize_batched_sweep_size_mean"] == pytest.approx(4.0)
        assert snapshot["legalize_batched_tail_solves"] == 6
        assert set(snapshot["compile_cache"]) == {"hits", "misses", "size", "capacity"}

    def test_empty_snapshot_has_legalization_keys(self):
        snapshot = ServeMetrics().snapshot()
        assert snapshot["legalize_attempted"] == 0
        assert snapshot["legalize_fast_path_fraction"] == 0.0
        assert snapshot["legalize_batched_sweep_size_mean"] == 0.0


# --------------------------------------------------------------------------- #
# time attribution: the solutions of one call add up to its wall time
# --------------------------------------------------------------------------- #
class _TickClock:
    """A stand-in ``perf_counter`` that advances one second per read."""

    def __init__(self):
        self.reads = []

    def read(self):
        self.reads.append(float(len(self.reads)))
        return self.reads[-1]

    @property
    def span(self):
        return self.reads[-1] - self.reads[0]


class TestSolveTiming:
    @pytest.fixture
    def clock(self, monkeypatch):
        clock = _TickClock()
        monkeypatch.setattr(batched, "time", SimpleNamespace(perf_counter=clock.read))
        return clock

    @pytest.mark.parametrize("mode", ["auto", "slsqp"])
    def test_chunk_solutions_add_up_to_the_call(self, rules, adversarial_batch, clock, mode):
        compiled = [compiled_for_topology(t, rules) for t in adversarial_batch]
        rngs = [child_rng(7, i) for i in range(len(compiled))]
        outcome = solve_geometry_chunk(
            compiled, rules, rngs, SolverOptions(solver_mode=mode), num_solutions=2
        )
        elapsed = [s.elapsed_seconds for slots in outcome.solutions for s in slots]
        assert len(elapsed) == 2 * len(compiled)
        assert all(seconds > 0.0 for seconds in elapsed)
        assert sum(elapsed) == pytest.approx(clock.span, rel=1e-12)

    @pytest.mark.parametrize("mode", ["auto", "slsqp"])
    def test_single_solve_reports_the_whole_call(self, rules, two_shape_topology, clock, mode):
        compiled = compiled_for_topology(two_shape_topology, rules)
        solution = solve_alone(compiled, rules, rng=0, options=SolverOptions(solver_mode=mode))
        assert solution.success
        assert solution.elapsed_seconds == clock.span

    def test_tail_topology_keeps_its_own_solver_time(self, clock):
        # A tight area window sends every topology to the SLSQP tail; the
        # unsolvable one runs all four attempts, so it carries the most time.
        rules = DesignRules(area_min=3_000, area_max=9_000, pattern_size=2_048)
        batch = [_blocky(8, 8, [(3, 5, 3, 5)]), np.ones((4, 4), dtype=np.uint8)]
        compiled = [compiled_for_topology(t, rules) for t in batch]
        outcome = solve_geometry_chunk(
            compiled, rules, [child_rng(0, i) for i in range(2)], SolverOptions()
        )
        (solved,), (failed,) = outcome.solutions
        assert not failed.success and failed.attempts == 4
        assert failed.elapsed_seconds > solved.elapsed_seconds
        assert solved.elapsed_seconds + failed.elapsed_seconds == pytest.approx(clock.span)
