"""Chunk legalization — one whole-chunk solve vs chunks of one topology.

The legalization engine solves an entire chunk at once: one vectorized
repair sweep over the stacked per-topology systems partitions the chunk into
fast-path successes and a residual tail, and the tail's SLSQP restart rounds
round and verify their solutions with the sweep's own stacked pass over the
block-diagonal system.  One topology is a chunk of one (K=1), which is the
serial reference here: the engine at ``chunk_size=1`` and per-topology
``solve_geometry_chunk`` calls.  A topology's output does not depend on its chunk,
so chunking is a pure throughput choice, never a numerics change.

The workload is the fast-path regime: dataset topologies filtered to a
fixed point where the seeded run legalises every solution via the repair
sweep.  That is the regime whole chunks accelerate — the scipy tail and the
per-index RNG draws are per topology at any chunk size by the determinism
contract (see ``repro/legalization/batched.py``), so a tail-heavy workload
measures scipy, not the sweep.  Both sides run in-process (``workers=1``)
so the comparison is solver work, not pool scaling.

Gated claims (``check_regression.py`` against ``baselines.json``; the
``batched`` / ``serial`` metric names mean whole chunk / chunks of one):

* whole-chunk output is element-wise identical to chunks of one
  (``exact`` gate),
* the engine-level whole-chunk legalization clears >= 2x the
  topologies/second of chunks of one, with the solver-level (no result
  assembly) ratio gated alongside, and its absolute topologies/second
  stays within the throughput band of the committed baseline,
* the run is 100% fast path and every fast-path pattern is DRC-clean.
"""

from __future__ import annotations

import time

from _bench_utils import FAST_MODE, write_metrics, write_result

from repro.drc import DesignRuleChecker
from repro.legalization import (
    LegalizationEngine,
    clear_compilation_cache,
    compilation_cache_info,
    compiled_for_topology,
    solve_geometry_chunk,
)
from repro.utils import child_rng

if FAST_MODE:
    BATCH_TOPOLOGIES = 192
    BATCH_SOLUTIONS = 2
else:
    BATCH_TOPOLOGIES = 384
    BATCH_SOLUTIONS = 4

#: Fixed-point iterations for the fast-path workload filter; the filter
#: always converges in a few rounds (each round only removes matrices).
MAX_FILTER_ROUNDS = 8


def _cycle(pool, count):
    return [pool[i % len(pool)] for i in range(count)]


def _fast_path_pool(matrices, rules):
    """Filter the dataset matrices to a 100% fast-path workload.

    Repeatedly runs the seeded chunk solve and drops every matrix that
    produced a non-repair solution, until the run is pure fast path (chunk
    invariance makes the probe equally valid for chunks of one).  Matrices
    dropped here would measure the scipy tail, which is per topology at any
    chunk size by contract.
    """
    pool = list(matrices)
    for _ in range(MAX_FILTER_ROUNDS):
        topologies = _cycle(pool, BATCH_TOPOLOGIES)
        compiled = [compiled_for_topology(t, rules) for t in topologies]
        rngs = [child_rng(0, i) for i in range(BATCH_TOPOLOGIES)]
        outcome = solve_geometry_chunk(
            compiled, rules, rngs, solver_mode="auto", num_solutions=BATCH_SOLUTIONS
        )
        bad = {
            i % len(pool)
            for i, solutions in enumerate(outcome.solutions)
            for s in solutions
            if s.method != "repair"
        }
        if not bad:
            return pool
        pool = [m for j, m in enumerate(pool) if j not in bad]
        if not pool:
            break
    return pool


def _signatures(results):
    """Everything deterministic about a run (timing fields excluded)."""
    return [
        (
            tuple(
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
            ),
            tuple(
                (tuple(p.delta_x.tolist()), tuple(p.delta_y.tolist()))
                for p in result.patterns
            ),
        )
        for result in results
    ]


def _best_of(fn, repeats=2):
    """Best wall-clock of ``repeats`` identical runs (determinism makes the
    repeated outputs interchangeable; the minimum discards scheduler noise)."""
    best, out = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, out


def bench_batched_legalization(benchmark, bench_dataset, bench_config):
    rules = bench_config.rules
    checker = DesignRuleChecker(rules)

    # Hold the whole working set in the compile cache and pre-warm it once,
    # so both sides measure solver throughput rather than constraint
    # compilation (identical either way, and bench_solver_kernel's job).
    # The cache holds a fixed number of kernels, so the pool of distinct
    # matrices is capped at that (fast mode's pool is half of it).
    clear_compilation_cache()
    try:
        pool = _fast_path_pool(
            list(bench_dataset.topology_matrices("train")), rules
        )[: compilation_cache_info()["capacity"]]
        assert pool, "no repair-eligible topology in the benchmark dataset"
        topologies = _cycle(pool, BATCH_TOPOLOGIES)
        compiled = [compiled_for_topology(t, rules) for t in topologies]

        # --- solver level: K=1 solves vs one chunk, no result assembly ---- #
        def solver_serial():
            rngs = [child_rng(0, i) for i in range(BATCH_TOPOLOGIES)]
            return [
                [
                    solve_geometry_chunk(
                        [compiled[i]], rules, [rngs[i]], solver_mode="auto"
                    ).solutions[0][0]
                    for _ in range(BATCH_SOLUTIONS)
                ]
                for i in range(BATCH_TOPOLOGIES)
            ]

        def solver_batched():
            rngs = [child_rng(0, i) for i in range(BATCH_TOPOLOGIES)]
            return solve_geometry_chunk(
                compiled, rules, rngs, solver_mode="auto",
                num_solutions=BATCH_SOLUTIONS,
            )

        solver_serial_s, _ = _best_of(solver_serial)
        solver_batched_s, outcome = _best_of(solver_batched)
        solver_speedup = solver_serial_s / solver_batched_s

        # --- engine level: chunks of one vs one whole chunk --------------- #
        def engine_run(chunk_size):
            engine = LegalizationEngine(
                rules, solver_mode="auto", workers=1, chunk_size=chunk_size
            )
            return engine.legalize_batch_with_report(
                topologies, num_solutions=BATCH_SOLUTIONS, seed=0
            )

        engine_serial_s, (serial_results, serial_report) = _best_of(
            lambda: engine_run(1)
        )

        def batched_run():
            return engine_run(BATCH_TOPOLOGIES)

        # One pedantic round registers the timing with pytest-benchmark and
        # warms the path; the gated ratio uses the best-of manual timings.
        benchmark.pedantic(batched_run, rounds=1, iterations=1)
        engine_batched_s, (batched_results, batched_report) = _best_of(batched_run)
        engine_speedup = engine_serial_s / engine_batched_s
    finally:
        clear_compilation_cache()

    # Chunking changes throughput only: identical output, every field.
    parity = _signatures(batched_results) == _signatures(serial_results)

    stats = batched_report.stats
    fast_path_rate = stats.fast_path_fraction
    fast_patterns = [
        pattern
        for result in batched_results
        for pattern, solution in zip(result.patterns, result.solutions)
        if solution.method == "repair"
    ]
    fast_clean_rate = checker.legality_rate(fast_patterns) if fast_patterns else None

    def fmt(value, spec, suffix=""):
        return "n/a" if value is None else f"{value:{spec}}{suffix}"

    lines = [
        f"workload: {BATCH_TOPOLOGIES} topologies x {BATCH_SOLUTIONS} solutions "
        f"({len(pool)} distinct fast-path matrices), solver_mode=auto, "
        "workers=1",
        "",
        "chunk_size=1 (each topology a chunk of one):",
        serial_report.format(),
        "",
        f"chunk_size={BATCH_TOPOLOGIES} (one whole-chunk repair sweep + residual SLSQP tail):",
        batched_report.format(),
        "",
        f"bit-identity with chunks of one: {'PASS' if parity else 'FAIL'}",
        f"solver level: chunks of one {solver_serial_s * 1e3:.1f} ms vs whole chunk "
        f"{solver_batched_s * 1e3:.1f} ms -> {solver_speedup:.2f}x",
        f"engine level: chunks of one {engine_serial_s * 1e3:.1f} ms vs whole chunk "
        f"{engine_batched_s * 1e3:.1f} ms -> {engine_speedup:.2f}x",
        f"{stats.batched_sweeps} sweep(s) (mean {stats.batched_sweep_mean_size:.1f} "
        f"topologies), {stats.batched_tail_solves} tail solve(s), "
        f"fast path {fast_path_rate:.0%} of solutions, "
        f"fast-path DRC-clean rate {fmt(fast_clean_rate, '.2f')}",
    ]
    write_result("batched_legalization.txt", "\n".join(lines))

    write_metrics(
        "batched_legalization",
        {
            "fast_mode": FAST_MODE,
            "topologies": BATCH_TOPOLOGIES,
            "solutions_per_topology": BATCH_SOLUTIONS,
            "distinct_matrices": len(pool),
            "seconds_serial_engine": engine_serial_s,
            "seconds_batched_engine": engine_batched_s,
            "topologies_per_second_batched": BATCH_TOPOLOGIES / engine_batched_s,
            "speedup_batched_over_serial": engine_speedup,
            "seconds_serial_solver": solver_serial_s,
            "seconds_batched_solver": solver_batched_s,
            "solver_speedup_batched_over_serial": solver_speedup,
            "batched_parity": parity,
            "success_rate_serial": serial_report.success_rate,
            "success_rate_batched": batched_report.success_rate,
            "batched_sweeps": stats.batched_sweeps,
            "batched_sweep_size_mean": stats.batched_sweep_mean_size,
            "batched_tail_solves": stats.batched_tail_solves,
            "fast_path_rate": fast_path_rate,
            "fast_path_drc_clean_rate": fast_clean_rate,
        },
    )

    assert parity
    assert batched_report.success_rate == serial_report.success_rate == 1.0
    assert outcome.tail_solves == 0 and stats.batched_tail_solves == 0
    assert fast_path_rate == 1.0
    assert fast_clean_rate == 1.0
