"""Parallel legalization engine — throughput scaling and shard parity.

The Table I / DiffPattern-L workload legalises a batch of topologies, each
with many geometric solutions (up to 100 per topology in the paper).  The
legalization engine shards that batch across a process pool with per-index
seeding, so the parallel run must be element-wise identical to the serial
run while finishing faster on a multi-core host.

This harness measures topologies/second at ``workers=1`` versus a widened
pool (``REPRO_BENCH_WORKERS`` or the host CPU count, capped at 4), asserts
bitwise parity between the two runs, and emits the machine-readable metrics
that ``check_regression.py`` gates in CI.  On a single-core host the
parallel measurement is skipped (recorded as ``null``), because a process
pool cannot beat the serial path without a second core.
"""

from __future__ import annotations

import os

import numpy as np

from _bench_utils import BENCH_WORKERS, FAST_MODE, write_metrics, write_result

from repro.legalization import LegalizationEngine

# Sized so the serial run takes seconds even in fast mode: a sub-second
# workload cannot clear a speedup gate through pool-startup noise.
if FAST_MODE:
    PAR_TOPOLOGIES = 32
    PAR_SOLUTIONS = 12
else:
    PAR_TOPOLOGIES = 48
    PAR_SOLUTIONS = 25


def _parallel_workers() -> int:
    """Pool width for the parallel measurement (>= 2 to be meaningful)."""
    if BENCH_WORKERS > 1:
        return BENCH_WORKERS
    return min(4, os.cpu_count() or 1)


def _assert_parity(serial_results, parallel_results) -> None:
    assert len(serial_results) == len(parallel_results)
    for a, b in zip(serial_results, parallel_results):
        assert len(a.patterns) == len(b.patterns)
        for pa, pb in zip(a.patterns, b.patterns):
            np.testing.assert_array_equal(pa.topology, pb.topology)
            np.testing.assert_array_equal(pa.delta_x, pb.delta_x)
            np.testing.assert_array_equal(pa.delta_y, pb.delta_y)
        assert [s.iterations for s in a.solutions] == [s.iterations for s in b.solutions]


def bench_parallel_legalization_scaling(benchmark, bench_dataset, bench_config):
    matrices = list(bench_dataset.topology_matrices("train"))
    topologies = [matrices[i % len(matrices)] for i in range(PAR_TOPOLOGIES)]
    references = bench_dataset.reference_geometries("train")
    workers = _parallel_workers()

    def build_engine(pool_width: int) -> LegalizationEngine:
        # Pinned to the full SLSQP solve: this harness gates how the process
        # pool scales the *expensive* per-topology solve, and its committed
        # baselines predate the repair-first fast path (which is measured by
        # bench_solver_kernel.py instead).
        return LegalizationEngine(
            bench_config.rules,
            reference_geometries=references,
            solver_mode="slsqp",
            workers=pool_width,
        )

    serial_engine = build_engine(1)
    serial_results, serial_report = serial_engine.legalize_batch_with_report(
        topologies, num_solutions=PAR_SOLUTIONS, seed=0
    )

    parallel_report = None
    if workers > 1:
        parallel_engine = build_engine(workers)

        def parallel_run():
            return parallel_engine.legalize_batch_with_report(
                topologies, num_solutions=PAR_SOLUTIONS, seed=0
            )

        parallel_results, parallel_report = benchmark.pedantic(
            parallel_run, rounds=1, iterations=1
        )
        _assert_parity(serial_results, parallel_results)
    else:
        # Single-core host: nothing to scale onto; time the serial engine so
        # pytest-benchmark still records a number.
        benchmark.pedantic(
            lambda: serial_engine.legalize_batch(topologies, num_solutions=PAR_SOLUTIONS, seed=0),
            rounds=1,
            iterations=1,
        )

    # The speedup is only a meaningful (and gateable) number when the host
    # actually has a core per worker; on a smaller host the parallel run
    # still checks parity above, but the ratio is recorded as null so the
    # regression gate skips it instead of failing on hardware it can't beat.
    cpus = os.cpu_count() or 1
    speedup = (
        parallel_report.topologies_per_second / serial_report.topologies_per_second
        if parallel_report is not None
        and serial_report.topologies_per_second
        and cpus >= workers
        else None
    )

    lines = [
        f"workload: {PAR_TOPOLOGIES} topologies x {PAR_SOLUTIONS} solutions "
        f"(DiffPattern-L scale), host CPUs: {os.cpu_count()}",
        "",
        "serial (workers=1):",
        serial_report.format(),
    ]
    if parallel_report is not None:
        ratio = parallel_report.topologies_per_second / serial_report.topologies_per_second
        lines += [
            "",
            f"parallel (workers={workers}):",
            parallel_report.format(),
            "",
            f"speedup: {ratio:.2f}x (parallel == serial element-wise: True)"
            + ("" if speedup is not None else f" [not gated: only {cpus} CPU(s)]"),
        ]
    else:
        lines += ["", f"parallel run skipped (only {os.cpu_count()} CPU available)"]
    write_result("parallel_legalization.txt", "\n".join(lines))

    write_metrics(
        "parallel_legalization",
        {
            "fast_mode": FAST_MODE,
            "topologies": PAR_TOPOLOGIES,
            "solutions_per_topology": PAR_SOLUTIONS,
            "patterns_serial": serial_report.stats.solutions,
            "success_rate_serial": serial_report.success_rate,
            "topologies_per_second_serial": serial_report.topologies_per_second,
            "workers_parallel": workers if parallel_report is not None else None,
            "topologies_per_second_parallel": (
                parallel_report.topologies_per_second if parallel_report is not None else None
            ),
            "speedup_parallel": speedup,
        },
    )

    assert serial_report.success_rate > 0.5
    assert serial_report.stats.solutions > 0
