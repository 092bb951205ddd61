"""Compiled solver kernels — single-solve latency and the repair fast path.

Table II makes the per-topology solve the cost center of the framework.
This harness measures the single-solve hot path both ways:

* ``solver_mode="slsqp"`` — the full SLSQP solve over the compiled
  constraint kernels; bit-identical to the historical per-constraint lambda
  formulation (asserted by ``tests/test_compiled_kernels.py``), so its
  throughput stands in for the seed solver.
* ``solver_mode="auto"`` — the repair-first projection with SLSQP fallback.

Gated claims (``check_regression.py`` against ``baselines.json``):
``auto`` must clear >= 2x the ``slsqp`` topologies/second on this workload,
every fast-path (repaired) pattern must be DRC-clean, and the fast path must
actually fire on a majority of solves (not silently degrade to fallback).
Everything here runs serially (``workers=1``) — pool scaling is
``bench_parallel_legalization.py``'s job — so the numbers are meaningful on
any host, including single-core CI runners.
"""

from __future__ import annotations

from _bench_utils import FAST_MODE, write_metrics, write_result

from repro.drc import DesignRuleChecker
from repro.legalization import LegalizationEngine
from repro.legalization.compiled import clear_compilation_cache, compilation_cache_info

if FAST_MODE:
    KERNEL_TOPOLOGIES = 32
    KERNEL_SOLUTIONS = 4
else:
    KERNEL_TOPOLOGIES = 64
    KERNEL_SOLUTIONS = 8


def _run_mode(mode: str, topologies, rules, references):
    engine = LegalizationEngine(
        rules,
        reference_geometries=references,
        solver_mode=mode,
        workers=1,
    )
    clear_compilation_cache()
    results, report = engine.legalize_batch_with_report(
        topologies, num_solutions=KERNEL_SOLUTIONS, seed=0
    )
    return results, report, compilation_cache_info()


def bench_solver_kernel(benchmark, bench_dataset, bench_config):
    matrices = list(bench_dataset.topology_matrices("train"))
    topologies = [matrices[i % len(matrices)] for i in range(KERNEL_TOPOLOGIES)]
    references = bench_dataset.reference_geometries("train")
    rules = bench_config.rules
    checker = DesignRuleChecker(rules)

    slsqp_results, slsqp_report, slsqp_cache = _run_mode(
        "slsqp", topologies, rules, references
    )

    def auto_run():
        return _run_mode("auto", topologies, rules, references)

    auto_results, auto_report, auto_cache = benchmark.pedantic(
        auto_run, rounds=1, iterations=1
    )

    speedup = (
        auto_report.topologies_per_second / slsqp_report.topologies_per_second
        if slsqp_report.topologies_per_second
        else None
    )

    # Every solution the repair projection produced must survive the DRC —
    # the fast path is only a win if it never trades legality for speed.
    fast_patterns = [
        pattern
        for result in auto_results
        for pattern, solution in zip(result.patterns, result.solutions)
        if solution.method == "repair"
    ]
    fast_clean_rate = (
        checker.legality_rate(fast_patterns) if fast_patterns else None
    )

    def latency(report):
        return (
            report.stats.total_solver_time / report.stats.solutions
            if report.stats.solutions
            else None
        )

    def fmt(value, spec, suffix=""):
        # A dead solver yields None metrics; the artefact must still be
        # written (and the regression gate must fail on the rate metrics)
        # rather than crashing on formatting.
        return "n/a" if value is None else f"{value:{spec}}{suffix}"

    slsqp_latency = latency(slsqp_report)
    auto_latency = latency(auto_report)
    slsqp_ms = slsqp_latency * 1e3 if slsqp_latency is not None else None
    auto_ms = auto_latency * 1e3 if auto_latency is not None else None

    lines = [
        f"workload: {KERNEL_TOPOLOGIES} topologies x {KERNEL_SOLUTIONS} solutions, "
        "serial (workers=1)",
        "",
        "solver_mode=slsqp (full solve, bit-identical to the seed formulation):",
        slsqp_report.format(),
        f"  compile cache    {slsqp_cache['hits']} hit(s) / {slsqp_cache['misses']} miss(es)",
        "",
        "solver_mode=auto (repair-first, SLSQP fallback):",
        auto_report.format(),
        f"  compile cache    {auto_cache['hits']} hit(s) / {auto_cache['misses']} miss(es)",
        "",
        "single-solve latency: "
        f"slsqp {fmt(slsqp_ms, '.3f', ' ms')}, auto {fmt(auto_ms, '.3f', ' ms')}",
        f"auto over slsqp: {fmt(speedup, '.2f', 'x')} topologies/s, "
        f"fast path {auto_report.stats.fast_path_fraction:.0%} of solutions, "
        f"fast-path DRC-clean rate {fmt(fast_clean_rate, '.2f')}",
    ]
    write_result("solver_kernel.txt", "\n".join(lines))

    write_metrics(
        "solver_kernel",
        {
            "fast_mode": FAST_MODE,
            "topologies": KERNEL_TOPOLOGIES,
            "solutions_per_topology": KERNEL_SOLUTIONS,
            "topologies_per_second_slsqp": slsqp_report.topologies_per_second,
            "topologies_per_second_auto": auto_report.topologies_per_second,
            "speedup_auto_over_slsqp": speedup,
            "seconds_per_solution_slsqp": slsqp_latency,
            "seconds_per_solution_auto": auto_latency,
            "success_rate_slsqp": slsqp_report.success_rate,
            "success_rate_auto": auto_report.success_rate,
            "fast_path_rate": auto_report.stats.fast_path_fraction,
            "fast_path_drc_clean_rate": fast_clean_rate,
        },
    )

    assert auto_report.success_rate >= slsqp_report.success_rate
    assert auto_report.stats.fast_path_solutions > 0
    if fast_patterns:
        assert fast_clean_rate == 1.0
