"""Table II — model efficiency (sampling vs. Solving-R vs. Solving-E).

The paper reports the average per-sample cost of topology sampling and of the
nonlinear legalisation solve with random (Solving-R) versus dataset-seeded
(Solving-E) initialisation, with Solving-E ~2.3x faster.  Absolute times here
reflect the NumPy substrate and the benchmark machine; the relative ordering
(Solving-E at least as fast as Solving-R) is the reproduced claim.

Each throughput metric is written next to the work behind it
(``sampling_samples``, ``legalize_topologies``), and ``baselines.json`` gates
those counts at >= 1: a rate over zero items reads as infinitely fast.  The
batch legalization rate is timed in process over every held-out test
topology, not over the pre-filter survivors of the 8 Table II samples: in
fast mode those can be a single topology, and one 2-30 ms solve would then
decide the gate alone.
"""

from __future__ import annotations

from _bench_utils import FAST_MODE, NUM_GENERATED, write_metrics, write_result

from repro.pipeline import (
    measure_batch_legalization,
    measure_solving_time,
    run_efficiency_experiment,
)


def bench_table2_sampling_and_solving(benchmark, trained_pipeline):
    """Time the full Table II harness (the timed body is one solver call)."""
    report = run_efficiency_experiment(trained_pipeline, num_samples=8, rng=0)

    # Batched throughput of the sampling engine at the library-generation
    # batch size (per-sample cost amortises with the batch).
    engine = trained_pipeline.sampling_engine()
    _, batched = engine.sample_with_report(NUM_GENERATED, seed=0)

    # Batch legalization throughput with the solver mode of the harness
    # above, in process: a pool started for one call of a few milliseconds
    # would time its own startup (bench_parallel_legalization gates the pool).
    dataset = trained_pipeline.dataset
    legalization = measure_batch_legalization(
        dataset.topology_matrices("test"),
        trained_pipeline.config.rules,
        reference_geometries=dataset.reference_geometries("train"),
        solver_mode=trained_pipeline.config.solver_mode,
        workers=1,
        seed=0,
    )

    # pytest-benchmark statistics for the solver on one representative topology.
    topologies = trained_pipeline.dataset.topology_matrices("test")[:1]
    rules = trained_pipeline.config.rules

    def solve_one():
        return measure_solving_time(list(topologies), rules, rng=0)

    benchmark(solve_one)

    lines = [report.format()]
    ratio = report.solving_existing.acceleration
    lines.append("")
    lines.append(f"Solving-E acceleration over Solving-R: {ratio:.2f}x (paper: 2.30x)")
    lines.append("")
    lines.append(f"Sampling engine at batch {NUM_GENERATED}:")
    lines.append(batched.format())
    lines.append("")
    lines.append(
        f"Legalization engine on the {legalization.num_topologies} held-out test topologies:"
    )
    lines.append(legalization.format())
    write_result("table2_efficiency.txt", "\n".join(lines))

    write_metrics(
        "table2",
        {
            "fast_mode": FAST_MODE,
            "sampling_seconds_per_sample": report.sampling.seconds_per_sample,
            "solving_r_seconds": report.solving_random.seconds_per_sample,
            "solving_e_seconds": report.solving_existing.seconds_per_sample,
            "solving_e_acceleration": ratio,
            "sampling_samples": batched.num_samples,
            "sampling_samples_per_second": batched.samples_per_second,
            "legalize_success_rate": legalization.success_rate,
            "legalize_topologies": legalization.num_topologies,
            "legalize_topologies_per_second": legalization.topologies_per_second,
        },
    )

    assert report.sampling.seconds_per_sample > 0
    assert report.solving_random.seconds_per_sample > 0
    assert report.solving_existing.seconds_per_sample > 0
    assert batched.samples_per_second > 0
    assert report.sampling_report is not None
    assert report.legalization_report is not None
