"""Streaming generation graph — peak memory, wall-clock and parity vs batch.

The streaming stage graph pulls fixed-size chunks through
sample → prefilter → legalize → DRC and folds them into incremental
accumulators, so peak memory is bounded by the chunk size while the output
stays element-wise identical to the monolithic batch run.  This harness
measures both paths end to end on the shared trained pipeline:

* **parity** — patterns, diversity H and legality of the streamed run must
  equal the batch run exactly (the gate the whole refactor rests on),
* **peak allocations** — Python-heap peak (tracemalloc) of streaming with
  ``retain_topologies=False`` versus the batch path,
* **wall-clock** — streamed topologies/second, plus a multi-worker streamed
  run when ``REPRO_BENCH_WORKERS`` widens the legalization pool (CI only —
  the local container has a single core, so that metric is ``null`` there),
* **resume** — a second streamed run killed halfway and resumed from the
  pattern-library manifest must reproduce the uninterrupted library.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from _bench_utils import BENCH_WORKERS, FAST_MODE, NUM_GENERATED, write_metrics, write_result

from repro.library import PatternLibrary
from repro.pipeline import measure_streamed_generation

# More samples than the other harnesses: the memory comparison needs the run
# size to dominate the chunk size.
STREAM_GENERATED = NUM_GENERATED * (3 if FAST_MODE else 4)
CHUNK_SIZE = max(2, NUM_GENERATED // 2)


def _patterns_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        np.array_equal(pa.topology, pb.topology)
        and np.array_equal(pa.delta_x, pb.delta_x)
        and np.array_equal(pa.delta_y, pb.delta_y)
        for pa, pb in zip(a, b)
    )


def bench_streaming_pipeline(benchmark, trained_pipeline):
    # The barrier run: one chunk spanning the whole run.
    batch = measure_streamed_generation(
        trained_pipeline, STREAM_GENERATED, chunk_size=STREAM_GENERATED, rng=0, workers=1
    )

    def streamed_run():
        return measure_streamed_generation(
            trained_pipeline,
            STREAM_GENERATED,
            chunk_size=CHUNK_SIZE,
            rng=0,
            retain_topologies=False,
            workers=1,
        )

    streamed = benchmark.pedantic(streamed_run, rounds=1, iterations=1)

    parity = (
        _patterns_equal(batch.result.patterns, streamed.result.patterns)
        and batch.result.pattern_diversity == streamed.result.pattern_diversity
        and batch.result.legality == streamed.result.legality
        and batch.result.prefilter_reject_rate == streamed.result.prefilter_reject_rate
    )
    peak_ratio = (
        streamed.peak_bytes / batch.peak_bytes if batch.peak_bytes else None
    )

    # Kill a library-backed streamed run halfway (stop_after_chunks), then
    # resume it: the resumed run folds the stored chunks from the manifest
    # and generates the rest live — the mixed live+resumed path must
    # reproduce the uninterrupted patterns exactly.
    num_chunks = -(-STREAM_GENERATED // CHUNK_SIZE)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "library"

        def library_graph():
            return trained_pipeline.generation_graph(
                chunk_size=CHUNK_SIZE,
                workers=1,
                retain_topologies=False,
                library=PatternLibrary(root),
            )

        library_graph().run(STREAM_GENERATED, seed=0, stop_after_chunks=num_chunks // 2)
        resumed_graph = library_graph()
        resumed = resumed_graph.run(STREAM_GENERATED, seed=0, resume=True)
        resume_parity = (
            _patterns_equal(streamed.result.patterns, resumed.patterns)
            and resumed_graph.last_report.chunks_resumed == num_chunks // 2
            and resumed_graph.last_report.chunks_live == num_chunks - num_chunks // 2
        )
        library_summary = PatternLibrary(root).summary()

    # Multi-worker streamed throughput: only meaningful (and only gated) when
    # the benchmark was asked for a wider pool AND the host has the cores —
    # locally this stays null and the regression gate skips it.
    streamed_parallel_seconds = None
    if BENCH_WORKERS > 1 and (os.cpu_count() or 1) >= BENCH_WORKERS:
        parallel = measure_streamed_generation(
            trained_pipeline,
            STREAM_GENERATED,
            chunk_size=CHUNK_SIZE,
            rng=0,
            retain_topologies=False,
            workers=BENCH_WORKERS,
        )
        parity = parity and _patterns_equal(
            batch.result.patterns, parallel.result.patterns
        )
        streamed_parallel_seconds = parallel.seconds

    lines = [
        f"workload: {STREAM_GENERATED} topologies, streaming chunks of {CHUNK_SIZE} "
        f"(batch = single {STREAM_GENERATED}-sample barrier)",
        "",
        f"batch     : {batch.seconds:.4f} s, peak allocations {batch.peak_megabytes:.2f} MiB",
        f"streamed  : {streamed.seconds:.4f} s, peak allocations {streamed.peak_megabytes:.2f} MiB",
        f"peak ratio (streamed/batch): {peak_ratio:.3f}" if peak_ratio else "",
        f"parity (patterns, H, legality): {parity}",
        f"resume parity (library manifest): {resume_parity}",
        f"library: {library_summary}",
    ]
    if streamed_parallel_seconds is not None:
        lines.append(
            f"streamed x{BENCH_WORKERS} workers: {streamed_parallel_seconds:.4f} s"
        )
    write_result("streaming_pipeline.txt", "\n".join(filter(None, lines)))

    write_metrics(
        "streaming_pipeline",
        {
            "fast_mode": FAST_MODE,
            "topologies": STREAM_GENERATED,
            "chunk_size": CHUNK_SIZE,
            "parity": parity,
            "resume_parity": resume_parity,
            "num_patterns": streamed.result.num_patterns,
            "legality": streamed.result.legality,
            "diversity": streamed.result.pattern_diversity,
            "peak_ratio_streamed_over_batch": peak_ratio,
            "batch_seconds": batch.seconds,
            "streamed_seconds": streamed.seconds,
            "streamed_parallel_seconds": streamed_parallel_seconds,
            "library_patterns": library_summary["patterns"],
        },
    )

    assert parity
    assert resume_parity
