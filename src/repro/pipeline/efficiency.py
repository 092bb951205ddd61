"""Table II harness: model efficiency of topology sampling and legalisation.

Measures the average wall-clock time per sample of

* **Sampling**  — one topology from the reverse diffusion chain,
* **Solving-R** — legalising one topology with random solver initialisation,
* **Solving-E** — legalising one topology warm-started from an existing
  geometric-vector pair (the acceleration trick of Section III-D).

The absolute numbers depend on the host machine and the NumPy substrate; the
quantity the paper reports — Solving-E being ~2.3x faster than Solving-R —
is a relative statement that the harness reproduces.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from ..legalization import (
    DesignRules,
    LegalizationEngine,
    LegalizationReport,
    SolverOptions,
)
from ..utils import Timer, as_rng
from .diffpattern import DiffPatternPipeline, GenerationResult
from .sampling_engine import SamplingReport


@dataclass
class EfficiencyRow:
    """One row of Table II."""

    phase: str
    seconds_per_sample: float
    acceleration: float

    def as_dict(self) -> dict[str, object]:
        return {
            "phase": self.phase,
            "cost_time_s": round(self.seconds_per_sample, 4),
            "acceleration": "N/A" if np.isnan(self.acceleration) else f"{self.acceleration:.2f}x",
        }


@dataclass
class EfficiencyReport:
    """All three rows plus the raw measurements."""

    sampling: EfficiencyRow
    solving_random: EfficiencyRow
    solving_existing: EfficiencyRow
    #: Per-phase breakdown of the sampling measurement (model forward vs
    #: posterior mixing), produced by the batched sampling engine.
    sampling_report: "SamplingReport | None" = field(default=None, repr=False)
    #: Batch-legalisation throughput of the sharded legalization engine at
    #: the experiment's worker count.
    legalization_report: "LegalizationReport | None" = field(default=None, repr=False)

    @property
    def rows(self) -> list[EfficiencyRow]:
        return [self.sampling, self.solving_random, self.solving_existing]

    def format(self) -> str:
        header = f"{'Phase/Method':<16}{'Cost Time (s)':>16}{'Acceleration':>14}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            accel = "N/A" if np.isnan(row.acceleration) else f"{row.acceleration:.2f}x"
            lines.append(f"{row.phase:<16}{row.seconds_per_sample:>16.4f}{accel:>14}")
        if self.sampling_report is not None:
            lines.append("")
            lines.append("Sampling engine breakdown:")
            lines.append(self.sampling_report.format())
        if self.legalization_report is not None:
            lines.append("")
            lines.append("Legalization engine breakdown:")
            lines.append(self.legalization_report.format())
        return "\n".join(lines)


def measure_sampling_time(
    pipeline: DiffPatternPipeline, num_samples: int, rng: "int | np.random.Generator | None" = None
) -> float:
    """Average seconds per generated topology."""
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    with Timer() as timer:
        pipeline.generate_topologies(num_samples, rng=rng)
    return timer.elapsed / num_samples


def measure_solving_time(
    topologies: "list[np.ndarray] | np.ndarray",
    rules: DesignRules,
    reference_geometries: "list[tuple[np.ndarray, np.ndarray]] | None" = None,
    options: "SolverOptions | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> float:
    """Average seconds per solved topology (failures excluded from the mean).

    Each topology is timed alone: one in-process chunk of one per topology,
    its targets drawn from its own ``(seed, index)`` stream.
    """
    engine = LegalizationEngine(
        rules,
        reference_geometries=reference_geometries,
        options=options,
        chunk_size=1,
    )
    results = engine.legalize_batch(topologies, num_solutions=1, seed=rng)
    times = [result.solutions[0].elapsed_seconds for result in results if result.solved]
    if not times:
        raise RuntimeError("no topology could be legalised; cannot measure solver time")
    return float(np.mean(times))


def measure_batch_legalization(
    topologies: "list[np.ndarray] | np.ndarray",
    rules: DesignRules,
    reference_geometries: "list[tuple[np.ndarray, np.ndarray]] | None" = None,
    options: "SolverOptions | None" = None,
    num_solutions: int = 1,
    workers: "int | None" = 1,
    seed: "int | np.random.Generator | None" = 0,
) -> LegalizationReport:
    """Wall-clock throughput of the sharded legalization engine on a batch.

    Unlike :func:`measure_solving_time` (per-solve average, serial), this
    measures the end-to-end batch: sharding, the process pool, and stats
    merging — the quantity the parallel engine is supposed to improve.
    """
    engine = LegalizationEngine(
        rules,
        reference_geometries=reference_geometries,
        options=options,
        workers=workers,
    )
    _, report = engine.legalize_batch_with_report(
        list(topologies), num_solutions=num_solutions, seed=seed
    )
    return report


@dataclass
class StreamingMeasurement:
    """End-to-end generation measured for wall-clock and Python-heap peak."""

    result: GenerationResult
    seconds: float
    peak_bytes: int

    @property
    def peak_megabytes(self) -> float:
        return self.peak_bytes / (1024 * 1024)


def measure_streamed_generation(
    pipeline: DiffPatternPipeline,
    num_generated: int,
    chunk_size: "int | None" = None,
    num_solutions: int = 1,
    rng: "int | np.random.Generator | None" = 0,
    retain_topologies: bool = True,
    workers: "int | None" = None,
    library=None,
    resume: bool = False,
) -> StreamingMeasurement:
    """Measure one end-to-end generation run through the stage graph.

    ``chunk_size=num_generated`` measures one barrier chunk, so calling
    this twice gives the streaming-vs-barrier wall-clock and peak-allocation
    comparison the streaming benchmark gates.  The Python-heap peak is
    tracked with :mod:`tracemalloc` (resident-set peaks are monotone per
    process and cannot compare two in-process runs).
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    with Timer() as timer:
        result = pipeline.generate_and_legalize(
            num_generated,
            num_solutions=num_solutions,
            rng=rng,
            workers=workers,
            chunk_size=chunk_size,
            retain_topologies=retain_topologies,
            library=library,
            resume=resume,
        )
    _, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()
    return StreamingMeasurement(result=result, seconds=timer.elapsed, peak_bytes=peak)


def run_efficiency_experiment(
    pipeline: DiffPatternPipeline,
    num_samples: int = 8,
    rng: "int | np.random.Generator | None" = None,
    workers: "int | None" = None,
) -> EfficiencyReport:
    """Produce the three rows of Table II (plus engine throughput breakdowns).

    ``workers`` overrides the pipeline-config pool width for the batch
    legalisation measurement; the per-solve Solving-R / Solving-E rows stay
    serial by construction (they time individual solver calls).
    """
    gen = as_rng(rng)
    sampling_seconds = measure_sampling_time(pipeline, num_samples, rng=gen)
    sampling_report = pipeline.last_sampling_report
    topologies = pipeline.generate_topologies(num_samples, rng=gen)
    kept = pipeline.prefilter.filter(list(topologies)).kept
    if not kept and pipeline.dataset is not None:
        # An under-trained model can fail the pre-filter on every sample; the
        # solver timing itself does not depend on where the topology came
        # from, so fall back to real (held-out) topologies.
        kept = list(pipeline.dataset.topology_matrices("test")[:num_samples])
    if not kept:
        raise RuntimeError("no topology available to measure solver time on")
    references = (
        pipeline.dataset.reference_geometries("train") if pipeline.dataset is not None else None
    )
    # All three measurements honour the config's solver strategy, so a
    # scenario pinned to "slsqp" (paper-tables) reports the full-solve cost
    # while "auto" regimes report the repair-first fast path.
    options = SolverOptions(solver_mode=pipeline.config.solver_mode)
    solving_r = measure_solving_time(kept, pipeline.config.rules, None, options=options, rng=gen)
    solving_e = measure_solving_time(
        kept, pipeline.config.rules, references, options=options, rng=gen
    )
    legalization_report = measure_batch_legalization(
        kept,
        pipeline.config.rules,
        reference_geometries=references,
        options=options,
        workers=workers if workers is not None else pipeline.config.workers,
        seed=gen,
    )
    return EfficiencyReport(
        sampling=EfficiencyRow("Sampling", sampling_seconds, float("nan")),
        solving_random=EfficiencyRow("Solving-R", solving_r, 1.0),
        solving_existing=EfficiencyRow(
            "Solving-E", solving_e, solving_r / solving_e if solving_e else float("nan")
        ),
        sampling_report=sampling_report,
        legalization_report=legalization_report,
    )
