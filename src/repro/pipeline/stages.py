"""Streaming generation stage graph: sample → prefilter → legalize → DRC.

:class:`GenerationGraph` replaces the barrier orchestration of the original
``DiffPatternPipeline.run`` (materialise *every* sample, then prefilter all
of them, then legalise all of them, then compute metrics once) with a pull
pipeline over fixed-size chunks:

.. code-block:: text

    SamplingEngine ──chunk──▶ unfold ──▶ TopologyPrefilter ──kept──▶
        LegalizationEngine ──patterns──▶ DesignRuleChecker ──▶
            incremental accumulators (+ optional PatternLibrary shard)

Each chunk flows through every stage before the next chunk is sampled, so

* peak memory is bounded by the chunk size, not the run size (pass
  ``retain_topologies=False`` to also drop the raw matrices),
* legalisation starts after the first chunk instead of after the last, and
* a run wired to a :class:`~repro.library.PatternLibrary` persists every
  completed chunk and can be killed and resumed from the manifest.

**Parity contract.**  Both engines seed every element index independently
(``SeedSequence(seed, index)``) and accept a ``first_index`` stream offset,
and the metric accumulators (:class:`~repro.metrics.ComplexityHistogram`,
integer legality counters) reproduce the batch formulas exactly — so the
streamed :class:`~repro.pipeline.GenerationResult` is element-wise identical
to the monolithic run for *any* chunk size and worker count: same patterns,
same diversity H bit for bit, same legality.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..drc import DesignRuleChecker
from ..faults import declare_fault_points, fault_point
from ..legalization import LegalizationEngine, LegalizationReport, LegalizationStats
from ..library import ChunkRecord, PatternLibrary
from ..metrics import ComplexityHistogram, pattern_complexity, topology_complexity
from ..prefilter import TopologyPrefilter
from ..squish import SquishPattern, unfold
from ..utils import resolve_seed
from .diffpattern import GenerationResult
from .sampling_engine import SamplingEngine, SamplingReport

__all__ = ["GenerationGraph", "GenerationGraphReport", "GenerationStream", "StreamChunk"]

declare_fault_points("stream:advance")


def _references_digest(references: "list[tuple[np.ndarray, np.ndarray]]") -> str:
    """Stable digest of a warm-start reference-geometry library.

    The references steer the legaliser's ``Solving-E`` targets, so two runs
    with different libraries produce different patterns — the digest makes
    that visible to the resume fingerprint.
    """
    digest = hashlib.sha1()
    digest.update(str(len(references)).encode())
    for pair in references:
        for vector in pair:
            arr = np.ascontiguousarray(np.asarray(vector, dtype=np.float64))
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


@dataclass
class GenerationGraphReport:
    """Per-stage accounting of one streamed generation run."""

    num_requested: int
    chunk_size: int
    num_chunks: int
    chunks_live: int = 0
    chunks_resumed: int = 0
    total_seconds: float = 0.0
    prefilter_seconds: float = 0.0
    drc_seconds: float = 0.0
    #: Merged engine reports; cover only the chunks generated live (resumed
    #: chunks replay their stored solver statistics but not wall-clock).
    sampling_report: "SamplingReport | None" = field(default=None, repr=False)
    legalization_report: "LegalizationReport | None" = field(default=None, repr=False)

    def format(self) -> str:
        lines = [
            f"chunks             {self.num_chunks} x <= {self.chunk_size} "
            f"({self.chunks_live} generated, {self.chunks_resumed} resumed)",
            f"total              {self.total_seconds:.4f} s "
            f"(prefilter {self.prefilter_seconds:.4f} s, DRC {self.drc_seconds:.4f} s)",
        ]
        if self.sampling_report is not None:
            lines += ["", "sampling stage:", self.sampling_report.format()]
        if self.legalization_report is not None:
            lines += ["", "legalization stage:", self.legalization_report.format()]
        return "\n".join(lines)


class _Accumulators:
    """Streaming state folded chunk by chunk (or from resumed records)."""

    def __init__(self, retain_topologies: bool) -> None:
        self.retain_topologies = retain_topologies
        self.topology_chunks: list[np.ndarray] = []
        self.kept_topologies: list[np.ndarray] = []
        self.patterns: list[SquishPattern] = []
        self.topology_histogram = ComplexityHistogram()
        self.pattern_histogram = ComplexityHistogram()
        self.num_sampled = 0
        self.num_kept = 0
        self.num_rejected = 0
        self.unsolved = 0
        self.num_patterns = 0
        self.num_clean = 0

    # -- formulas identical to the batch path -------------------------- #
    @property
    def prefilter_reject_rate(self) -> float:
        total = self.num_kept + self.num_rejected
        if not total:
            return 0.0
        return 1.0 - self.num_kept / total

    @property
    def topology_diversity(self) -> float:
        return self.topology_histogram.diversity() if self.num_sampled else 0.0

    @property
    def pattern_diversity(self) -> float:
        return self.pattern_histogram.diversity() if self.num_patterns else 0.0

    @property
    def legality(self) -> float:
        return float(self.num_clean) / self.num_patterns if self.num_patterns else 0.0

    def topologies_array(self) -> np.ndarray:
        if not self.topology_chunks:
            return np.empty((0, 0, 0), dtype=np.uint8)
        if len(self.topology_chunks) == 1:
            return np.asarray(self.topology_chunks[0])
        return np.concatenate(self.topology_chunks, axis=0)


@dataclass
class StreamChunk:
    """Everything one completed graph chunk produced, with per-sample attribution.

    Produced by :meth:`GenerationStream.advance`, and the one description of
    a chunk downstream of it: the graph folds it into a run,
    :meth:`record` turns it into the library's chunk record, and a
    supervised ``repro serve`` worker sends it over its pipe as is (a graph
    built with ``retain_topologies=False`` leaves the raw matrices out, so
    the pickle carries only what is served).  Beyond the aggregate
    accounting the batch path needs, every pattern carries the absolute
    sample index it descends from (:attr:`pattern_sources`), so a consumer
    sharing one stream between several clients — the ``repro serve``
    cross-request batcher — can route each pattern to the request window
    that owns its sample.
    """

    #: Sequential chunk index within the stream.
    chunk: int
    #: Absolute sample index of the chunk's first sample.
    start: int
    #: Number of samples pulled for this chunk.
    size: int
    #: Raw unfolded topology matrices, shape ``(size, H, W)``; empty unless
    #: the graph retains topologies.
    matrices: np.ndarray = field(repr=False)
    #: Absolute sample indices that survived the prefilter, in order.
    kept_indices: list[int]
    #: The surviving topology matrices (aligned with :attr:`kept_indices`);
    #: empty unless the graph retains topologies.
    kept: list[np.ndarray] = field(repr=False)
    num_rejected: int
    #: Kept topologies for which no legal geometry was found.
    unsolved: int
    #: Every legal pattern the chunk produced, before any dedup planning.
    chunk_patterns: list[SquishPattern] = field(repr=False)
    #: The patterns the caller keeps (identical to :attr:`chunk_patterns`
    #: unless a deduplicating library planned some away).
    patterns: list[SquishPattern] = field(repr=False)
    #: Absolute source sample index per entry of :attr:`patterns`.
    pattern_sources: list[int]
    #: DRC verdict per entry of :attr:`patterns`.
    clean_mask: np.ndarray = field(repr=False)
    num_clean: int
    topology_histogram: ComplexityHistogram = field(repr=False)
    pattern_histogram: ComplexityHistogram = field(repr=False)
    #: Chunk-local engine reports (the graph merges them into its aggregate).
    sampling_report: SamplingReport = field(repr=False)
    legalization_report: LegalizationReport = field(repr=False)
    prefilter_seconds: float = 0.0
    drc_seconds: float = 0.0

    @property
    def end(self) -> int:
        """One past the last absolute sample index of the chunk."""
        return self.start + self.size

    @property
    def num_kept(self) -> int:
        """Topologies that survived the prefilter in this chunk."""
        return len(self.kept_indices)

    def record(self) -> ChunkRecord:
        """This chunk's library accounting record.

        The storage fields (``num_stored``, ``duplicates_skipped``,
        ``shard`` and the rest) are filled in by
        :meth:`~repro.library.PatternLibrary.append_chunk`; ``stats``
        carries every :class:`~repro.legalization.LegalizationStats`
        counter.
        """
        return ChunkRecord(
            chunk=self.chunk,
            start=self.start,
            num_sampled=self.size,
            num_kept=self.num_kept,
            num_rejected=self.num_rejected,
            unsolved=self.unsolved,
            num_patterns=len(self.chunk_patterns),
            num_stored=0,
            duplicates_skipped=0,
            num_clean=self.num_clean,
            shard=None,
            topology_complexity_counts=self.topology_histogram.as_records(),
            pattern_complexity_counts=self.pattern_histogram.as_records(),
            stats=self.legalization_report.stats.as_dict(),
        )


class GenerationStream:
    """Incremental pull handle over a :class:`GenerationGraph`.

    Where :meth:`GenerationGraph.run` walks a fixed number of samples to
    completion, a stream advances the same stage pipeline chunk by chunk on
    demand — :meth:`advance` pulls the next ``size`` samples through
    sample → prefilter → legalize → DRC and returns the fully-attributed
    :class:`StreamChunk`.  The ``repro serve`` daemon drives one stream per
    scenario identity, growing it with whatever batch the coalesced demand
    of the moment calls for.

    The determinism contract is untouched: samples are owned by their
    absolute index (``SeedSequence(sample_seed, index)``), the legalization
    offset is the number of previously *kept* topologies, and chunk
    boundaries never change a value — any sequence of ``advance`` sizes
    covering ``[0, N)`` yields results element-wise identical to one
    monolithic ``run(N)`` under the same seeds.

    Obtain instances through :meth:`GenerationGraph.open_stream`; the two
    base seeds are resolved there exactly as ``run`` resolves them.
    """

    def __init__(self, graph: "GenerationGraph", sample_seed: int, legal_seed: int) -> None:
        self.graph = graph
        self.sample_seed = int(sample_seed)
        self.legal_seed = int(legal_seed)
        #: Absolute sample index the next chunk starts at.
        self.next_start = 0
        #: Sequential index assigned to the next chunk.
        self.next_chunk = 0
        #: Topologies kept by the prefilter so far — the ``first_index``
        #: stream offset handed to the legalization engine.
        self.num_kept = 0

    def advance(self, size: int) -> StreamChunk:
        """Pull the next ``size`` samples through every stage.

        Returns
        -------
        StreamChunk
            The completed chunk, with per-pattern source attribution.

        Raises
        ------
        ValueError
            If ``size`` < 1.
        """
        if size < 1:
            raise ValueError("size must be >= 1")
        # Counters mutate only after the chunk is fully built (below), so a
        # crash here — or anywhere inside the stage walk — leaves the stream
        # exactly at the pre-call frontier: a retried advance reproduces the
        # same chunk bit for bit.
        fault_point("stream:advance")
        graph = self.graph
        start = self.next_start
        tensors, sampling_report = graph.sampling_engine.sample_with_report(
            size, seed=self.sample_seed, first_index=start
        )
        matrices = np.stack([unfold(t) for t in tensors], axis=0)

        tic = time.perf_counter()
        kept: list[np.ndarray] = []
        kept_indices: list[int] = []
        num_rejected = 0
        for offset, matrix in enumerate(matrices):
            if graph.prefilter.reject_reason(matrix) is None:
                kept.append(np.asarray(matrix, dtype=np.uint8))
                kept_indices.append(start + offset)
            else:
                num_rejected += 1
        prefilter_seconds = time.perf_counter() - tic

        # The stream offset is the number of topologies that survived the
        # prefilter in *earlier* chunks: kept topology k owns the stream
        # (legal_seed, k) exactly as in the monolithic batch call.
        results, legalization_report = graph.legalization_engine.legalize_batch_with_report(
            kept,
            num_solutions=graph.num_solutions,
            seed=self.legal_seed,
            first_index=self.num_kept,
        )

        chunk_patterns: list[SquishPattern] = []
        sources: list[int] = []
        for index, result in zip(kept_indices, results):
            chunk_patterns.extend(result.patterns)
            sources.extend([index] * len(result.patterns))
        # With a deduplicating library, the chunk (and every metric on it)
        # describes exactly the patterns that are kept — otherwise legality
        # and diversity would be computed over patterns the caller never
        # sees.  Without dedup (the default) every produced pattern is kept,
        # which is what the batch-parity contract requires.
        if graph.library is not None and graph.library.dedup:
            keep = graph.library.plan_chunk(chunk_patterns)
            patterns = [p for p, flag in zip(chunk_patterns, keep) if flag]
            pattern_sources = [s for s, flag in zip(sources, keep) if flag]
        else:
            patterns = chunk_patterns
            pattern_sources = sources

        tic = time.perf_counter()
        clean_mask = (
            np.asarray(graph.checker.legality_mask(patterns), dtype=bool)
            if patterns
            else np.zeros(0, dtype=bool)
        )
        drc_seconds = time.perf_counter() - tic

        retain = graph.retain_topologies
        chunk = StreamChunk(
            chunk=self.next_chunk,
            start=start,
            size=size,
            matrices=matrices if retain else matrices[:0].copy(),
            kept_indices=kept_indices,
            kept=kept if retain else [],
            num_rejected=num_rejected,
            unsolved=sum(1 for result in results if not result.solved),
            chunk_patterns=chunk_patterns,
            patterns=patterns,
            pattern_sources=pattern_sources,
            clean_mask=clean_mask,
            num_clean=int(clean_mask.sum()),
            topology_histogram=ComplexityHistogram(
                [topology_complexity(m) for m in matrices]
            ),
            pattern_histogram=ComplexityHistogram(
                [pattern_complexity(p) for p in patterns]
            ),
            sampling_report=sampling_report,
            legalization_report=legalization_report,
            prefilter_seconds=prefilter_seconds,
            drc_seconds=drc_seconds,
        )
        self.next_start += size
        self.next_chunk += 1
        self.num_kept += len(kept)
        return chunk

    def seek(self, frontier: "tuple[int, int, int]") -> None:
        """Move the stream to ``frontier = (next_start, next_chunk, num_kept)``.

        Those three counters are all the state a stream carries (every
        sample owns ``(sample_seed, index)`` and every kept topology
        ``(legal_seed, kept_index)``), so the next :meth:`advance` produces
        exactly the chunk an uninterrupted stream would produce there.  A
        resumed run seeks past its stored chunks; a serve batcher seeks to
        its committed frontier, in process or in a restarted worker.
        """
        self.next_start, self.next_chunk, self.num_kept = (int(value) for value in frontier)


class GenerationGraph:
    """Chunked streaming orchestration of the three DiffPattern phases.

    Parameters
    ----------
    sampling_engine / prefilter / legalization_engine / checker:
        The stage implementations (the pipeline wires its own).
    chunk_size:
        Samples pulled per graph step.  A pure memory/latency knob — output
        is element-wise identical for any value.
    num_solutions:
        Geometric solutions per kept topology (DiffPattern-S/L).
    retain_topologies:
        Keep the raw/kept topology matrices on the result.  Disable for
        bounded-memory production runs; metrics are unaffected (they are
        accumulated incrementally either way).
    library:
        Optional :class:`~repro.library.PatternLibrary`.  Every completed
        chunk is persisted (shard + manifest record); with ``resume=True``
        chunks already in the manifest are folded from disk instead of
        re-generated.  A library opened with ``writer=<id>`` appends under
        the shared library lock, so several graphs (or serve workers) can
        grow one library concurrently — each run resumes against its own
        writer ledger.
    """

    def __init__(
        self,
        sampling_engine: SamplingEngine,
        prefilter: TopologyPrefilter,
        legalization_engine: LegalizationEngine,
        checker: DesignRuleChecker,
        chunk_size: int = 32,
        num_solutions: int = 1,
        retain_topologies: bool = True,
        library: "PatternLibrary | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if num_solutions < 1:
            raise ValueError("num_solutions must be >= 1")
        self.sampling_engine = sampling_engine
        self.prefilter = prefilter
        self.legalization_engine = legalization_engine
        self.checker = checker
        self.chunk_size = int(chunk_size)
        self.num_solutions = int(num_solutions)
        self.retain_topologies = bool(retain_topologies)
        self.library = library
        self.last_report: "GenerationGraphReport | None" = None

    # ------------------------------------------------------------------ #
    def open_stream(self, seed: "int | np.random.Generator | None" = 0) -> GenerationStream:
        """Open an incremental :class:`GenerationStream` over this graph.

        Resolves the two base seeds exactly as :meth:`run` does — one draw
        for the sampling stage, then a second for legalization — so a stream
        advanced over ``[0, N)`` in any chunking matches ``run(N, seed)``
        element for element.
        """
        sample_seed = resolve_seed(seed)
        legal_seed = resolve_seed(seed)
        return GenerationStream(self, sample_seed, legal_seed)

    # ------------------------------------------------------------------ #
    def fingerprint(self, num_samples: int, sample_seed: int, legal_seed: int) -> dict:
        """The resume-safety identity of a run.

        Covers the seeds, the shape-changing knobs, the active design rules /
        prefilter configuration and the warm-start reference library —
        resuming under different rules or references would silently mix
        incompatibly-legalised chunks.  Model weights are *not*
        fingerprinted: reload the same checkpoint before resuming (the
        per-index seeding makes any weight change visibly alter the output,
        but the manifest cannot detect it).
        """
        return {
            "num_samples": int(num_samples),
            "sample_seed": int(sample_seed),
            "legal_seed": int(legal_seed),
            # The respaced step count changes the sampled values (unlike the
            # chunk/worker knobs), so resuming under a different schedule
            # must be rejected.
            "sampling_steps": self.sampling_engine.steps,
            "chunk_size": self.chunk_size,
            "num_solutions": self.num_solutions,
            "rules": repr(self.legalization_engine.rules),
            "prefilter": repr(self.prefilter.config),
            "references": _references_digest(self.legalization_engine.reference_geometries),
        }

    # ------------------------------------------------------------------ #
    def run(
        self,
        num_samples: int,
        seed: "int | np.random.Generator | None" = 0,
        resume: bool = False,
        stop_after_chunks: "int | None" = None,
    ) -> GenerationResult:
        """Stream ``num_samples`` topologies through the full graph.

        ``seed`` follows the pipeline convention: the sampling stage resolves
        one base seed from it, then the legalization stage resolves a second
        — the exact draws the batch path makes, so batch and streamed runs
        coincide.  ``stop_after_chunks`` ends the run early after that many
        chunks (the "kill" half of the resume tests and of incremental
        library building); the returned result covers only the completed
        chunks.

        A resumed result carries no raw ``topologies`` / ``kept_topologies``
        (the matrices of resumed chunks were never persisted and a partial
        array would misrepresent the run); patterns, reports and metrics
        still cover every chunk.

        Returns
        -------
        GenerationResult
            Element-wise identical to the monolithic batch run for any
            chunk size and worker count (the parity contract above).

        Raises
        ------
        ValueError
            If ``num_samples`` < 1.
        repro.library.LibraryError
            If the attached library's fingerprint does not match this run,
            or it holds completed chunks and ``resume`` is not set.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        sample_seed = resolve_seed(seed)
        legal_seed = resolve_seed(seed)

        starts = list(range(0, num_samples, self.chunk_size))
        report = GenerationGraphReport(
            num_requested=num_samples,
            chunk_size=self.chunk_size,
            num_chunks=len(starts),
        )
        resumed: dict[int, ChunkRecord] = {}
        if self.library is not None:
            records = self.library.bind(
                self.fingerprint(num_samples, sample_seed, legal_seed), resume=resume
            )
            resumed = {record.chunk: record for record in records}

        acc = _Accumulators(self.retain_topologies)
        resumed_stats = LegalizationStats()
        stream = GenerationStream(self, sample_seed, legal_seed)
        start_total = time.perf_counter()
        # One process pool for the whole run (no-op at workers=1): without it
        # a streamed run would pay pool startup — and re-ship the reference
        # library to every worker — once per chunk instead of once.
        with self.legalization_engine.pool():
            for chunk_index, start in enumerate(starts):
                if stop_after_chunks is not None and chunk_index >= stop_after_chunks:
                    break
                size = min(self.chunk_size, num_samples - start)
                if chunk_index in resumed:
                    self._fold_record(resumed[chunk_index], acc, resumed_stats)
                    report.chunks_resumed += 1
                    continue
                # Past any resumed chunks: the legalization offset is every
                # topology kept so far, stored or live.
                stream.seek((start, chunk_index, acc.num_kept))
                chunk = stream.advance(size)
                self._fold_chunk(chunk, acc, report)
                report.chunks_live += 1
        report.total_seconds = time.perf_counter() - start_total

        if report.chunks_resumed:
            # Raw matrices of resumed chunks were never persisted; a partial
            # topologies array would silently misrepresent the run, so a
            # resumed result carries none (patterns and metrics still cover
            # every chunk).
            acc.topology_chunks = []
            acc.kept_topologies = []

        legalization_report = report.legalization_report
        if resumed_stats.attempted:
            # Solver statistics of resumed chunks replay from the manifest so
            # the merged stats cover the whole library, not just live chunks.
            if legalization_report is None:
                legalization_report = LegalizationReport(
                    num_topologies=0,
                    num_solutions=self.num_solutions,
                    workers=self.legalization_engine.workers,
                    chunk_size=self.chunk_size,
                    num_chunks=0,
                )
                report.legalization_report = legalization_report
            legalization_report.stats.merge(resumed_stats)
            legalization_report.solver_seconds = legalization_report.stats.total_solver_time

        self.last_report = report
        return GenerationResult(
            topologies=acc.topologies_array(),
            kept_topologies=acc.kept_topologies,
            prefilter_reject_rate=acc.prefilter_reject_rate,
            patterns=acc.patterns,
            unsolved=acc.unsolved,
            topology_diversity=acc.topology_diversity,
            pattern_diversity=acc.pattern_diversity,
            legality=acc.legality,
            legalization_report=report.legalization_report,
            sampling_report=report.sampling_report,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _fold_chunk(
        self,
        chunk: StreamChunk,
        acc: _Accumulators,
        report: GenerationGraphReport,
    ) -> None:
        """Fold one live :class:`StreamChunk` into ``acc`` and ``report``."""
        if report.sampling_report is None:
            report.sampling_report = chunk.sampling_report
        else:
            report.sampling_report.merge(chunk.sampling_report)
        if report.legalization_report is None:
            report.legalization_report = chunk.legalization_report
        else:
            report.legalization_report.merge(chunk.legalization_report)
        report.prefilter_seconds += chunk.prefilter_seconds
        report.drc_seconds += chunk.drc_seconds

        acc.num_sampled += chunk.size
        acc.num_kept += chunk.num_kept
        acc.num_rejected += chunk.num_rejected
        acc.unsolved += chunk.unsolved
        acc.num_patterns += len(chunk.patterns)
        acc.num_clean += chunk.num_clean
        acc.topology_histogram.merge(chunk.topology_histogram)
        acc.pattern_histogram.merge(chunk.pattern_histogram)
        if acc.retain_topologies:
            acc.topology_chunks.append(chunk.matrices)
            acc.kept_topologies.extend(chunk.kept)

        stored = chunk.patterns
        if self.library is not None:
            stored = self.library.append_chunk(chunk.record(), chunk.chunk_patterns)
        acc.patterns.extend(stored)

    def _fold_record(
        self,
        record: ChunkRecord,
        acc: _Accumulators,
        resumed_stats: LegalizationStats,
    ) -> None:
        """Fold one already-completed chunk (manifest + shard) into ``acc``."""
        acc.num_sampled += record.num_sampled
        acc.num_kept += record.num_kept
        acc.num_rejected += record.num_rejected
        acc.unsolved += record.unsolved
        acc.num_patterns += record.num_stored
        acc.num_clean += record.num_clean
        acc.topology_histogram.merge(
            ComplexityHistogram.from_records(record.topology_complexity_counts)
        )
        acc.pattern_histogram.merge(
            ComplexityHistogram.from_records(record.pattern_complexity_counts)
        )
        acc.patterns.extend(self.library.load_record_patterns(record))
        resumed_stats.merge(LegalizationStats.from_dict(record.stats))
