"""Streaming-vs-batch parity suite for the generation stage graph.

The contract under test: a streamed run is *element-wise identical* to the
monolithic batch run for the same seed — same patterns, same diversity H bit
for bit, same legality — at every chunk size, and a killed-and-resumed run
reproduces the uninterrupted run from the library manifest.

Most cases drive the graph with a deterministic dataset-backed sampler stub
(per-index seeded like the real engine, so chunk invariance is preserved)
because real patterns must reach the legaliser/DRC/library stages; a smaller
set of cases runs the real trained sampling engine end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.drc import DesignRuleChecker
from repro.legalization import LegalizationEngine
from repro.library import (
    ChunkRecord,
    LibraryError,
    PatternLibrary,
    migrate_library,
    pattern_hash,
)
from repro.pipeline import (
    DiffPatternConfig,
    DiffPatternPipeline,
    GenerationGraph,
    compare_complexity_distributions,
    compare_complexity_histograms,
    measure_streamed_generation,
)
from repro.pipeline.sampling_engine import SamplingReport
from repro.prefilter import TopologyPrefilter
from repro.utils import resolve_seed

NUM_SAMPLES = 18
CHUNK_SIZES = (1, 7, 64)


class DatasetSamplingEngine:
    """Deterministic stand-in for :class:`SamplingEngine`.

    "Samples" by drawing real dataset tensors with one independent stream per
    sample index (``default_rng([seed, index])``), so it honours the same
    chunk-invariance contract as the real engine while guaranteeing the
    prefilter keeps (most of) the output.
    """

    #: Part of the engine contract fingerprinted by the graph (full chain).
    steps = None

    def __init__(self, tensors: np.ndarray) -> None:
        self.tensors = np.asarray(tensors)

    def sample_with_report(
        self, num_samples: int, seed=0, first_index: int = 0, **_kwargs
    ) -> tuple[np.ndarray, SamplingReport]:
        base = resolve_seed(seed)
        picks = [
            int(np.random.default_rng([base, first_index + i]).integers(0, len(self.tensors)))
            for i in range(num_samples)
        ]
        report = SamplingReport(
            num_samples=num_samples, num_steps=0, batch_size=num_samples, num_chunks=1
        )
        return self.tensors[picks], report


@pytest.fixture(scope="module")
def graph_parts(tiny_dataset, rules):
    sampler = DatasetSamplingEngine(tiny_dataset.topology_tensors("train"))
    references = tiny_dataset.reference_geometries("train")
    return sampler, references


def build_graph(graph_parts, rules, chunk_size, num_solutions=2, library=None, retain=True):
    sampler, references = graph_parts
    return GenerationGraph(
        sampler,
        TopologyPrefilter(),
        LegalizationEngine(rules, reference_geometries=references),
        DesignRuleChecker(rules),
        chunk_size=chunk_size,
        num_solutions=num_solutions,
        retain_topologies=retain,
        library=library,
    )


def assert_results_identical(a, b, compare_topologies=True):
    """Element-wise identity of two GenerationResults (the parity contract)."""
    if compare_topologies:
        np.testing.assert_array_equal(a.topologies, b.topologies)
        assert len(a.kept_topologies) == len(b.kept_topologies)
        for ka, kb in zip(a.kept_topologies, b.kept_topologies):
            np.testing.assert_array_equal(ka, kb)
    assert a.num_patterns == b.num_patterns
    for pa, pb in zip(a.patterns, b.patterns):
        np.testing.assert_array_equal(pa.topology, pb.topology)
        np.testing.assert_array_equal(pa.delta_x, pb.delta_x)
        np.testing.assert_array_equal(pa.delta_y, pb.delta_y)
    assert a.prefilter_reject_rate == b.prefilter_reject_rate
    assert a.unsolved == b.unsolved
    assert a.topology_diversity == b.topology_diversity
    assert a.pattern_diversity == b.pattern_diversity
    assert a.legality == b.legality


class TestChunkSizeParity:
    @pytest.fixture(scope="class")
    def batch_result(self, graph_parts, rules):
        # One chunk spanning the run == the monolithic barrier path.
        return build_graph(graph_parts, rules, chunk_size=NUM_SAMPLES).run(NUM_SAMPLES, seed=11)

    def test_batch_run_produces_patterns(self, batch_result):
        # Guard: the parity assertions below are vacuous on an empty library.
        assert batch_result.num_patterns > 0
        assert batch_result.legality == 1.0
        assert batch_result.pattern_diversity > 0

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streamed_equals_batch(self, graph_parts, rules, batch_result, chunk_size):
        streamed = build_graph(graph_parts, rules, chunk_size=chunk_size).run(
            NUM_SAMPLES, seed=11
        )
        assert_results_identical(batch_result, streamed)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_report_structure_matches(self, graph_parts, rules, batch_result, chunk_size):
        streamed = build_graph(graph_parts, rules, chunk_size=chunk_size).run(
            NUM_SAMPLES, seed=11
        )
        assert streamed.sampling_report.num_samples == NUM_SAMPLES
        batch_stats = batch_result.legalization_report.stats
        stream_stats = streamed.legalization_report.stats
        assert stream_stats.attempted == batch_stats.attempted
        assert stream_stats.solved == batch_stats.solved
        assert stream_stats.solutions == batch_stats.solutions
        assert stream_stats.total_iterations == batch_stats.total_iterations
        assert (
            streamed.legalization_report.num_topologies
            == batch_result.legalization_report.num_topologies
        )

    def test_worker_count_invariance(self, graph_parts, rules, batch_result):
        # first_index must survive the process-pool shard path unchanged.
        sampler, references = graph_parts
        streamed = GenerationGraph(
            sampler,
            TopologyPrefilter(),
            LegalizationEngine(rules, reference_geometries=references, workers=2),
            DesignRuleChecker(rules),
            chunk_size=7,
            num_solutions=2,
        ).run(NUM_SAMPLES, seed=11)
        assert_results_identical(batch_result, streamed)

    def test_retain_topologies_off_keeps_metrics(self, graph_parts, rules, batch_result):
        streamed = build_graph(graph_parts, rules, chunk_size=7, retain=False).run(
            NUM_SAMPLES, seed=11
        )
        assert streamed.topologies.size == 0
        assert streamed.kept_topologies == []
        assert_results_identical(batch_result, streamed, compare_topologies=False)

    def test_streamed_metrics_match_batch_formulas(self, graph_parts, rules, batch_result):
        # Diversity from the streaming accumulator must equal the batch
        # metric recomputed from the materialised library, bit for bit.
        from repro.metrics import pattern_diversity, topology_diversity

        assert batch_result.pattern_diversity == pattern_diversity(batch_result.patterns)
        assert batch_result.topology_diversity == topology_diversity(
            list(batch_result.topologies)
        )

    def test_histogram_figure_matches_pattern_figure(self, graph_parts, rules):
        graph = build_graph(graph_parts, rules, chunk_size=5)
        result = graph.run(NUM_SAMPLES, seed=11)
        # Fig. 9 built from streaming accumulators == built from patterns.
        from repro.metrics import ComplexityHistogram, pattern_complexity

        real_hist = ComplexityHistogram([pattern_complexity(p) for p in result.patterns])
        via_hist = compare_complexity_histograms(real_hist, real_hist)
        via_patterns = compare_complexity_distributions(result.patterns, result.patterns)
        np.testing.assert_array_equal(
            via_hist.real_distribution, via_patterns.real_distribution
        )
        assert via_hist.overlap() == via_patterns.overlap() == 1.0


class TestLibraryResume:
    def test_resume_after_kill_reproduces_uninterrupted_run(
        self, graph_parts, rules, tmp_path
    ):
        uninterrupted = build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "full")
        ).run(NUM_SAMPLES, seed=11)

        # "Kill" the second run after 2 of 4 chunks ...
        partial = build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "killed")
        ).run(NUM_SAMPLES, seed=11, stop_after_chunks=2)
        assert partial.num_patterns < uninterrupted.num_patterns

        # ... and resume it from the manifest with a fresh graph/library object.
        resumed_graph = build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "killed")
        )
        resumed = resumed_graph.run(NUM_SAMPLES, seed=11, resume=True)
        assert resumed_graph.last_report.chunks_resumed == 2
        assert resumed_graph.last_report.chunks_live == 2
        assert "2 generated, 2 resumed" in resumed_graph.last_report.format()
        # Resumed chunks never persisted their raw matrices, so the result
        # deliberately carries none rather than a misleading partial array.
        assert resumed.topologies.size == 0
        assert resumed.kept_topologies == []
        assert_results_identical(uninterrupted, resumed, compare_topologies=False)
        # Every legalization counter replays from the manifest; solver time
        # is measured per run, so only it may differ.
        stats = resumed.legalization_report.stats.as_dict()
        expected = uninterrupted.legalization_report.stats.as_dict()
        del stats["total_solver_time"], expected["total_solver_time"]
        assert stats == expected

        # Both libraries hold identical pattern sequences on disk.
        full = PatternLibrary(tmp_path / "full").load_patterns()
        killed = PatternLibrary(tmp_path / "killed").load_patterns()
        assert len(full) == len(killed) == uninterrupted.num_patterns
        for pa, pb in zip(full, killed):
            np.testing.assert_array_equal(pa.topology, pb.topology)
            np.testing.assert_array_equal(pa.delta_x, pb.delta_x)
            np.testing.assert_array_equal(pa.delta_y, pb.delta_y)

    def test_compacted_v1_library_resumes_as_legacy_writer(
        self, graph_parts, rules, tmp_path, write_v1_library
    ):
        uninterrupted = build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "full")
        ).run(NUM_SAMPLES, seed=11)

        # A v1 library holding the first 2 of 4 chunks of a killed run.
        partial = PatternLibrary(tmp_path / "partial")
        build_graph(graph_parts, rules, chunk_size=5, library=partial).run(
            NUM_SAMPLES, seed=11, stop_after_chunks=2
        )
        chunks = [
            (ChunkRecord.from_dict(record.as_dict()), partial.load_record_patterns(record))
            for record in partial.own_records()
        ]
        root = write_v1_library(tmp_path / "v1", chunks, fingerprint=partial.fingerprint)

        def resume(writer):
            library = PatternLibrary(root, writer=writer)
            graph = build_graph(graph_parts, rules, chunk_size=5, library=library)
            return graph, graph.run(NUM_SAMPLES, seed=11, resume=True)

        # Unmigrated, neither the default writer nor `legacy` may continue it.
        for writer in (None, "legacy"):
            with pytest.raises(LibraryError, match="compact-library"):
                resume(writer)
        # What `repro compact-library` runs.  The migrated library reads as
        # the store that read v1 in place did (summary pinned from it) and
        # holds the killed run's patterns.
        assert migrate_library(root) == 2
        PatternLibrary(root).compact()
        migrated = PatternLibrary(root)
        assert migrated.summary() == {
            "chunks": 2, "patterns": 20, "unique_topologies": 9,
            "diversity": 3.121928094887362, "legality": 1.0,
        }
        assert [pattern_hash(p) for p in migrated.load_patterns()] == [
            pattern_hash(p) for p in partial.load_patterns()
        ]
        graph, resumed = resume("legacy")
        assert graph.last_report.chunks_resumed == 2
        assert graph.last_report.chunks_live == 2
        assert_results_identical(uninterrupted, resumed, compare_topologies=False)
        assert PatternLibrary(root).summary() == PatternLibrary(tmp_path / "full").summary()
        assert PatternLibrary(root).summary() == {
            "chunks": 4, "patterns": 36, "unique_topologies": 16,
            "diversity": 3.614369445886757, "legality": 1.0,
        }

    def test_library_accounting_matches_result(self, graph_parts, rules, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        result = build_graph(graph_parts, rules, chunk_size=7, library=library).run(
            NUM_SAMPLES, seed=11
        )
        assert library.num_patterns == result.num_patterns
        assert library.diversity() == result.pattern_diversity
        assert library.legality() == result.legality
        assert library.num_unique_topologies <= result.num_patterns
        reopened = PatternLibrary(tmp_path / "lib")
        assert reopened.summary() == library.summary()

    def test_fingerprint_mismatch_is_rejected(self, graph_parts, rules, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        build_graph(graph_parts, rules, chunk_size=5, library=library).run(
            NUM_SAMPLES, seed=11, stop_after_chunks=1
        )
        other_seed = build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "lib")
        )
        with pytest.raises(LibraryError, match="fingerprint"):
            other_seed.run(NUM_SAMPLES, seed=12, resume=True)

    def test_changed_rules_are_rejected_on_resume(self, graph_parts, rules, tmp_path):
        from repro.legalization import DesignRules

        build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "lib")
        ).run(NUM_SAMPLES, seed=11, stop_after_chunks=1)
        sampler, references = graph_parts
        other_rules = DesignRules(space_min=rules.space_min + 1)
        changed = GenerationGraph(
            sampler,
            TopologyPrefilter(),
            LegalizationEngine(other_rules, reference_geometries=references),
            DesignRuleChecker(other_rules),
            chunk_size=5,
            num_solutions=2,
            library=PatternLibrary(tmp_path / "lib"),
        )
        with pytest.raises(LibraryError, match="fingerprint"):
            changed.run(NUM_SAMPLES, seed=11, resume=True)

    def test_dedup_library_metrics_describe_returned_patterns(
        self, graph_parts, rules, tmp_path
    ):
        from repro.metrics import pattern_diversity

        library = PatternLibrary(tmp_path / "lib", dedup=True)
        result = build_graph(graph_parts, rules, chunk_size=7, library=library).run(
            NUM_SAMPLES, seed=11
        )
        assert result.num_patterns == library.num_patterns
        assert result.pattern_diversity == pattern_diversity(result.patterns)
        assert result.legality in (0.0, 1.0)
        assert library.diversity() == result.pattern_diversity
        assert library.legality() == result.legality

    def test_populated_library_requires_resume_flag(self, graph_parts, rules, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        build_graph(graph_parts, rules, chunk_size=5, library=library).run(
            NUM_SAMPLES, seed=11, stop_after_chunks=1
        )
        again = build_graph(
            graph_parts, rules, chunk_size=5, library=PatternLibrary(tmp_path / "lib")
        )
        with pytest.raises(LibraryError, match="resume"):
            again.run(NUM_SAMPLES, seed=11)


class TestPipelineIntegration:
    """The real trained engine end to end (quality-independent assertions)."""

    @pytest.fixture(scope="class")
    def streamed_and_batch(self, tiny_dataset):
        def run(chunk_size):
            pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
            pipeline.prepare_data(dataset=tiny_dataset)
            pipeline.train(iterations=10, rng=0)
            return pipeline.generate_and_legalize(9, rng=3, chunk_size=chunk_size)

        # One barrier chunk spanning the run, and chunks of four.
        return run(9), run(4)

    def test_run_stream_matches_batch(self, streamed_and_batch):
        batch, streamed = streamed_and_batch
        assert_results_identical(batch, streamed)

    def test_sampling_report_is_carried(self, streamed_and_batch):
        batch, streamed = streamed_and_batch
        for result in (batch, streamed):
            assert result.sampling_report is not None
            assert result.sampling_report.num_samples == 9
            assert result.legalization_report is not None

    def test_last_sampling_report_aggregates_streamed_chunks(self, tiny_dataset):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        pipeline.prepare_data(dataset=tiny_dataset)
        pipeline.train(iterations=10, rng=0)
        pipeline.generate_and_legalize(9, rng=3, chunk_size=4)
        # The merged report covers every chunk, not just the last one.
        assert pipeline.last_sampling_report.num_samples == 9
        # A plain generate call still reports that call alone.
        pipeline.generate_topologies(2, rng=0)
        assert pipeline.last_sampling_report.num_samples == 2

    def test_legalize_leaves_sampling_report_empty(self, tiny_dataset, rules):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        pipeline.prepare_data(dataset=tiny_dataset)
        result = pipeline.legalize(tiny_dataset.topology_matrices("test")[:2], rng=0)
        assert result.sampling_report is None

    def test_measure_streamed_generation(self, tiny_dataset):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        pipeline.prepare_data(dataset=tiny_dataset)
        pipeline.train(iterations=10, rng=0)
        measured = measure_streamed_generation(pipeline, 4, chunk_size=2, rng=0)
        assert measured.seconds > 0
        assert measured.peak_bytes > 0
        assert measured.result.sampling_report.num_samples == 4


class TestGraphValidation:
    def test_rejects_bad_chunk_size(self, graph_parts, rules):
        with pytest.raises(ValueError):
            build_graph(graph_parts, rules, chunk_size=0)

    def test_rejects_bad_num_samples(self, graph_parts, rules):
        with pytest.raises(ValueError):
            build_graph(graph_parts, rules, chunk_size=4).run(0, seed=1)


class TestGenerationStream:
    """The incremental pull handle behind `repro serve` (PR 7)."""

    @pytest.fixture(scope="class")
    def batch_result(self, graph_parts, rules):
        return build_graph(graph_parts, rules, chunk_size=NUM_SAMPLES).run(NUM_SAMPLES, seed=11)

    @pytest.mark.parametrize("sizes", [(18,), (1,) * 18, (7, 7, 4), (5, 9, 4)])
    def test_any_advance_chunking_matches_batch(
        self, graph_parts, rules, batch_result, sizes
    ):
        stream = build_graph(graph_parts, rules, chunk_size=4).open_stream(seed=11)
        patterns, sources = [], []
        for size in sizes:
            chunk = stream.advance(size)
            assert chunk.end == chunk.start + size
            assert len(chunk.pattern_sources) == len(chunk.patterns)
            patterns.extend(chunk.patterns)
            sources.extend(chunk.pattern_sources)
        assert stream.next_start == NUM_SAMPLES
        assert len(patterns) == batch_result.num_patterns
        for ours, theirs in zip(patterns, batch_result.patterns):
            np.testing.assert_array_equal(ours.topology, theirs.topology)
            np.testing.assert_array_equal(ours.delta_x, theirs.delta_x)
            np.testing.assert_array_equal(ours.delta_y, theirs.delta_y)
        # Source indices are absolute sample positions, strictly grouped.
        assert sources == sorted(sources)
        assert all(0 <= s < NUM_SAMPLES for s in sources)

    def test_kept_indices_align_with_prefilter(self, graph_parts, rules):
        stream = build_graph(graph_parts, rules, chunk_size=4).open_stream(seed=11)
        chunk = stream.advance(NUM_SAMPLES)
        assert len(chunk.kept) == len(chunk.kept_indices)
        assert len(chunk.kept) + chunk.num_rejected == NUM_SAMPLES
        for index, matrix in zip(chunk.kept_indices, chunk.kept):
            np.testing.assert_array_equal(matrix, chunk.matrices[index - chunk.start])
        # Every pattern's source survived the prefilter.
        assert set(chunk.pattern_sources) <= set(chunk.kept_indices)
        assert chunk.num_clean == int(chunk.clean_mask.sum())

    def test_stream_rejects_bad_size(self, graph_parts, rules):
        stream = build_graph(graph_parts, rules, chunk_size=4).open_stream(seed=11)
        with pytest.raises(ValueError):
            stream.advance(0)
