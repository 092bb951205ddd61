"""Parity and behaviour tests for the parallel legalization engine.

The engine's contract mirrors the sampling engine's: for a fixed seed, the
legalised patterns, solver iteration counts and merged statistics are
*element-wise identical* no matter how the batch is sharded — serially
in-process, across 2 or 4 worker processes, with any chunk size.  Every
topology index owns an independent ``SeedSequence``-spawned stream, so a
topology's result depends only on ``(seed, index)``, never on the batch
around it.
"""

import multiprocessing

import numpy as np
import pytest

from repro.legalization import (
    LegalizationEngine,
    LegalizationStats,
    Legalizer,
    ReferenceIndex,
)


@pytest.fixture(scope="module")
def topology_batch(two_shape_topology):
    """Six small topologies (two distinct shapes, repeated)."""
    other = np.zeros((8, 8), dtype=np.uint8)
    other[2:5, 3:6] = 1
    return [two_shape_topology, other] * 3


@pytest.fixture(scope="module")
def references(rules):
    """A tiny warm-start library matching the 8x8 constraint shapes."""
    rng = np.random.default_rng(0)
    refs = []
    for cols, rows in ((8, 8), (8, 8), (6, 7)):
        dx = rng.dirichlet(np.full(cols, 2.0)) * rules.pattern_size
        dy = rng.dirichlet(np.full(rows, 2.0)) * rules.pattern_size
        refs.append((dx, dy))
    return refs


def signatures(results):
    """Hashable per-topology outcome: geometry vectors + iteration counts."""
    out = []
    for result in results:
        out.append(
            (
                tuple(tuple(p.delta_x.tolist()) for p in result.patterns),
                tuple(tuple(p.delta_y.tolist()) for p in result.patterns),
                tuple(s.iterations for s in result.solutions),
            )
        )
    return out


class TestShardInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_serial(self, rules, topology_batch, workers):
        serial = LegalizationEngine(rules, workers=1)
        parallel = LegalizationEngine(rules, workers=workers)
        a, report_a = serial.legalize_batch_with_report(topology_batch, num_solutions=2, seed=3)
        b, report_b = parallel.legalize_batch_with_report(topology_batch, num_solutions=2, seed=3)
        assert signatures(a) == signatures(b)
        assert report_a.stats == report_b.stats or (
            # solver wall-clock differs across runs; everything else must match
            report_a.stats.attempted == report_b.stats.attempted
            and report_a.stats.solved == report_b.stats.solved
            and report_a.stats.failed == report_b.stats.failed
            and report_a.stats.solutions == report_b.stats.solutions
            and report_a.stats.total_iterations == report_b.stats.total_iterations
        )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 6])
    def test_chunk_size_does_not_change_output(self, rules, topology_batch, chunk):
        engine = LegalizationEngine(rules, workers=1)
        reference = engine.legalize_batch(topology_batch, num_solutions=2, seed=5)
        chunked = engine.legalize_batch(topology_batch, num_solutions=2, seed=5, chunk_size=chunk)
        assert signatures(reference) == signatures(chunked)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_index_offsets_the_streams(self, rules, topology_batch, workers):
        # Windowed legalisation equals the same window of one monolithic
        # call — the streaming graph legalises consecutive kept-windows
        # through exactly this offset (including across the process pool).
        engine = LegalizationEngine(rules, workers=workers)
        full = engine.legalize_batch(topology_batch, num_solutions=2, seed=9)
        window = engine.legalize_batch(
            topology_batch[2:5], num_solutions=2, seed=9, first_index=2
        )
        assert signatures(full[2:5]) == signatures(window)

    def test_persistent_pool_matches_per_call_pools(self, rules, topology_batch):
        # The streaming graph holds one pool across all its chunk calls;
        # the output must equal fresh-pool-per-call runs exactly.
        engine = LegalizationEngine(rules, workers=2)
        reference = signatures(engine.legalize_batch(topology_batch, num_solutions=2, seed=9))
        with engine.pool():
            first = engine.legalize_batch(topology_batch[:3], num_solutions=2, seed=9)
            second = engine.legalize_batch(
                topology_batch[3:], num_solutions=2, seed=9, first_index=3
            )
            # Re-entering is a no-op, not a second pool.
            with engine.pool():
                assert engine._pool is not None
        assert engine._pool is None
        assert signatures(first + second) == reference

    def test_pool_is_noop_for_serial_engine(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        with engine.pool():
            assert engine._pool is None
            results = engine.legalize_batch(topology_batch, seed=2)
        assert signatures(results) == signatures(engine.legalize_batch(topology_batch, seed=2))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_daemonic_process_legalizes_in_process(self, rules, topology_batch):
        # A supervised serve worker is a daemonic process, which may not
        # start a pool: a multi-worker engine there legalizes in-process,
        # with the same output, instead of failing.
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        engine = LegalizationEngine(rules, workers=2)

        def run():
            try:
                with engine.pool():
                    results = engine.legalize_batch(topology_batch, num_solutions=2, seed=4)
                sender.send(signatures(results))
            except Exception as error:  # surfaced to the parent's assertion
                sender.send(repr(error))

        worker = ctx.Process(target=run, daemon=True)
        worker.start()
        assert receiver.poll(120)
        received = receiver.recv()
        worker.join()
        serial = LegalizationEngine(rules, workers=1).legalize_batch(
            topology_batch, num_solutions=2, seed=4
        )
        assert received == signatures(serial)

    def test_first_index_rejects_negative(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        with pytest.raises(ValueError):
            engine.legalize_batch(topology_batch, seed=0, first_index=-1)

    def test_parallel_chunking_matrix(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        reference = signatures(engine.legalize_batch(topology_batch, seed=11))
        for workers in (2, 4):
            for chunk in (1, 3):
                engine = LegalizationEngine(rules, workers=workers, chunk_size=chunk)
                assert signatures(engine.legalize_batch(topology_batch, seed=11)) == reference

    def test_warm_start_references_preserved_across_workers(
        self, rules, topology_batch, references
    ):
        serial = LegalizationEngine(rules, reference_geometries=references, workers=1)
        parallel = LegalizationEngine(rules, reference_geometries=references, workers=2)
        a = serial.legalize_batch(topology_batch, num_solutions=2, seed=0)
        b = parallel.legalize_batch(topology_batch, num_solutions=2, seed=0, chunk_size=1)
        assert signatures(a) == signatures(b)

    def test_engine_reference_update_respected_serially(
        self, rules, references, topology_batch
    ):
        # The serial path must not cache a legaliser across calls: updating
        # the warm-start library changes the next run, same as workers>1.
        engine = LegalizationEngine(rules, workers=1)
        cold = engine.legalize_batch(topology_batch[:2], num_solutions=1, seed=0)
        engine.reference_geometries = references
        warm = engine.legalize_batch(topology_batch[:2], num_solutions=1, seed=0)
        assert signatures(cold) != signatures(warm)
        parallel = LegalizationEngine(rules, reference_geometries=references, workers=2)
        warm_parallel = parallel.legalize_batch(
            topology_batch[:2], num_solutions=1, seed=0, chunk_size=1
        )
        assert signatures(warm) == signatures(warm_parallel)

    def test_prefix_stability(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        many = engine.legalize_batch(topology_batch, seed=7)
        few = engine.legalize_batch(topology_batch[:2], seed=7)
        assert signatures(many)[:2] == signatures(few)

    def test_single_topology_rerun_reproduces_batch_element(self, rules, topology_batch):
        # Per-index streams: element i is reproducible on its own at the same
        # index, independent of batch composition (the RNG-accounting fix).
        engine = LegalizationEngine(rules, workers=1)
        batch = engine.legalize_batch(topology_batch, seed=9)
        legalizer = Legalizer(rules)
        lone = legalizer.legalize_batch(
            [topology_batch[3]], num_solutions=1, rng=9, first_index=3
        )
        assert signatures([batch[3]]) == signatures(lone)

    def test_batch_composition_does_not_leak_between_elements(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        original = engine.legalize_batch(topology_batch, seed=2)
        swapped = list(topology_batch)
        swapped[5] = np.ones((4, 4), dtype=np.uint8)  # change only the last element
        perturbed = engine.legalize_batch(swapped, seed=2)
        assert signatures(original)[:5] == signatures(perturbed)[:5]


class TestLegalizerBatchSeeding:
    def test_engine_serial_matches_legalizer_batch(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        legalizer = Legalizer(rules)
        a = engine.legalize_batch(topology_batch, num_solutions=2, seed=4)
        b = legalizer.legalize_batch(topology_batch, num_solutions=2, rng=4)
        assert signatures(a) == signatures(b)

    def test_int_seed_reproducible(self, rules, topology_batch):
        legalizer = Legalizer(rules)
        a = legalizer.legalize_batch(topology_batch, rng=6)
        b = legalizer.legalize_batch(topology_batch, rng=6)
        assert signatures(a) == signatures(b)

    def test_generator_seed_draws_once(self, rules, topology_batch):
        legalizer = Legalizer(rules)
        a = legalizer.legalize_batch(topology_batch, rng=np.random.default_rng(1))
        b = legalizer.legalize_batch(topology_batch, rng=np.random.default_rng(1))
        assert signatures(a) == signatures(b)


class TestStatsAndReport:
    def test_stats_merge_is_additive(self):
        a = LegalizationStats(attempted=2, solved=1, failed=1, total_solver_time=0.5,
                              total_iterations=10, solutions=3)
        b = LegalizationStats(attempted=3, solved=3, failed=0, total_solver_time=1.5,
                              total_iterations=20, solutions=4)
        a.merge(b)
        assert a.attempted == 5 and a.solved == 4 and a.failed == 1
        assert a.total_solver_time == 2.0
        assert a.total_iterations == 30 and a.solutions == 7

    def test_report_counts_and_throughput(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        results, report = engine.legalize_batch_with_report(topology_batch, seed=0)
        assert report.num_topologies == len(topology_batch)
        assert report.stats.attempted == len(topology_batch)
        assert report.total_seconds > 0
        assert report.topologies_per_second > 0
        assert report.solver_seconds == report.stats.total_solver_time
        assert 0.0 <= report.success_rate <= 1.0
        assert report.stats.solutions == sum(len(r.patterns) for r in results)
        assert "topologies/s" in report.format()

    def test_merged_stats_match_monolithic_run(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=2)
        _, sharded = engine.legalize_batch_with_report(topology_batch, seed=1, chunk_size=1)
        legalizer = Legalizer(rules)
        legalizer.legalize_batch(topology_batch, rng=1)
        mono = legalizer.stats
        assert sharded.stats.attempted == mono.attempted
        assert sharded.stats.solved == mono.solved
        assert sharded.stats.failed == mono.failed
        assert sharded.stats.solutions == mono.solutions
        assert sharded.stats.total_iterations == mono.total_iterations

    def test_last_report_retained(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        assert engine.last_report is None
        engine.legalize_batch(topology_batch[:2], seed=0)
        assert engine.last_report is not None
        assert engine.last_report.num_topologies == 2
        assert engine.stats.attempted == 2

    def test_empty_batch(self, rules):
        engine = LegalizationEngine(rules, workers=2)
        results, report = engine.legalize_batch_with_report([], seed=0)
        assert results == []
        assert report.num_topologies == 0
        assert report.stats.attempted == 0

    def test_legal_patterns_flattens(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        patterns = engine.legal_patterns(topology_batch, num_solutions=2, seed=0)
        results = engine.legalize_batch(topology_batch, num_solutions=2, seed=0)
        assert len(patterns) == sum(len(r.patterns) for r in results)


class TestArguments:
    def test_rejects_bad_workers(self, rules):
        with pytest.raises(ValueError):
            LegalizationEngine(rules, workers=0)

    def test_rejects_bad_chunk_size(self, rules):
        with pytest.raises(ValueError):
            LegalizationEngine(rules, chunk_size=0)
        engine = LegalizationEngine(rules, workers=1)
        with pytest.raises(ValueError):
            engine.legalize_batch([np.ones((2, 2), dtype=np.uint8)], chunk_size=0)

    def test_workers_none_uses_host_default(self, rules):
        from repro.legalization import default_workers

        engine = LegalizationEngine(rules, workers=None)
        assert engine.workers == default_workers() >= 1


class TestReferenceIndex:
    def test_buckets_match_linear_scan(self, references):
        index = ReferenceIndex(references)
        assert len(index) == 3
        # (rows, cols) = (8, 8) bucket holds the two 8x8 pairs, in order.
        candidates = index.candidates((8, 8))
        assert len(candidates) == 2
        np.testing.assert_allclose(candidates[0][0], references[0][0])
        np.testing.assert_allclose(candidates[1][0], references[1][0])
        assert len(index.candidates((7, 6))) == 1
        assert index.candidates((3, 3)) == []

    def test_pick_matches_legacy_draw(self, references):
        # The bucketed pick must draw the same pair the old O(library) scan
        # drew: uniform over matching candidates in insertion order.
        index = ReferenceIndex(references)
        shape = (8, 8)
        rows, cols = shape
        legacy_candidates = [
            (dx, dy) for dx, dy in references if len(dx) == cols and len(dy) == rows
        ]
        for seed in range(5):
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            dx, dy = index.pick(shape, rng_new)
            expected_dx, expected_dy = legacy_candidates[
                int(rng_old.integers(0, len(legacy_candidates)))
            ]
            np.testing.assert_allclose(dx, expected_dx)
            np.testing.assert_allclose(dy, expected_dy)

    def test_pick_empty_returns_none_without_drawing(self):
        index = ReferenceIndex([])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert index.pick((4, 4), rng) == (None, None)
        assert rng.bit_generator.state == before

    def test_legalizer_uses_index(self, rules, references, two_shape_topology):
        legalizer = Legalizer(rules, reference_geometries=references)
        assert len(legalizer.reference_index) == len(references)
        result = legalizer.legalize_topology(two_shape_topology, num_solutions=1, rng=0)
        assert result.solved

    def test_reassigning_references_rebuilds_index(self, rules, references):
        legalizer = Legalizer(rules)
        assert len(legalizer.reference_index) == 0
        legalizer.reference_geometries = references
        assert len(legalizer.reference_index) == len(references)
        assert len(legalizer.reference_index.candidates((8, 8))) == 2

    def test_in_place_append_is_picked_up(self, rules, references):
        legalizer = Legalizer(rules, reference_geometries=references[:1])
        legalizer.reference_geometries.append(references[1])
        dx, dy = legalizer._pick_targets((8, 8), np.random.default_rng(0))
        assert dx is not None and dy is not None
        assert len(legalizer.reference_index) == 2


class TestPipelineIntegration:
    def test_pipeline_legalize_worker_invariant(self, trained_tiny_pipeline, tiny_dataset):
        topologies = tiny_dataset.topology_matrices("test")[:4]
        serial = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0, workers=1)
        parallel = trained_tiny_pipeline.legalize(
            topologies, num_solutions=1, rng=0, workers=2, chunk_size=1
        )
        assert len(serial.patterns) == len(parallel.patterns)
        for a, b in zip(serial.patterns, parallel.patterns):
            np.testing.assert_array_equal(a.delta_x, b.delta_x)
            np.testing.assert_array_equal(a.delta_y, b.delta_y)
        assert serial.legality == parallel.legality

    def test_pipeline_records_legalization_report(self, trained_tiny_pipeline, tiny_dataset):
        topologies = tiny_dataset.topology_matrices("test")[:2]
        result = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0)
        assert result.legalization_report is not None
        assert trained_tiny_pipeline.last_legalization_report is result.legalization_report
        assert result.legalization_report.num_topologies == len(result.kept_topologies)

    def test_pipeline_engine_uses_config_knobs(self, trained_tiny_pipeline):
        config = trained_tiny_pipeline.config
        original = (config.workers, config.legalize_chunk_size)
        try:
            config.workers = 3
            config.legalize_chunk_size = 2
            engine = trained_tiny_pipeline.legalization_engine()
            assert engine.workers == 3
            assert engine.chunk_size == 2
        finally:
            config.workers, config.legalize_chunk_size = original

    def test_measure_batch_legalization(self, tiny_dataset, rules):
        from repro.pipeline import measure_batch_legalization

        topologies = list(tiny_dataset.topology_matrices("test")[:3])
        report = measure_batch_legalization(topologies, rules, workers=1, seed=0)
        assert report.num_topologies == 3
        assert report.total_seconds > 0
