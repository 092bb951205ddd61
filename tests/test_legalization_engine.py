"""Parity and behaviour tests for the parallel legalization engine.

The engine's contract mirrors the sampling engine's: for a fixed seed, the
legalised patterns, solver iteration counts and merged statistics are
*element-wise identical* no matter how the batch is sharded — serially
in-process, across 2 or 4 worker processes, with any chunk size.  Every
topology index owns an independent ``SeedSequence``-spawned stream, so a
topology's result depends only on ``(seed, index)``, never on the batch
around it.
"""

import dataclasses
import json
import multiprocessing

import numpy as np
import pytest
from legalization_helpers import legalize_alone

from repro.legalization import LegalizationEngine, LegalizationStats, ReferenceIndex
from repro.utils import resolve_seed


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
        reference = LegalizationEngine(rules, workers=1).legalize_batch(
            topology_batch, num_solutions=2, seed=5
        )
        chunked = LegalizationEngine(rules, workers=1, chunk_size=chunk).legalize_batch(
            topology_batch, num_solutions=2, seed=5
        )
        assert signatures(reference) == signatures(chunked)

    def test_in_process_call_is_one_chunk(self, rules, topology_batch):
        # Without a pool there is nothing to balance: the whole call is one
        # chunk solve, element-wise identical to chunks of one and to the
        # pooled run.
        batch = topology_batch + topology_batch[:2]
        assert len(batch) == 8
        whole, report = LegalizationEngine(rules, workers=1).legalize_batch_with_report(
            batch, num_solutions=2, seed=6
        )
        assert (report.num_chunks, report.chunk_size) == (1, 8)
        singles, single_report = LegalizationEngine(
            rules, workers=1, chunk_size=1
        ).legalize_batch_with_report(batch, num_solutions=2, seed=6)
        assert single_report.num_chunks == 8
        pooled, pooled_report = LegalizationEngine(rules, workers=2).legalize_batch_with_report(
            batch, num_solutions=2, seed=6
        )
        assert pooled_report.num_chunks == 8  # ~4 tasks per worker
        assert signatures(whole) == signatures(singles) == signatures(pooled)

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
        parallel = LegalizationEngine(
            rules, reference_geometries=references, workers=2, chunk_size=1
        )
        a = serial.legalize_batch(topology_batch, num_solutions=2, seed=0)
        b = parallel.legalize_batch(topology_batch, num_solutions=2, seed=0)
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
        parallel = LegalizationEngine(
            rules, reference_geometries=references, workers=2, chunk_size=1
        )
        warm_parallel = parallel.legalize_batch(topology_batch[:2], num_solutions=1, seed=0)
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
        lone = engine.legalize_batch([topology_batch[3]], seed=9, first_index=3)
        assert signatures([batch[3]]) == signatures(lone)

    def test_batch_composition_does_not_leak_between_elements(self, rules, topology_batch):
        engine = LegalizationEngine(rules, workers=1)
        original = engine.legalize_batch(topology_batch, seed=2)
        swapped = list(topology_batch)
        swapped[5] = np.ones((4, 4), dtype=np.uint8)  # change only the last element
        perturbed = engine.legalize_batch(swapped, seed=2)
        assert signatures(original)[:5] == signatures(perturbed)[:5]


class TestLegalizerBatchSeeding:
    def test_engine_serial_matches_legalizer_batch(self, rules, topology_batch, references):
        engine = LegalizationEngine(rules, reference_geometries=references, workers=1)
        a = engine.legalize_batch(topology_batch, num_solutions=2, seed=4)
        b = legalize_alone(topology_batch, rules, 4, num_solutions=2, references=references)
        assert signatures(a) == signatures(b)

    def test_int_seed_reproducible(self, rules, topology_batch):
        engine = LegalizationEngine(rules)
        a = engine.legalize_batch(topology_batch, seed=6)
        b = engine.legalize_batch(topology_batch, seed=6)
        assert signatures(a) == signatures(b)

    def test_generator_seed_draws_once(self, rules, topology_batch):
        # A generator seed contributes one draw, so equal generators give
        # equal runs, and the run equals the int seed that draw resolves to.
        engine = LegalizationEngine(rules)
        a = engine.legalize_batch(topology_batch, seed=np.random.default_rng(1))
        b = engine.legalize_batch(topology_batch, seed=np.random.default_rng(1))
        assert signatures(a) == signatures(b)
        c = engine.legalize_batch(topology_batch, seed=resolve_seed(np.random.default_rng(1)))
        assert signatures(a) == signatures(c)


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

    def test_stats_dict_round_trips_every_counter(self):
        stats = LegalizationStats(
            attempted=9, solved=8, failed=1, total_solver_time=0.25,
            total_iterations=70, solutions=16, fast_path_solutions=12,
            batched_sweeps=2, batched_sweep_topologies=9, batched_tail_solves=3,
        )
        payload = json.loads(json.dumps(stats.as_dict()))
        assert set(payload) == {f.name for f in dataclasses.fields(LegalizationStats)}
        assert LegalizationStats.from_dict(payload) == stats

    def test_stats_from_an_older_record_read_missing_counters_as_zero(self):
        old = {"attempted": 4, "solved": 3, "failed": 1, "solutions": 6,
               "total_iterations": 40, "total_solver_time": 0.5}
        stats = LegalizationStats.from_dict(old)
        assert stats == LegalizationStats(**old)
        assert (stats.fast_path_solutions, stats.batched_sweeps,
                stats.batched_sweep_topologies, stats.batched_tail_solves) == (0, 0, 0, 0)
        assert type(stats.total_solver_time) is float and type(stats.attempted) is int

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
        engine = LegalizationEngine(rules, workers=2, chunk_size=1)
        _, sharded = engine.legalize_batch_with_report(topology_batch, seed=1)
        _, monolithic = LegalizationEngine(rules, workers=1).legalize_batch_with_report(
            topology_batch, seed=1
        )
        assert monolithic.num_chunks == 1
        mono = monolithic.stats
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

    def test_legalizer_uses_index(self, rules, references, topology_batch):
        # The engine's warm start is the index's pick on each topology's stream.
        engine = LegalizationEngine(rules, reference_geometries=references)
        warm = engine.legalize_batch(topology_batch, seed=0)
        assert all(result.solved for result in warm)
        assert signatures(warm) == signatures(
            legalize_alone(topology_batch, rules, 0, references=references)
        )
        assert signatures(warm) != signatures(legalize_alone(topology_batch, rules, 0))

    def test_reassigning_references_rebuilds_index(self, rules, references, topology_batch):
        engine = LegalizationEngine(rules)
        cold = engine.legalize_batch(topology_batch, seed=0)
        engine.reference_geometries = references
        after = engine.legalize_batch(topology_batch, seed=0)
        fresh = LegalizationEngine(rules, reference_geometries=references)
        assert signatures(after) == signatures(fresh.legalize_batch(topology_batch, seed=0))
        assert signatures(after) != signatures(cold)

    def test_in_place_append_is_picked_up(self, rules, references, topology_batch):
        engine = LegalizationEngine(rules, reference_geometries=references[:1])
        engine.legalize_batch(topology_batch, seed=0)
        engine.reference_geometries.append(references[1])
        after = engine.legalize_batch(topology_batch, seed=0)
        fresh = LegalizationEngine(rules, reference_geometries=references[:2])
        assert signatures(after) == signatures(fresh.legalize_batch(topology_batch, seed=0))

    def test_in_place_replacement_is_picked_up(self, rules, references, topology_batch):
        # Replacing an element keeps the list's length: the next call must
        # still warm-start from the new pair, not the replaced one.
        engine = LegalizationEngine(rules, reference_geometries=references[:1])
        before = engine.legalize_batch(topology_batch, seed=0)
        engine.reference_geometries[0] = references[1]
        after = engine.legalize_batch(topology_batch, seed=0)
        fresh = LegalizationEngine(rules, reference_geometries=[references[1]])
        assert signatures(after) == signatures(fresh.legalize_batch(topology_batch, seed=0))
        assert signatures(after) != signatures(before)


class TestPipelineIntegration:
    def test_pipeline_legalize_worker_invariant(self, trained_tiny_pipeline, tiny_dataset):
        topologies = tiny_dataset.topology_matrices("test")[:4]
        serial = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0, workers=1)
        parallel = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0, workers=2)
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
        original = (config.workers, config.solver_mode)
        try:
            config.workers = 3
            config.solver_mode = "slsqp"
            engine = trained_tiny_pipeline.legalization_engine()
            assert engine.workers == 3
            assert engine.solver_mode == "slsqp"
            assert engine.chunk_size is None  # chunking is derived per call
        finally:
            config.workers, config.solver_mode = original

    def test_measure_batch_legalization(self, tiny_dataset, rules):
        from repro.pipeline import measure_batch_legalization

        topologies = list(tiny_dataset.topology_matrices("test")[:3])
        report = measure_batch_legalization(topologies, rules, workers=1, seed=0)
        assert report.num_topologies == 3
        assert report.total_seconds > 0
