"""Tests for the ``repro serve`` generation service.

The central claim under test is the serving determinism contract: any
window ``[a, b)`` the service answers — across concurrent clients, any
submission interleaving, any coalesced batch size, cached or live, in
process or over HTTP — is bit-identical to samples ``[a, b)`` of a
one-shot ``repro generate`` run of the same scenario/seed.

No pytest-asyncio in the toolchain: every async test body runs through a
plain ``asyncio.run``.  One pipeline is trained per module; the service's
``pipeline_factory`` hook re-enters generation from a snapshot of the
post-training RNG state, exactly as the CLI's warmup would leave it.
"""

from __future__ import annotations

import asyncio
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.pipeline import DiffPatternPipeline
from repro.scenarios import ScenarioError, ScenarioRegistry
from repro.serve import (
    ChunkPayload,
    GenerateRequest,
    GenerationService,
    ProtocolError,
    RequestSummary,
    ServeClient,
    ServeHTTPError,
    ServeMetrics,
    ServeServer,
    ServiceBusyError,
    ServiceClosedError,
    WorkerConfig,
    pattern_from_json,
    pattern_to_json,
    stream_key,
)
from repro.utils import as_rng

#: Samples covered by the one-shot reference run; windows tile this range.
NUM_REFERENCE = 18


def _registry() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    registry.register_dict(
        "serve-test",
        {
            "description": "tiny regime for serving tests",
            "preset": "tiny",
            "training": {"iterations": 150, "num_patterns": 48},
            "engine": {"sample_batch_size": 8, "workers": 1},
            "run": {"num_generated": 10, "seed": 7},
        },
    )
    return registry


@pytest.fixture(scope="module")
def serve_env():
    """Trained pipeline + RNG snapshot + the one-shot reference window."""
    registry = _registry()
    plan = registry.resolve("serve-test").lower()
    pipeline = DiffPatternPipeline(plan.config)
    gen = as_rng(plan.seed)
    pipeline.prepare_data(plan.num_training_patterns, rng=gen)
    pipeline.train(rng=gen)
    state = gen.bit_generator.state

    ref_gen = as_rng(0)
    ref_gen.bit_generator.state = state
    reference = pipeline.generate_and_legalize(
        NUM_REFERENCE,
        num_solutions=plan.num_solutions,
        rng=ref_gen,
        retain_topologies=False,
    )

    def factory(_plan):
        restored = as_rng(0)
        restored.bit_generator.state = state
        return pipeline, restored

    return SimpleNamespace(
        registry=registry, plan=plan, factory=factory, reference=reference
    )


def _service(env, **kwargs) -> GenerationService:
    kwargs.setdefault("registry", _registry())
    kwargs.setdefault("pipeline_factory", env.factory)
    return GenerationService(**kwargs)


def _assert_same_patterns(served, reference_patterns) -> None:
    assert len(served) == len(reference_patterns)
    for ours, theirs in zip(served, reference_patterns):
        assert np.array_equal(ours.topology, theirs.topology)
        assert np.array_equal(ours.delta_x, theirs.delta_x)
        assert np.array_equal(ours.delta_y, theirs.delta_y)


def _in_source_order(windows):
    patterns, sources = [], []
    for window in windows:
        patterns.extend(window.patterns)
        sources.extend(window.sources)
    order = np.argsort(np.asarray(sources), kind="stable")
    return [patterns[i] for i in order]


# --------------------------------------------------------------------------- #
# coalescing bit-identity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("max_batch", [1, 7, 64])
def test_interleaved_clients_bit_identical_to_one_shot(serve_env, max_batch):
    """Three clients, staggered submissions, every batch size: same bits."""

    async def scenario():
        service = _service(serve_env, max_batch=max_batch)
        # Two clients queue before the worker even starts...
        first = service.submit(GenerateRequest(scenario="serve-test", count=5))
        second = service.submit(GenerateRequest(scenario="serve-test", count=9))
        await service.start()

        async def late_client():
            # ...and a third interleaves once generation is mid-stream.
            while service.metrics.snapshot()["samples_generated"] == 0:
                await asyncio.sleep(0.001)
            return service.submit(GenerateRequest(scenario="serve-test", count=4))

        third = await late_client()
        windows = await asyncio.gather(
            first.collect(), second.collect(), third.collect()
        )
        await service.stop()
        return service, windows

    service, windows = asyncio.run(scenario())
    assert all(window.ok for window in windows)
    # Windows tile [0, 18) in submission order regardless of interleaving.
    spans = sorted((w.summary.start, w.summary.end) for w in windows)
    assert spans == [(0, 5), (5, 14), (14, 18)]
    # Splice every served pattern back together by source index: the union
    # must be the one-shot run, bit for bit.
    _assert_same_patterns(_in_source_order(windows), serve_env.reference.patterns)
    assert (
        sum(w.summary.num_clean for w in windows)
        == round(serve_env.reference.legality * len(serve_env.reference.patterns))
    )


def test_single_client_parity_and_occupancy(serve_env):
    async def scenario():
        service = _service(serve_env, max_batch=7)
        ticket_a = service.submit(GenerateRequest(scenario="serve-test", count=10))
        ticket_b = service.submit(GenerateRequest(scenario="serve-test", count=8))
        await service.start()
        windows = await asyncio.gather(ticket_a.collect(), ticket_b.collect())
        snapshot = service.metrics.snapshot()
        await service.stop()
        return windows, snapshot

    windows, snapshot = asyncio.run(scenario())
    assert all(window.ok for window in windows)
    _assert_same_patterns(_in_source_order(windows), serve_env.reference.patterns)
    # Both clients drained in one coalesced sweep: the batch straddling the
    # window boundary at sample 10 served both requests.
    assert snapshot["batch_occupancy_mean"] > 1.0
    assert snapshot["samples_generated"] == NUM_REFERENCE
    assert snapshot["requests_completed"] == 2


# --------------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------------- #
def test_backpressure_rejects_beyond_max_pending(serve_env):
    async def scenario():
        service = _service(serve_env, max_pending=2)
        # Worker not started: submits stack up against the pending bound.
        t1 = service.submit(GenerateRequest(scenario="serve-test", count=2))
        t2 = service.submit(GenerateRequest(scenario="serve-test", count=2))
        with pytest.raises(ServiceBusyError):
            service.submit(GenerateRequest(scenario="serve-test", count=2))
        assert service.metrics.snapshot()["requests_rejected"] == 1
        # Shutdown resolves the queued tickets with explicit failures.
        await service.start()
        await service.stop()
        return await asyncio.gather(t1.collect(), t2.collect())

    windows = asyncio.run(scenario())
    for window in windows:
        assert not window.ok
        assert "stopped" in window.summary.error


def test_submit_after_stop_is_refused(serve_env):
    async def scenario():
        service = _service(serve_env)
        await service.start()
        await service.stop()
        with pytest.raises(ServiceClosedError):
            service.submit(GenerateRequest(scenario="serve-test", count=1))

    asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# cache
# --------------------------------------------------------------------------- #
def test_repeat_window_is_served_from_cache(serve_env):
    async def scenario():
        service = _service(serve_env, max_batch=6)
        live = service.submit(GenerateRequest(scenario="serve-test", count=12))
        await service.start()
        first = await live.collect()
        # Same window again: answered at submit time, no pending slot, no
        # new generation.
        repeat_ticket = service.submit(
            GenerateRequest(scenario="serve-test", count=12, start=0)
        )
        assert service.pending == 0
        repeat = await repeat_ticket.collect()
        snapshot = service.metrics.snapshot()
        await service.stop()
        return first, repeat, snapshot

    first, repeat, snapshot = asyncio.run(scenario())
    assert first.ok and repeat.ok
    assert repeat.summary.cached_samples == 12
    assert repeat.summary.live_chunks == 0
    _assert_same_patterns(repeat.patterns, first.patterns)
    assert snapshot["samples_cached"] == 12
    assert snapshot["samples_generated"] == 12
    assert snapshot["cache_hit_rate"] == pytest.approx(0.5)


def test_partial_overlap_reuses_cached_prefix(serve_env):
    async def scenario():
        service = _service(serve_env, max_batch=64)
        head = service.submit(GenerateRequest(scenario="serve-test", count=8))
        await service.start()
        await head.collect()
        # Overlapping window [4, 16): the first half replays from cache,
        # only [8, 16) is newly generated.
        overlap = service.submit(
            GenerateRequest(scenario="serve-test", count=12, start=4)
        )
        window = await overlap.collect()
        await service.stop()
        return window

    window = asyncio.run(scenario())
    assert window.ok
    assert window.summary.cached_samples == 4
    assert window.summary.live_chunks >= 1
    reference = [
        p
        for p, s in zip(
            serve_env.reference.patterns,
            _reference_sources(serve_env),
        )
        if 4 <= s < 16
    ]
    _assert_same_patterns(window.patterns, reference)


def _reference_sources(env):
    """Absolute source sample index per reference pattern (via a stream)."""
    pipeline, gen = env.factory(env.plan)
    graph = pipeline.generation_graph(
        num_solutions=env.plan.num_solutions, retain_topologies=False
    )
    stream = graph.open_stream(gen)
    sources = []
    while stream.next_start < NUM_REFERENCE:
        chunk = stream.advance(min(6, NUM_REFERENCE - stream.next_start))
        sources.extend(chunk.pattern_sources)
    return sources


def test_streams_are_keyed_by_scenario_identity(serve_env):
    async def scenario():
        service = _service(serve_env)
        service.submit(GenerateRequest(scenario="serve-test", count=2))
        service.submit(
            GenerateRequest(
                scenario="serve-test", count=2, overrides={"run": {"seed": 99}}
            )
        )
        n_batchers = len(service._batchers)
        await service.start()
        await service.stop()
        return n_batchers

    assert asyncio.run(scenario()) == 2
    plan_a = serve_env.registry.resolve("serve-test").lower()
    plan_b = serve_env.registry.resolve("serve-test").with_overrides(
        {"run": {"num_generated": 999}}
    ).lower()
    # Window-shaping knobs are not part of the stream identity...
    assert stream_key(plan_a) == stream_key(plan_b)
    plan_c = serve_env.registry.resolve("serve-test").with_overrides(
        {"run": {"seed": 99}}
    ).lower()
    # ...but the seed is.
    assert stream_key(plan_a) != stream_key(plan_c)


# --------------------------------------------------------------------------- #
# shutdown mid-stream
# --------------------------------------------------------------------------- #
def test_clean_shutdown_mid_stream(serve_env):
    async def scenario():
        service = _service(serve_env, max_batch=1)
        ticket = service.submit(GenerateRequest(scenario="serve-test", count=18))
        await service.start()
        # Wait for generation to be demonstrably underway, then stop.
        first_event = await ticket._events.get()
        await service.stop()
        window = await ticket.collect()
        return first_event, window

    first_event, window = asyncio.run(scenario())
    assert isinstance(first_event, ChunkPayload)
    assert not window.ok
    assert "stopped" in window.summary.error
    # Whatever arrived before the stop is still the real prefix of the run.
    served = first_event.patterns + window.patterns
    sources = first_event.sources + window.sources
    by_source = dict(zip(_reference_sources(serve_env), serve_env.reference.patterns))
    assert len(served) < len(serve_env.reference.patterns)
    for pattern, source in zip(served, sources):
        reference = by_source[source]
        assert np.array_equal(pattern.topology, reference.topology)
        assert np.array_equal(pattern.delta_x, reference.delta_x)


# --------------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------------- #
def test_http_end_to_end(serve_env):
    async def scenario():
        service = _service(serve_env, max_batch=4)
        server = ServeServer(service, port=0)
        await server.start()
        client = ServeClient(port=server.port)

        health = await client.healthz()
        window = await client.generate(GenerateRequest(scenario="serve-test", count=6))
        metrics = await client.metrics()
        scenarios = await client.scenarios()
        with pytest.raises(ServeHTTPError) as unknown:
            await client.generate(GenerateRequest(scenario="nope", count=1))
        with pytest.raises(ServeHTTPError) as bad_path:
            await client.get_json("/nope")

        await server.stop()
        closed_health = ServeClient(port=server.port)
        with pytest.raises(OSError):
            await closed_health.healthz()
        return health, window, metrics, scenarios, unknown.value, bad_path.value

    health, window, metrics, scenarios, unknown, bad_path = asyncio.run(scenario())
    assert health["status"] == "ok"
    assert window.ok
    reference = [
        p
        for p, s in zip(serve_env.reference.patterns, _reference_sources(serve_env))
        if s < 6
    ]
    _assert_same_patterns(window.patterns, reference)
    assert metrics["samples_generated"] == 6
    names = [entry["name"] for entry in scenarios["scenarios"]]
    assert "serve-test" in names
    assert all("servable" in entry["servable"] for entry in scenarios["scenarios"])
    assert unknown.status == 400
    assert bad_path.status == 404


def test_http_malformed_requests(serve_env):
    async def scenario():
        service = _service(serve_env)
        server = ServeServer(service, port=0)
        await server.start()
        results = []
        for body in (b"{not json", b'{"count": 3}', b'{"scenario": "serve-test", "count": 0}'):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                b"POST /generate HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            status = (await reader.readline()).decode().split()[1]
            results.append(int(status))
            writer.close()
        await server.stop()
        return results

    assert asyncio.run(scenario()) == [400, 400, 400]


def test_http_backpressure_maps_to_429(serve_env):
    async def scenario():
        service = _service(serve_env, max_pending=1)
        server = ServeServer(service, port=0)
        # Worker deliberately not started: the first submit occupies the
        # single pending slot, the second must be rejected with 429.
        service.submit(GenerateRequest(scenario="serve-test", count=1))
        server._server = await asyncio.start_server(
            server._handle, server.host, 0
        )
        server.port = server._server.sockets[0].getsockname()[1]
        client = ServeClient(port=server.port)
        with pytest.raises(ServeHTTPError) as rejected:
            await client.generate(GenerateRequest(scenario="serve-test", count=1))
        await server.stop()
        return rejected.value

    assert asyncio.run(scenario()).status == 429


# --------------------------------------------------------------------------- #
# protocol codecs
# --------------------------------------------------------------------------- #
def test_pattern_json_round_trip_is_lossless(serve_env):
    for pattern in serve_env.reference.patterns:
        decoded = pattern_from_json(pattern_to_json(pattern))
        assert np.array_equal(decoded.topology, pattern.topology)
        assert np.array_equal(decoded.delta_x, pattern.delta_x)
        assert np.array_equal(decoded.delta_y, pattern.delta_y)
        assert decoded.topology.dtype == pattern.topology.dtype
        assert decoded.delta_x.dtype == pattern.delta_x.dtype


def test_generate_request_validation():
    request = GenerateRequest.from_dict(
        {"scenario": "smoke", "count": 3, "start": 1, "overrides": {"run": {"seed": 1}}}
    )
    assert GenerateRequest.from_dict(request.as_dict()) == request
    for bad in (
        "not a mapping",
        {},
        {"scenario": ""},
        {"scenario": "smoke", "count": 0},
        {"scenario": "smoke", "count": True},
        {"scenario": "smoke", "start": -1},
        {"scenario": "smoke", "overrides": []},
        {"scenario": "smoke", "bogus": 1},
    ):
        with pytest.raises(ProtocolError):
            GenerateRequest.from_dict(bad)


def test_event_payload_round_trips(serve_env):
    payload = ChunkPayload(
        start=3,
        end=7,
        patterns=serve_env.reference.patterns[:2],
        sources=[3, 5],
        clean=[True, False],
        cached=True,
    )
    decoded = ChunkPayload.from_dict(payload.as_dict())
    assert (decoded.start, decoded.end, decoded.sources, decoded.clean, decoded.cached) == (
        3, 7, [3, 5], [True, False], True,
    )
    _assert_same_patterns(decoded.patterns, payload.patterns)

    summary = RequestSummary(
        ok=False, scenario="s", start=0, end=4, num_patterns=2,
        cached_samples=1, live_chunks=3, elapsed_seconds=0.5, error="boom",
    )
    assert RequestSummary.from_dict(summary.as_dict()) == summary
    with pytest.raises(ProtocolError):
        ChunkPayload.from_dict({"kind": "summary"})
    with pytest.raises(ProtocolError):
        RequestSummary.from_dict({"kind": "chunk"})


def test_unknown_scenario_raises_scenario_error(serve_env):
    service = _service(serve_env)
    with pytest.raises(ScenarioError):
        service.submit(GenerateRequest(scenario="no-such-scenario", count=1))


def test_metrics_snapshot_shape():
    metrics = ServeMetrics()
    metrics.record_admitted(1)
    metrics.record_batch(8, 3)
    metrics.record_cached(4)
    metrics.record_finished(0.25, ok=True, queue_depth=0)
    metrics.record_rejected()
    snapshot = metrics.snapshot()
    assert snapshot["requests_admitted"] == 1
    assert snapshot["requests_rejected"] == 1
    assert snapshot["batch_occupancy_mean"] == 3.0
    assert snapshot["cache_hit_rate"] == pytest.approx(4 / 12)
    assert snapshot["request_latency_p50_seconds"] == pytest.approx(0.25)
    assert snapshot["request_latency_p95_seconds"] == pytest.approx(0.25)


# --------------------------------------------------------------------------- #
# persistent library backing (PR 9)
# --------------------------------------------------------------------------- #
def _run_window(env, root, count=12, start=None):
    async def scenario():
        service = _service(env, max_batch=6, library_root=root)
        await service.start()
        ticket = service.submit(
            GenerateRequest(scenario="serve-test", count=count, start=start)
        )
        window = await ticket.collect()
        snapshot = service.metrics.snapshot()
        await service.stop()
        return window, snapshot

    return asyncio.run(scenario())


def test_library_persists_generated_chunks(serve_env, tmp_path):
    root = tmp_path / "library"
    window, snapshot = _run_window(serve_env, root)
    assert window.ok
    assert snapshot["library_persisted_chunks"] >= 1
    assert snapshot["library_persisted_patterns"] == len(window.patterns)
    assert snapshot["library_restored_samples"] == 0

    from repro.library import PatternLibrary

    library = PatternLibrary(root)
    assert library.writers and library.writers[0].startswith("serve-")
    stored = library.load_patterns()
    _assert_same_patterns(stored, window.patterns)
    # the attribution needed for restart-restore rides along in the ledger
    for record in library.records_in_order():
        assert len(record.pattern_sources) == record.num_stored
        assert len(record.pattern_clean) == record.num_stored


def test_restart_restores_cache_from_library(serve_env, tmp_path):
    root = tmp_path / "library"
    first, first_snapshot = _run_window(serve_env, root)
    assert first_snapshot["library_persisted_chunks"] >= 1

    # A brand-new service over the same library answers the same window
    # entirely from the restored cache: no generation, no new persistence.
    second, second_snapshot = _run_window(serve_env, root, start=0)
    assert second.ok
    assert second.summary.cached_samples == 12
    assert second.summary.live_chunks == 0
    assert second_snapshot["library_restored_samples"] >= 12
    assert second_snapshot["library_persisted_chunks"] == 0
    assert second_snapshot["samples_generated"] == 0
    _assert_same_patterns(second.patterns, first.patterns)


def test_restored_stream_extends_past_restored_windows(serve_env, tmp_path):
    root = tmp_path / "library"
    _run_window(serve_env, root, count=6)
    # restart and ask beyond the persisted frontier: the stream resumes at
    # the right sample index, so the tail is bit-identical to the one-shot
    # reference run of the same scenario/seed.
    window, snapshot = _run_window(serve_env, root, count=12, start=0)
    assert window.ok
    assert window.summary.cached_samples >= 6
    assert snapshot["library_persisted_chunks"] >= 1
    # splicing restored + freshly generated samples must equal the one-shot
    # reference run, bit for bit (reference patterns are in source order, so
    # window [0, 12) is exactly its prefix)
    served = _in_source_order([window])
    _assert_same_patterns(served, serve_env.reference.patterns[: len(served)])


def test_serve_metrics_snapshot_has_library_counters():
    metrics = ServeMetrics()
    metrics.record_library_restored(5)
    metrics.record_library_persisted(3)
    metrics.record_library_persisted(2)
    snapshot = metrics.snapshot()
    assert snapshot["library_restored_samples"] == 5
    assert snapshot["library_persisted_chunks"] == 2
    assert snapshot["library_persisted_patterns"] == 5


# --------------------------------------------------------------------------- #
# fault tolerance (PR 10): supervision, deadlines, cancellation, degradation
# --------------------------------------------------------------------------- #
def test_supervised_service_parity(serve_env):
    """Child-process workers, no faults: same bits, no restarts."""

    async def scenario():
        service = _service(
            serve_env,
            supervised=True,
            max_batch=7,
            worker_config=WorkerConfig(heartbeat_interval=0.05, restart_backoff=0.01),
        )
        ticket_a = service.submit(GenerateRequest(scenario="serve-test", count=10))
        ticket_b = service.submit(GenerateRequest(scenario="serve-test", count=8))
        await service.start()
        windows = await asyncio.gather(ticket_a.collect(), ticket_b.collect())
        snapshot = service.metrics.snapshot()
        await service.stop()
        return windows, snapshot

    windows, snapshot = asyncio.run(scenario())
    assert all(window.ok for window in windows)
    _assert_same_patterns(_in_source_order(windows), serve_env.reference.patterns)
    assert snapshot["worker_restarts"] == 0
    assert snapshot["batch_occupancy_mean"] > 1.0


def test_deadline_exceeded_cancels_cleanly(serve_env):
    async def scenario():
        # Worker deliberately not started: the deadlines fire while queued.
        service = _service(serve_env, deadline_seconds=10.0)
        explicit = service.submit(
            GenerateRequest(scenario="serve-test", count=2, deadline=0.02)
        )
        window = await explicit.collect()
        pending_after = service.pending
        snapshot = service.metrics.snapshot()
        await service.start()
        await service.stop()
        return window, pending_after, snapshot

    window, pending_after, snapshot = asyncio.run(scenario())
    assert not window.ok
    assert window.summary.error_code == "deadline_exceeded"
    assert "deadline" in window.summary.error
    # the batch slot is released the moment the deadline fires
    assert pending_after == 0
    assert snapshot["requests_cancelled"] == 1
    assert snapshot["deadline_exceeded"] == 1


def test_submit_during_shutdown_gets_typed_error(serve_env):
    """The admission/shutdown race, both interleavings.

    A request admitted *before* ``stop()`` begins receives the typed
    ``service_stopped`` summary; a submit arriving *while* ``stop()`` is in
    flight is refused outright with :class:`ServiceClosedError`.
    """

    async def scenario():
        service = _service(serve_env)
        await service.start()
        admitted = service.submit(GenerateRequest(scenario="serve-test", count=4))
        stop_task = asyncio.get_running_loop().create_task(service.stop())
        # stop() has set the stopping flag but has not finished draining
        await asyncio.sleep(0)
        assert service.stopping
        with pytest.raises(ServiceClosedError):
            service.submit(GenerateRequest(scenario="serve-test", count=1))
        await stop_task
        return await admitted.collect()

    window = asyncio.run(scenario())
    assert not window.ok
    assert window.summary.error_code == "service_stopped"
    assert "stopped" in window.summary.error


def test_mid_stream_disconnect_cancels_and_releases_slot(serve_env):
    """A client hanging up mid-stream must not leak its batch slot."""

    async def scenario():
        service = _service(serve_env, max_batch=1, max_pending=1)
        server = ServeServer(service, port=0)
        await server.start()

        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        body = json.dumps({"scenario": "serve-test", "count": 18}).encode()
        writer.write(
            b"POST /generate HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        status = int((await reader.readline()).decode().split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        await reader.readline()  # first streamed bytes: generation underway
        writer.close()  # hang up mid-stream

        for _ in range(400):
            if service.pending == 0:
                break
            await asyncio.sleep(0.01)
        pending = service.pending
        snapshot = service.metrics.snapshot()

        # the slot is free and the cache is intact: the next request is
        # admitted and the already-generated prefix replays from cache
        follow_up = service.submit(
            GenerateRequest(scenario="serve-test", count=1, start=0)
        )
        window = await follow_up.collect()
        await server.stop()
        return status, pending, snapshot, window

    status, pending, snapshot, window = asyncio.run(scenario())
    assert status == 200
    assert pending == 0
    assert snapshot["requests_cancelled"] == 1
    assert snapshot["queue_depth"] == 0
    assert window.ok
    assert window.summary.cached_samples == 1


def test_healthz_split_liveness_vs_readiness(serve_env):
    async def scenario():
        service = _service(serve_env)
        server = ServeServer(service, port=0)
        await server.start()
        client = ServeClient(port=server.port)
        health = await client.healthz()
        live = await client.get_json("/healthz/live")
        ready = await client.get_json("/healthz/ready")
        # once stopping, readiness flips to 503 while liveness stays 200
        await service.stop()
        live_while_stopping = await client.get_json("/healthz/live")
        with pytest.raises(ServeHTTPError) as not_ready:
            await client.get_json("/healthz/ready")
        await server.stop()
        return health, live, ready, live_while_stopping, not_ready.value

    health, live, ready, live_while_stopping, not_ready = asyncio.run(scenario())
    assert health["status"] == "ok"
    assert health["live"] is True
    assert health["ready"] is True
    assert health["worker_restarts"] == 0
    assert live == {"live": True}
    assert ready["ready"] is True
    assert live_while_stopping == {"live": True}
    assert not_ready.status == 503


def test_http_429_carries_retry_after(serve_env):
    async def scenario():
        service = _service(serve_env, max_pending=1)
        server = ServeServer(service, port=0)
        service.submit(GenerateRequest(scenario="serve-test", count=1))
        server._server = await asyncio.start_server(server._handle, server.host, 0)
        server.port = server._server.sockets[0].getsockname()[1]
        client = ServeClient(port=server.port)
        with pytest.raises(ServeHTTPError) as rejected:
            await client.generate(GenerateRequest(scenario="serve-test", count=1))
        await server.stop()
        return rejected.value

    rejected = asyncio.run(scenario())
    assert rejected.status == 429
    assert rejected.retry_after is not None
    assert rejected.retry_after >= 1.0


def test_client_retries_transient_statuses():
    """429 then 503 then 200: an opted-in client retries through both."""

    responses = [
        (429, b'{"error": "busy"}', b"Retry-After: 0\r\n"),
        (503, b'{"error": "degraded"}', b"Retry-After: 0\r\n"),
        (200, b'{"ok": true}', b""),
    ]
    calls = []

    async def handle(reader, writer):
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        status, body, extra = responses[min(len(calls), len(responses) - 1)]
        calls.append(status)
        writer.write(
            f"HTTP/1.1 {status} X\r\n".encode()
            + b"Content-Type: application/json\r\n"
            + extra
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        # fail-fast default: the 429 surfaces, with its Retry-After parsed
        with pytest.raises(ServeHTTPError) as fail_fast:
            await ServeClient(port=port).get_json("/healthz")
        calls.clear()
        client = ServeClient(
            port=port, max_retries=3, backoff_base=0.001, rng=random.Random(0)
        )
        result = await client.get_json("/healthz")
        server.close()
        await server.wait_closed()
        return fail_fast.value, result

    fail_fast, result = asyncio.run(scenario())
    assert fail_fast.status == 429
    assert fail_fast.retry_after == 0.0
    assert result == {"ok": True}
    assert calls == [429, 503, 200]


def test_client_does_not_retry_logic_errors():
    """A 400 is never transient: one call, one failure, regardless of budget."""
    calls = []

    async def handle(reader, writer):
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        calls.append(400)
        body = b'{"error": "bad request"}'
        writer.write(
            b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = ServeClient(port=port, max_retries=5, backoff_base=0.001)
        with pytest.raises(ServeHTTPError) as error:
            await client.get_json("/healthz")
        server.close()
        await server.wait_closed()
        return error.value

    assert asyncio.run(scenario()).status == 400
    assert calls == [400]


def test_service_from_args_wires_the_failure_knobs(serve_env, capsys):
    from repro.cli import build_parser, main
    from repro.serve.server import service_from_args

    args = build_parser().parse_args(
        [
            "serve",
            "--supervised",
            "--deadline", "5",
            "--retry-budget", "1",
            "--advance-timeout", "3",
            "--max-restarts", "4",
        ]
    )
    service = service_from_args(args, serve_env.registry)
    assert service.supervised is True
    assert service.deadline_seconds == 5.0
    assert service.retry_budget == 1
    assert service.worker_config.advance_timeout == 3.0
    assert service.worker_config.max_restarts == 4

    plain = service_from_args(build_parser().parse_args(["serve"]), serve_env.registry)
    assert plain.supervised is False
    assert plain.worker_config is None

    # A default deadline that is non-finite or not positive would cancel
    # every request (NaN and <= 0 fire at once) or none (inf): rejected
    # before the daemon binds, as one error line.
    for bad in ("nan", "inf", "0", "-1"):
        args = build_parser().parse_args(["serve", "--deadline", bad])
        with pytest.raises(ValueError, match="deadline"):
            service_from_args(args, serve_env.registry)
        assert main(["serve", "--port", "0", "--deadline", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: deadline") and err.count("\n") == 1
    with pytest.raises(ValueError, match="deadline"):
        GenerationService(deadline_seconds=float("nan"))


def test_metrics_snapshot_has_failure_counters():
    metrics = ServeMetrics()
    metrics.record_cancelled()
    metrics.record_cancelled(deadline=True)
    metrics.record_generation_failure()
    metrics.record_generation_retry()
    metrics.record_worker_restart()
    metrics.record_breaker_state(True, tripped=True)
    snapshot = metrics.snapshot()
    assert snapshot["requests_cancelled"] == 2
    assert snapshot["deadline_exceeded"] == 1
    assert snapshot["generation_failures"] == 1
    assert snapshot["generation_retries"] == 1
    assert snapshot["worker_restarts"] == 1
    assert snapshot["breaker_trips"] == 1
    assert snapshot["breaker_open"] is True
    metrics.record_breaker_state(False)
    assert metrics.snapshot()["breaker_open"] is False
    assert metrics.snapshot()["breaker_trips"] == 1


def test_deadline_request_round_trips_and_validates():
    request = GenerateRequest.from_dict(
        {"scenario": "smoke", "count": 2, "deadline": 1.5}
    )
    assert request.deadline == 1.5
    assert GenerateRequest.from_dict(request.as_dict()) == request
    for bad in (
        {"scenario": "smoke", "deadline": 0},
        {"scenario": "smoke", "deadline": -1.0},
        {"scenario": "smoke", "deadline": True},
        {"scenario": "smoke", "deadline": "soon"},
        {"scenario": "smoke", "deadline": 10**400},
    ):
        with pytest.raises(ProtocolError):
            GenerateRequest.from_dict(bad)
    # The server decodes bodies with json.loads, which accepts these.
    for literal in ("NaN", "Infinity", "-Infinity"):
        body = json.loads(f'{{"scenario": "smoke", "deadline": {literal}}}')
        with pytest.raises(ProtocolError, match="finite"):
            GenerateRequest.from_dict(body)


def test_summary_error_code_round_trips():
    summary = RequestSummary(
        ok=False, scenario="s", start=0, end=4,
        error="deadline of 2s exceeded", error_code="deadline_exceeded",
    )
    payload = summary.as_dict()
    assert payload["error_code"] == "deadline_exceeded"
    assert RequestSummary.from_dict(payload) == summary
    ok_payload = RequestSummary(ok=True, scenario="s", start=0, end=4).as_dict()
    assert "error_code" not in ok_payload


def test_stream_uses_the_served_plans_worker_count(serve_env):
    """An injected pipeline's own worker knob does not leak into the stream."""
    from repro.serve import StreamBatcher

    plan = serve_env.registry.resolve("serve-test").with_overrides(
        {"engine": {"workers": 2}}
    ).lower()
    batcher = StreamBatcher(plan, pipeline_factory=serve_env.factory)
    batcher.ensure_ready()
    pipeline, _ = serve_env.factory(plan)
    assert pipeline.config.workers == 1
    assert batcher._stream.graph.legalization_engine.workers == 2
