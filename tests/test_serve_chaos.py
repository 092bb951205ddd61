"""Chaos suite for ``repro serve``: determinism through injected failures.

The acceptance gate of the fault-tolerant serving work: for **every**
registered serve-path fault point (``serve:*`` in the batcher, ``worker:*``
in the supervised child, ``stream:advance`` in the engine), killing or
delaying at that point must leave the client-visible stream bit-identical
to a run with no fault at all.  The argument is the stream's
counter-determinism (see :mod:`repro.serve.supervisor`): every advance
carries the committed frontier, so a restarted worker recomputes the
in-flight window exactly.

Worker children are forked, so the fault hook installed in the test process
is inherited; ``marker`` files make each fault one-shot *across* restarts —
the restarted child finds the marker and does not re-trigger, which is what
lets these tests assert full recovery after exactly one injected failure.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import (
    Fault,
    FaultPlan,
    InjectedCrash,
    inject_faults,
    install_fault_hook,
    registered_fault_points,
)
from repro.pipeline import DiffPatternPipeline, StreamChunk
from repro.scenarios import ScenarioRegistry
from repro.serve import (
    GenerateRequest,
    GenerationService,
    ServeClient,
    ServeServer,
    ServiceDegradedError,
    WorkerConfig,
)
from repro.serve.batcher import open_plan_stream
from repro.serve.supervisor import _worker_main
from repro.utils import as_rng

#: Samples covered by the one-shot reference run; windows tile this range.
NUM_REFERENCE = 18

#: Every serve-path fault point the sweeps must cover.  Enumerated from the
#: registry, not hand-listed: adding a new ``fault_point`` to the serving
#: code automatically widens this suite.
CHAOS_POINTS = registered_fault_points(("serve:", "worker:", "stream:"))

#: Points that fire inside the child process (recovery = worker restart);
#: the rest fire in the serving process (recovery = admission-layer retry).
CHILD_ADVANCE_POINTS = {"worker:advance", "worker:send", "stream:advance"}


def _registry() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    registry.register_dict(
        "serve-test",
        {
            "description": "tiny regime for chaos tests",
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


def _fast_worker_config(**overrides) -> WorkerConfig:
    defaults = dict(heartbeat_interval=0.05, restart_backoff=0.01)
    defaults.update(overrides)
    return WorkerConfig(**defaults)


def _run(
    env,
    *,
    count: int = NUM_REFERENCE,
    max_batch: int = 6,
    supervised: bool = True,
    library_root=None,
    worker_config: "WorkerConfig | None" = None,
    **service_kwargs,
):
    """Run one request through a fresh service; return (window, metrics).

    ``supervised`` runs the engines in a worker process (under
    ``worker_config``, fast heartbeats by default), else in process.
    """
    if not supervised:
        worker_config = None
    elif worker_config is None:
        worker_config = _fast_worker_config()

    async def scenario():
        service = GenerationService(
            registry=_registry(),
            pipeline_factory=env.factory,
            max_batch=max_batch,
            library_root=library_root,
            worker_config=worker_config,
            **service_kwargs,
        )
        await service.start()
        ticket = service.submit(GenerateRequest(scenario="serve-test", count=count))
        window = await ticket.collect()
        snapshot = service.metrics.snapshot()
        await service.stop()
        return window, snapshot

    return asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# the sweep: kill at every registered serve-path fault point
# --------------------------------------------------------------------------- #
def test_the_sweep_covers_every_registered_point():
    assert set(CHAOS_POINTS) >= {
        "serve:warmup",
        "serve:advance",
        "serve:persist",
        "serve:cache-commit",
        "worker:warmup",
        "worker:advance",
        "worker:send",
        "stream:advance",
    }


@pytest.mark.parametrize("label", CHAOS_POINTS)
def test_kill_at_every_point_is_bit_identical(serve_env, tmp_path, label):
    """A process kill at any point: the served stream is the no-fault stream."""
    marker = tmp_path / "fired"
    with inject_faults(Fault(label, "kill", marker=marker)):
        window, snapshot = _run(serve_env, library_root=tmp_path / "library")
    assert marker.exists(), f"fault at {label} never fired (dead point?)"
    assert window.ok, window.summary.error
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    if label in CHILD_ADVANCE_POINTS:
        # child died mid-advance: the supervisor restarted and resubmitted
        assert snapshot["worker_restarts"] >= 1
    else:
        # the failure surfaced in the serving process: the retry budget paid
        assert snapshot["generation_failures"] >= 1


@pytest.mark.parametrize(
    "label", [label for label in CHAOS_POINTS if not label.startswith("worker:")]
)
def test_unsupervised_kill_recovers_through_retries(serve_env, tmp_path, label):
    """Without child workers, the admission retry budget alone recovers."""
    marker = tmp_path / "fired"
    with inject_faults(Fault(label, "kill", marker=marker)):
        window, snapshot = _run(
            serve_env, supervised=False, library_root=tmp_path / "library"
        )
    assert marker.exists(), f"fault at {label} never fired (dead point?)"
    assert window.ok, window.summary.error
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    assert snapshot["generation_failures"] >= 1
    assert snapshot["generation_retries"] >= 1


def test_delays_at_every_point_change_nothing(serve_env, tmp_path):
    """Slowness at every point at once is invisible to the client."""
    plan = FaultPlan(
        *[Fault(label, "delay", seconds=0.05) for label in CHAOS_POINTS]
    )
    with inject_faults(plan):
        window, snapshot = _run(serve_env, library_root=tmp_path / "library")
    assert window.ok
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    assert snapshot["worker_restarts"] == 0


def test_hard_exit_mid_advance_is_bit_identical(serve_env, tmp_path):
    """``os._exit`` with no unwinding at all — the hardest possible kill."""
    marker = tmp_path / "fired"
    with inject_faults(Fault("worker:advance", "exit", marker=marker)):
        window, snapshot = _run(serve_env)
    assert marker.exists()
    assert window.ok
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    assert snapshot["worker_restarts"] >= 1


def test_hung_worker_is_detected_and_restarted(serve_env, tmp_path):
    """A wedged advance trips the call budget, not the liveness check.

    The injected delay keeps heartbeats flowing (the child is alive, just
    stuck), so only ``advance_timeout`` can catch it; the restarted child
    finds the marker, recomputes the window, and the stream is unchanged.
    """
    marker = tmp_path / "fired"
    config = _fast_worker_config(advance_timeout=2.0)
    with inject_faults(Fault("worker:advance", "delay", seconds=60.0, marker=marker)):
        window, snapshot = _run(serve_env, worker_config=config)
    assert marker.exists()
    assert window.ok
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    assert snapshot["worker_restarts"] >= 1


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
def test_silent_worker_is_declared_dead(serve_env, tmp_path):
    """A stopped child sends nothing — no reply and no heartbeat.

    Only heartbeat silence can catch it (no call budget is set): the
    supervisor declares it dead after ``heartbeat_timeout``, restarts it,
    and the restarted child (which finds the marker) recomputes the window.
    """
    marker = tmp_path / "stopped"

    def stop_once(label):
        if label == "worker:advance" and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGSTOP)

    config = _fast_worker_config(heartbeat_timeout=0.5)
    install_fault_hook(stop_once)
    try:
        window, snapshot = _run(serve_env, worker_config=config)
    finally:
        install_fault_hook(None)
    assert marker.exists()
    assert window.ok, window.summary.error
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    assert snapshot["worker_restarts"] >= 1


def test_deterministic_child_error_retries_without_restart(serve_env):
    """An ``error`` fault is a failing dependency, not a dead process.

    The child reports it and stays alive; the admission layer retries the
    advance against the same worker — no restart, same bits.
    """
    with inject_faults(Fault("worker:advance", "error")):
        window, snapshot = _run(serve_env)
    assert window.ok
    _assert_same_patterns(_in_source_order([window]), serve_env.reference.patterns)
    assert snapshot["worker_restarts"] == 0
    assert snapshot["generation_failures"] >= 1
    assert snapshot["generation_retries"] >= 1


# --------------------------------------------------------------------------- #
# budget exhaustion and the circuit breaker
# --------------------------------------------------------------------------- #
def test_restart_budget_exhaustion_surfaces_typed_failure(serve_env):
    """No marker: every restarted child re-crashes, until budgets run out."""
    config = _fast_worker_config(max_restarts=1)
    with inject_faults(Fault("worker:advance", "kill")):
        window, snapshot = _run(serve_env, worker_config=config, retry_budget=0)
    assert not window.ok
    assert window.summary.error_code == "generation_failed"
    assert "worker failed" in window.summary.error
    assert snapshot["worker_restarts"] >= 1
    assert snapshot["generation_failures"] >= 1


def test_breaker_trips_serves_cache_and_recovers(serve_env):
    """The full degradation arc: trip, degrade, serve cached, half-open, heal."""

    def always_kill(label):
        if label == "serve:advance":
            raise InjectedCrash(label, 0)

    async def scenario():
        service = GenerationService(
            registry=_registry(),
            pipeline_factory=serve_env.factory,
            max_batch=NUM_REFERENCE,
            worker_config=_fast_worker_config(),
            retry_budget=0,
            breaker_threshold=1,
            breaker_reset_seconds=60.0,
        )
        await service.start()
        warm = await service.submit(
            GenerateRequest(scenario="serve-test", count=6)
        ).collect()

        install_fault_hook(always_kill)
        try:
            failed = await service.submit(
                GenerateRequest(scenario="serve-test", count=6)
            ).collect()
            state = service.state
            # fully cached windows keep being served while the breaker is open
            cached = await service.submit(
                GenerateRequest(scenario="serve-test", count=6, start=0)
            ).collect()
            with pytest.raises(ServiceDegradedError) as rejected:
                service.submit(GenerateRequest(scenario="serve-test", count=6))
        finally:
            install_fault_hook(None)
        snapshot_open = service.metrics.snapshot()

        # half-open trial: pretend the reset window elapsed; the next live
        # success closes the breaker
        service._breaker_open_until = time.monotonic() - 1.0
        healed = await service.submit(
            GenerateRequest(scenario="serve-test", count=6)
        ).collect()
        snapshot_closed = service.metrics.snapshot()
        final_state = service.state
        await service.stop()
        return (
            warm, failed, state, cached, rejected.value,
            snapshot_open, healed, snapshot_closed, final_state,
        )

    (
        warm, failed, state, cached, rejected,
        snapshot_open, healed, snapshot_closed, final_state,
    ) = asyncio.run(scenario())
    assert warm.ok
    assert not failed.ok
    assert failed.summary.error_code == "generation_failed"
    assert state == "degraded"
    assert cached.ok
    assert cached.summary.cached_samples == 6
    assert rejected.retry_after > 0
    assert snapshot_open["breaker_trips"] == 1
    assert snapshot_open["breaker_open"] is True
    assert healed.ok
    assert snapshot_closed["breaker_open"] is False
    assert final_state == "ok"


# --------------------------------------------------------------------------- #
# the wire-level contract
# --------------------------------------------------------------------------- #
async def _raw_ndjson(port: int, request: GenerateRequest) -> "list[bytes]":
    """POST a request and return the raw NDJSON lines the daemon streamed."""
    client = ServeClient(port=port)
    body = json.dumps(request.as_dict()).encode("utf-8")
    status, headers, reader, writer = await client._open("POST", "/generate", body)
    assert status == 200
    raw = await ServeClient._read_body(headers, reader)
    writer.close()
    return [line for line in raw.split(b"\n") if line.strip()]


def test_http_ndjson_is_bit_identical_through_a_worker_crash(serve_env, tmp_path):
    """The acceptance criterion, verbatim: client-visible NDJSON unchanged."""

    def run_server(faults):
        async def scenario():
            service = GenerationService(
                registry=_registry(),
                pipeline_factory=serve_env.factory,
                max_batch=6,
                worker_config=_fast_worker_config(),
            )
            server = ServeServer(service, port=0)
            await server.start()
            with inject_faults(*faults) if faults else _no_faults():
                lines = await _raw_ndjson(
                    server.port, GenerateRequest(scenario="serve-test", count=10)
                )
            await server.stop()
            return lines

        return asyncio.run(scenario())

    class _no_faults:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return None

    baseline = run_server(())
    marker = tmp_path / "fired"
    faulted = run_server((Fault("worker:advance", "kill", marker=marker),))
    assert marker.exists()

    # every chunk line is byte-identical; the summary differs only in its
    # wall-clock field
    assert len(baseline) == len(faulted)
    assert baseline[:-1] == faulted[:-1]
    clean_summary, chaos_summary = (
        json.loads(lines[-1].decode("utf-8")) for lines in (baseline, faulted)
    )
    clean_summary.pop("elapsed_seconds")
    chaos_summary.pop("elapsed_seconds")
    assert clean_summary == chaos_summary


# --------------------------------------------------------------------------- #
# the child protocol, run in-process for reachability and coverage
# --------------------------------------------------------------------------- #
def _assert_same_bytes(ours, theirs) -> None:
    """Two pattern lists agree array by array: dtype, shape and bytes."""
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        for name in ("topology", "delta_x", "delta_y"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _assert_same_chunk(ours, theirs) -> None:
    """Same window, accounting, attribution and pattern bytes."""
    assert (ours.chunk, ours.start, ours.size, ours.num_kept, ours.unsolved) == (
        theirs.chunk, theirs.start, theirs.size, theirs.num_kept, theirs.unsolved,
    )
    assert list(ours.pattern_sources) == list(theirs.pattern_sources)
    assert list(ours.clean_mask) == list(theirs.clean_mask)
    _assert_same_bytes(ours.patterns, theirs.patterns)


def test_worker_main_protocol_honesty(serve_env):
    """Drive ``_worker_main`` in a thread: the child code paths, observable.

    Subprocess bodies are invisible to in-process coverage; running the real
    loop over a real duplex pipe in a thread proves every verb — warmup,
    advance, an unknown verb, stop — without a fork.  The child keeps no
    frontier of its own: each advance computes the window at the frontier
    it carries, whatever the child computed before.
    """
    parent, child = multiprocessing.Pipe(duplex=True)
    thread = threading.Thread(
        target=_worker_main,
        args=(child, serve_env.plan, serve_env.factory, 0.05),
        daemon=True,
    )
    thread.start()

    def ask(message):
        parent.send(message)
        while True:
            reply = parent.recv()
            if not (isinstance(reply, tuple) and reply and reply[0] == "hb"):
                return reply

    try:
        kind, fingerprint = ask(("warmup", None))
        assert kind == "ready"
        assert isinstance(fingerprint, dict)
        # warmup is idempotent: the stream is opened once
        assert ask(("warmup", None))[0] == "ready"

        kind, first = ask(("advance", (6, (0, 0, 0))))
        assert kind == "chunk"
        assert isinstance(first, StreamChunk)
        assert (first.chunk, first.start, first.size, first.end) == (0, 0, 6, 6)
        assert first.chunk_patterns is first.patterns
        reference = serve_env.reference.patterns
        _assert_same_bytes(first.patterns, reference[: len(first.patterns)])

        # the same advance again recomputes the same window, byte for byte
        kind, again = ask(("advance", (6, (0, 0, 0))))
        assert kind == "chunk"
        _assert_same_chunk(again, first)

        # the next frontier gives the next window of the one-shot run
        frontier = (first.end, first.chunk + 1, first.num_kept)
        kind, second = ask(("advance", (6, frontier)))
        assert kind == "chunk"
        assert (second.chunk, second.start, second.end) == (1, 6, 12)
        done = len(first.patterns)
        _assert_same_bytes(
            second.patterns, reference[done : done + len(second.patterns)]
        )

        # back at the first frontier, the first window is recomputed
        kind, rewound = ask(("advance", (6, (0, 0, 0))))
        assert kind == "chunk"
        _assert_same_chunk(rewound, first)

        # deterministic exceptions are reported and the loop survives
        kind, message = ask(("advance", (-1, (0, 0, 0))))
        assert kind == "error"

        kind, message = ask(("frobnicate", None))
        assert kind == "error"
        assert "unknown command" in message

        assert ask(("stop", None)) == ("stopped", None)
    finally:
        parent.close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_stream_chunk_crosses_the_worker_pipe(serve_env):
    """The served chunk pickles whole: accounting, attribution and patterns
    survive the round trip, and no raw topology matrix travels with it."""
    chunk = open_plan_stream(serve_env.plan, serve_env.factory).advance(NUM_REFERENCE)
    assert chunk.num_kept > 0 and chunk.patterns
    again = pickle.loads(pickle.dumps(chunk))
    assert (again.chunk, again.start, again.size, again.end) == (
        chunk.chunk, chunk.start, chunk.size, chunk.end,
    )
    assert (again.num_kept, again.unsolved) == (chunk.num_kept, chunk.unsolved)
    assert again.pattern_sources == chunk.pattern_sources
    assert again.chunk_patterns is again.patterns
    assert again.matrices.size == 0 and again.kept == []
    _assert_same_bytes(again.patterns, serve_env.reference.patterns)
