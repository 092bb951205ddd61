"""Serve throughput — cross-request coalescing vs serial request handling.

``repro serve`` exists so that N concurrent clients asking for small sample
windows do not pay N separate sampling runs: the service coalesces every
waiting window into shared chunks over one :class:`~repro.pipeline.GenerationStream`.
This harness measures that claim end to end on the shared trained pipeline:

* **serial** — one :class:`~repro.serve.GenerationService`, requests
  submitted one at a time (each awaited before the next is admitted), so
  every window is generated in its own small batch;
* **coalesced** — a fresh service with the same stream identity, all
  requests submitted before the worker starts, so the whole workload is
  generated in ``max_batch``-sized shared chunks;
* **supervised coalesced** — the same coalesced workload through the
  fault-tolerant pool (a ``worker_config``): generation runs in a child
  process under :class:`~repro.serve.SupervisedWorker`, so the measured
  speedup prices in the IPC round-trips and chunk pickling that crash
  isolation costs;
* **parity** — the patterns every variant delivers, spliced in
  source-sample order, must be bit-identical to each other *and* to a
  one-shot ``generate_and_legalize`` reference (the serving determinism
  contract);
* **latency** — p50/p95 request latency and mean batch occupancy of the
  coalesced run, straight from the service's ``/metrics`` counters.

The regression gate (``baselines.json``) holds both coalesced paths to at
least a 2x speedup over serial and to exact parity.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from _bench_utils import FAST_MODE, write_metrics, write_result

from repro.scenarios import ScenarioRegistry
from repro.serve import GenerateRequest, GenerationService, WorkerConfig
from repro.utils import as_rng

#: Concurrent clients and the window each one asks for.  Small windows are
#: the worst case for the serial path (tiny sampling batches) and exactly
#: the load profile coalescing is built for.
NUM_CLIENTS = 16
WINDOW = 1 if FAST_MODE else 4
TOTAL = NUM_CLIENTS * WINDOW

#: RNG seed the pipeline factory hands every stream open; keeping it fixed
#: makes serial, coalesced and the one-shot reference share one stream.
STREAM_SEED = 1234

SCENARIO = "bench-serve"


def _registry() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    registry.register_dict(
        SCENARIO,
        {
            "description": "serving throughput workload",
            "preset": "tiny",
            "engine": {"sample_batch_size": 64, "workers": 1},
            "run": {"num_generated": WINDOW, "seed": STREAM_SEED},
        },
    )
    return registry


def _patterns_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        np.array_equal(pa.topology, pb.topology)
        and np.array_equal(pa.delta_x, pb.delta_x)
        and np.array_equal(pa.delta_y, pb.delta_y)
        for pa, pb in zip(a, b)
    )


def _spliced(windows):
    """Patterns of the served windows, ordered by absolute source sample."""
    patterns, sources = [], []
    for window in windows:
        patterns.extend(window.patterns)
        sources.extend(window.sources)
    order = np.argsort(np.asarray(sources, dtype=np.int64), kind="stable")
    return [patterns[i] for i in order]


async def _run_serial(service) -> list:
    """Submit one request at a time; no two windows ever share a batch."""
    await service.start()
    windows = []
    try:
        for _ in range(NUM_CLIENTS):
            ticket = service.submit(GenerateRequest(scenario=SCENARIO, count=WINDOW))
            windows.append(await ticket.collect())
    finally:
        await service.stop()
    return windows


async def _run_coalesced(service) -> list:
    """Submit everything before the worker wakes; one shared chunk plan."""
    tickets = [
        service.submit(GenerateRequest(scenario=SCENARIO, count=WINDOW))
        for _ in range(NUM_CLIENTS)
    ]
    await service.start()
    try:
        return list(await asyncio.gather(*(t.collect() for t in tickets)))
    finally:
        await service.stop()


def bench_serve_throughput(benchmark, trained_pipeline):
    def factory(_plan):
        return trained_pipeline, as_rng(STREAM_SEED)

    def service(**kwargs) -> GenerationService:
        return GenerationService(
            registry=_registry(),
            pipeline_factory=factory,
            max_pending=NUM_CLIENTS,
            **kwargs,
        )

    plan = _registry().resolve(SCENARIO).lower()
    reference = trained_pipeline.generate_and_legalize(
        TOTAL,
        num_solutions=plan.num_solutions,
        rng=as_rng(STREAM_SEED),
        retain_topologies=False,
    )

    start = time.perf_counter()
    serial_windows = asyncio.run(_run_serial(service()))
    serial_seconds = time.perf_counter() - start

    coalesced_service = service()

    def coalesced_run():
        return asyncio.run(_run_coalesced(coalesced_service))

    start = time.perf_counter()
    coalesced_windows = benchmark.pedantic(coalesced_run, rounds=1, iterations=1)
    coalesced_seconds = time.perf_counter() - start
    snapshot = coalesced_service.metrics.snapshot()

    # The supervised pool: same coalesced submission plan, but every engine
    # call crosses a process boundary to a heartbeat-watched child worker.
    supervised_service = service(
        worker_config=WorkerConfig(heartbeat_interval=0.2, restart_backoff=0.01),
    )
    start = time.perf_counter()
    supervised_windows = asyncio.run(_run_coalesced(supervised_service))
    supervised_seconds = time.perf_counter() - start
    supervised_snapshot = supervised_service.metrics.snapshot()

    serial_patterns = _spliced(serial_windows)
    coalesced_patterns = _spliced(coalesced_windows)
    supervised_patterns = _spliced(supervised_windows)
    parity = (
        all(w.ok for w in serial_windows + coalesced_windows)
        and _patterns_equal(serial_patterns, coalesced_patterns)
        and _patterns_equal(coalesced_patterns, reference.patterns)
    )
    supervised_parity = (
        all(w.ok for w in supervised_windows)
        and _patterns_equal(supervised_patterns, reference.patterns)
    )
    speedup = serial_seconds / coalesced_seconds if coalesced_seconds else None
    supervised_speedup = (
        serial_seconds / supervised_seconds if supervised_seconds else None
    )

    lines = [
        f"workload: {NUM_CLIENTS} clients x {WINDOW}-sample windows "
        f"({TOTAL} samples total)",
        "",
        f"serial     : {serial_seconds:.4f} s ({NUM_CLIENTS} single-window batches)",
        f"coalesced  : {coalesced_seconds:.4f} s "
        f"({snapshot['batches']} shared batches, "
        f"occupancy {snapshot['batch_occupancy_mean']:.2f} requests/batch)",
        f"supervised : {supervised_seconds:.4f} s "
        f"(coalesced through a child worker process, "
        f"{supervised_snapshot['worker_restarts']} restarts)",
        f"speedup (coalesced over serial)            : {speedup:.2f}x",
        f"speedup (supervised coalesced over serial) : {supervised_speedup:.2f}x",
        f"request latency: p50 {snapshot['request_latency_p50_seconds']:.4f} s, "
        f"p95 {snapshot['request_latency_p95_seconds']:.4f} s",
        f"parity (serial == coalesced == one-shot): {parity}",
        f"parity (supervised == one-shot)         : {supervised_parity}",
    ]
    write_result("serve_throughput.txt", "\n".join(lines))

    write_metrics(
        "serve_throughput",
        {
            "fast_mode": FAST_MODE,
            "num_clients": NUM_CLIENTS,
            "window": WINDOW,
            "total_samples": TOTAL,
            "serial_seconds": serial_seconds,
            "coalesced_seconds": coalesced_seconds,
            "supervised_seconds": supervised_seconds,
            "speedup_coalesced_over_serial": speedup,
            "speedup_supervised_coalesced_over_serial": supervised_speedup,
            "serve_parity": parity,
            "supervised_parity": supervised_parity,
            "worker_restarts": supervised_snapshot["worker_restarts"],
            "num_patterns": len(coalesced_patterns),
            "batches": snapshot["batches"],
            "batch_occupancy_mean": snapshot["batch_occupancy_mean"],
            "request_latency_p50_seconds": snapshot["request_latency_p50_seconds"],
            "request_latency_p95_seconds": snapshot["request_latency_p95_seconds"],
            "cache_hit_rate": snapshot["cache_hit_rate"],
        },
    )

    assert parity
    assert supervised_parity
