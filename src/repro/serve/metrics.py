"""Operational metrics of the generation service (the ``/metrics`` payload).

One :class:`ServeMetrics` instance per :class:`~repro.serve.GenerationService`
accumulates the four signals of the serving contract:

* **request latency** — submit-to-summary wall clock, reported as p50/p95
  over a bounded window of recent requests;
* **batch occupancy** — how many requests each shared generation batch
  served (the whole point of cross-request coalescing: occupancy > 1 means
  the sampler amortised its fixed costs across clients);
* **cache hit rate** — fraction of served samples answered from the pattern
  cache instead of being re-generated;
* **queue depth** — requests admitted but not yet finished (the value the
  backpressure bound caps).

It also carries the **legalization** signals: aggregated
:class:`~repro.legalization.LegalizationStats` counters per generated chunk
(fast-path fraction, batched sweep sizes, SLSQP tail volume) plus the
process-local ``compilation_cache_info()`` hits/misses, so the solver's
production ceiling is visible from ``/metrics`` instead of only from
offline benchmark reports.

All mutators take an internal lock: the service's worker updates from the
event loop while the executor thread serving a cached short-circuit updates
concurrently.  :meth:`snapshot` returns plain floats/ints, ready for JSON.
"""

from __future__ import annotations

import threading
from collections import deque

from ..legalization import LegalizationStats, compilation_cache_info

__all__ = ["ServeMetrics"]

#: Recent requests (latency percentiles) and batches (occupancy and size
#: means) the snapshot summarises.
WINDOW = 512


def _percentile(values: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile (no interpolation, stable for tiny windows)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return float(ordered[rank])


class ServeMetrics:
    """Thread-safe counters and windows behind the ``/metrics`` endpoint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=WINDOW)
        self._batch_sizes: "deque[int]" = deque(maxlen=WINDOW)
        self._batch_requests: "deque[int]" = deque(maxlen=WINDOW)
        self.requests_admitted = 0
        self.requests_rejected = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.requests_cancelled = 0
        self.deadline_exceeded = 0
        self.generation_failures = 0
        self.generation_retries = 0
        self.worker_restarts = 0
        self.breaker_trips = 0
        self.breaker_open = False
        self.samples_generated = 0
        self.samples_cached = 0
        self.queue_depth = 0
        self.library_restored_samples = 0
        self.library_persisted_chunks = 0
        self.library_persisted_patterns = 0
        #: Every generated chunk's legalization counters, merged.
        self.legalization = LegalizationStats()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_admitted(self, queue_depth: int) -> None:
        """A request passed the backpressure gate (``queue_depth`` after it)."""
        with self._lock:
            self.requests_admitted += 1
            self.queue_depth = int(queue_depth)

    def record_rejected(self) -> None:
        """A request was refused because the pending bound was hit (HTTP 429)."""
        with self._lock:
            self.requests_rejected += 1

    def record_finished(self, latency_seconds: float, ok: bool, queue_depth: int) -> None:
        """A request reached its summary (successfully or not)."""
        with self._lock:
            if ok:
                self.requests_completed += 1
            else:
                self.requests_failed += 1
            self._latencies.append(float(latency_seconds))
            self.queue_depth = int(queue_depth)

    def record_batch(self, batch_size: int, num_requests: int) -> None:
        """One shared generation batch completed, serving ``num_requests``."""
        with self._lock:
            self._batch_sizes.append(int(batch_size))
            self._batch_requests.append(int(num_requests))
            self.samples_generated += int(batch_size)

    def record_cached(self, num_samples: int) -> None:
        """``num_samples`` of a request window were answered from the cache."""
        with self._lock:
            self.samples_cached += int(num_samples)

    def record_cancelled(self, deadline: bool = False) -> None:
        """A request was cancelled (client disconnect, or its deadline fired)."""
        with self._lock:
            self.requests_cancelled += 1
            if deadline:
                self.deadline_exceeded += 1

    def record_generation_failure(self) -> None:
        """One warmup/advance call raised (before any retry decision)."""
        with self._lock:
            self.generation_failures += 1

    def record_generation_retry(self) -> None:
        """A failed warmup/advance call is being retried (budget allowed it)."""
        with self._lock:
            self.generation_retries += 1

    def record_worker_restart(self) -> None:
        """The supervisor killed and respawned a generation worker."""
        with self._lock:
            self.worker_restarts += 1

    def record_breaker_state(self, open_: bool, tripped: bool = False) -> None:
        """The circuit breaker opened (``tripped``) or changed state."""
        with self._lock:
            self.breaker_open = bool(open_)
            if tripped:
                self.breaker_trips += 1

    def record_library_restored(self, num_samples: int) -> None:
        """A stream warmup recovered ``num_samples`` from the pattern library."""
        with self._lock:
            self.library_restored_samples += int(num_samples)

    def record_library_persisted(self, num_patterns: int) -> None:
        """One generated chunk was committed to the persistent library."""
        with self._lock:
            self.library_persisted_chunks += 1
            self.library_persisted_patterns += int(num_patterns)

    def record_legalization(self, stats) -> None:
        """Fold one chunk's :class:`~repro.legalization.LegalizationStats` in."""
        with self._lock:
            self.legalization.merge(stats)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """All metrics as one JSON-ready dict (the ``/metrics`` body)."""
        with self._lock:
            latencies = list(self._latencies)
            batch_sizes = list(self._batch_sizes)
            batch_requests = list(self._batch_requests)
            served = self.samples_generated + self.samples_cached
            legal = self.legalization
            return {
                "requests_admitted": self.requests_admitted,
                "requests_rejected": self.requests_rejected,
                "requests_completed": self.requests_completed,
                "requests_failed": self.requests_failed,
                "requests_cancelled": self.requests_cancelled,
                "deadline_exceeded": self.deadline_exceeded,
                "generation_failures": self.generation_failures,
                "generation_retries": self.generation_retries,
                "worker_restarts": self.worker_restarts,
                "breaker_trips": self.breaker_trips,
                "breaker_open": self.breaker_open,
                "queue_depth": self.queue_depth,
                "request_latency_p50_seconds": _percentile(latencies, 0.50),
                "request_latency_p95_seconds": _percentile(latencies, 0.95),
                "batches": len(batch_sizes),
                "batch_occupancy_mean": (
                    sum(batch_requests) / len(batch_requests) if batch_requests else 0.0
                ),
                "batch_size_mean": (
                    sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
                ),
                "samples_generated": self.samples_generated,
                "samples_cached": self.samples_cached,
                "cache_hit_rate": (self.samples_cached / served) if served else 0.0,
                "library_restored_samples": self.library_restored_samples,
                "library_persisted_chunks": self.library_persisted_chunks,
                "library_persisted_patterns": self.library_persisted_patterns,
                "legalize_attempted": legal.attempted,
                "legalize_solved": legal.solved,
                "legalize_solutions": legal.solutions,
                "legalize_fast_path_fraction": legal.fast_path_fraction,
                "legalize_batched_sweeps": legal.batched_sweeps,
                "legalize_batched_sweep_size_mean": legal.batched_sweep_mean_size,
                "legalize_batched_tail_solves": legal.batched_tail_solves,
                "compile_cache": compilation_cache_info(),
            }
