"""Asyncio generation service: admission, coalescing, caching, shutdown.

:class:`GenerationService` is the in-process heart of ``repro serve`` (the
HTTP daemon in :mod:`repro.serve.server` is a thin transport over it):

* **Admission** (:meth:`GenerationService.submit`) is synchronous on the
  event loop.  The request's scenario is resolved and lowered, its sample
  window is reserved on the stream's ledger *in submission order* — that
  reservation, not the later generation schedule, pins which samples the
  request owns — and a bounded pending count applies backpressure: when
  ``max_pending`` requests are already in flight the submit raises
  :class:`ServiceBusyError` (HTTP 429) instead of queueing unboundedly.
* **Coalescing**: one worker task drains every waiting request at once,
  groups them by stream identity, and advances each group's shared
  :class:`~repro.serve.StreamBatcher` in batches spanning all waiting
  windows — concurrent clients are served by the same sampling and
  legalization calls.  Each completed chunk is routed to every request
  whose window it intersects, as a streamed
  :class:`~repro.serve.protocol.ChunkPayload`.
* **Caching**: a window that is already fully generated is answered from
  the batcher's pattern cache at submit time, without occupying a pending
  slot; partially-covered windows get their cached prefix before any new
  generation runs.
* **Shutdown** (:meth:`GenerationService.stop`) is clean mid-stream: the
  worker finishes the chunk in flight (executor work cannot be interrupted),
  then every unfinished request receives a terminal
  :class:`~repro.serve.protocol.RequestSummary` with ``ok=False`` — chunks
  already delivered remain valid.
* **Failure model** (see ``docs/serving.md``): per-request **deadlines**
  cancel cleanly (terminal summary, batch slot released, delivered chunks
  valid); failed warmup/advance calls are retried with budgeted
  exponential backoff + jitter at the admission layer; repeated group
  failures trip a **circuit breaker** that rejects non-cached windows with
  :class:`ServiceDegradedError` (503 + ``Retry-After``) while continuing to
  serve fully cached windows; with ``supervised=True`` each stream's
  engines run in a child process under
  :class:`~repro.serve.supervisor.SupervisedWorker`, which restarts dead or
  hung workers and deterministically resubmits the in-flight window.

Determinism contract (asserted by ``tests/test_serve.py`` and the
``serve_parity`` benchmark gate): the patterns served for window
``[a, b)`` are bit-identical to samples ``[a, b)`` of a one-shot
``repro generate`` of the same scenario/seed, for any number of concurrent
clients, any interleaving, and any ``max_batch``.
"""

from __future__ import annotations

import asyncio
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from ..scenarios import builtin_registry
from .batcher import StreamBatcher, stream_key
from .metrics import ServeMetrics
from .protocol import ChunkPayload, GenerateRequest, RequestSummary
from .supervisor import SupervisedStreamBatcher, WorkerConfig

__all__ = [
    "GenerationService",
    "RequestTicket",
    "ServedWindow",
    "ServiceBusyError",
    "ServiceClosedError",
    "ServiceDegradedError",
]


class ServiceBusyError(RuntimeError):
    """The pending-request bound is hit; the caller should retry later (429)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: Hint for the HTTP ``Retry-After`` header (seconds).
        self.retry_after = float(retry_after)


class ServiceClosedError(RuntimeError):
    """The service is stopping or stopped and admits no new requests (503)."""


class ServiceDegradedError(ServiceClosedError):
    """The circuit breaker is open: generation is failing repeatedly.

    Fully cached windows are still served; anything needing live generation
    is rejected until the breaker's reset window elapses (503 with a
    ``Retry-After`` hint over HTTP).
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        #: Seconds until the breaker half-opens (the ``Retry-After`` hint).
        self.retry_after = float(retry_after)


@dataclass
class ServedWindow:
    """Everything one finished request produced, collected in stream order."""

    patterns: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    clean: list = field(default_factory=list)
    summary: "RequestSummary | None" = None

    @property
    def ok(self) -> bool:
        return self.summary is not None and self.summary.ok


class RequestTicket:
    """Handle to one admitted request: an async stream of its events.

    Iterate :meth:`events` for per-chunk streaming, or await
    :meth:`collect` for the whole window at once.  Exactly one
    :class:`~repro.serve.protocol.RequestSummary` terminates the stream.
    """

    def __init__(self, request: GenerateRequest, scenario: str, start: int, end: int) -> None:
        self.request = request
        self.scenario = scenario
        #: Absolute sample window ``[start, end)`` reserved for this request.
        self.start = start
        self.end = end
        self.summary: "RequestSummary | None" = None
        self._events: "asyncio.Queue" = asyncio.Queue()
        self._submitted = time.perf_counter()
        self._covered = start
        self._admitted = False
        self._finished = False
        self._batcher: "StreamBatcher | None" = None
        #: ``loop.call_later`` handle of the request's deadline, if any.
        self._deadline_handle = None
        self.num_patterns = 0
        self.num_clean = 0
        self.cached_samples = 0
        self.live_chunks = 0

    async def events(self):
        """Yield :class:`ChunkPayload` events until the summary arrives.

        The terminating summary is not yielded; it lands on
        :attr:`summary`.
        """
        while True:
            event = await self._events.get()
            if isinstance(event, RequestSummary):
                self.summary = event
                return
            yield event

    async def collect(self) -> ServedWindow:
        """Drain the whole event stream into one :class:`ServedWindow`."""
        window = ServedWindow()
        async for payload in self.events():
            window.patterns.extend(payload.patterns)
            window.sources.extend(payload.sources)
            window.clean.extend(payload.clean)
        window.summary = self.summary
        return window


class GenerationService:
    """Coalescing generation service over the scenario registry.

    Parameters
    ----------
    registry:
        A :class:`~repro.scenarios.ScenarioRegistry`; defaults to the
        builtins.
    max_pending:
        Backpressure bound: requests admitted but not yet finished.  A
        submit beyond it raises :class:`ServiceBusyError`.
    max_batch:
        Largest coalesced batch one engine call may span (memory knob;
        results are identical for any value).
    pipeline_factory:
        Optional ``plan -> (trained pipeline, generator)`` hook forwarded
        to each :class:`~repro.serve.StreamBatcher` (tests inject
        pre-trained pipelines).
    metrics:
        A :class:`~repro.serve.ServeMetrics`; a fresh one by default.
    library_root:
        Optional directory of a shared v2
        :class:`~repro.library.PatternLibrary`.  Each stream batcher
        becomes a writer of that library: generated chunks are persisted
        with per-pattern attribution and restored into the pattern cache on
        warmup, so the serve cache survives restarts and many servers/CLI
        runs can grow one library concurrently.
    supervised:
        Run each stream's engines in a supervised child process
        (:class:`~repro.serve.supervisor.SupervisedStreamBatcher`): worker
        death and hangs are detected, the worker is restarted, and the
        in-flight window is deterministically resubmitted.
    worker_config:
        :class:`~repro.serve.supervisor.WorkerConfig` supervision knobs
        (heartbeats, timeouts, restart budget); defaults when ``None``.
    deadline_seconds:
        Service-wide default per-request deadline in seconds, finite and
        > 0 (``None``: no deadline).  A request's own ``deadline`` field
        overrides it.
    retry_budget:
        Failed warmup/advance calls are retried this many times (with
        exponential backoff + jitter) before the group's requests fail.
    retry_backoff / retry_backoff_cap:
        Base and cap of the retry backoff, in seconds.
    breaker_threshold:
        Consecutive retry-exhausted group failures that trip the circuit
        breaker.
    breaker_reset_seconds:
        How long the breaker stays open before a half-open trial.
    """

    def __init__(
        self,
        registry=None,
        max_pending: int = 8,
        max_batch: int = 64,
        pipeline_factory=None,
        metrics: "ServeMetrics | None" = None,
        library_root=None,
        supervised: bool = False,
        worker_config: "WorkerConfig | None" = None,
        deadline_seconds: "float | None" = None,
        retry_budget: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_cap: float = 2.0,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if deadline_seconds is not None and not 0 < deadline_seconds <= sys.float_info.max:
            raise ValueError(
                f"deadline must be a finite number of seconds > 0, got {deadline_seconds}"
            )
        self.registry = registry if registry is not None else builtin_registry()
        self.max_pending = int(max_pending)
        self.max_batch = int(max_batch)
        self.pipeline_factory = pipeline_factory
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.library_root = library_root
        self.supervised = bool(supervised)
        self.worker_config = worker_config
        self.deadline_seconds = deadline_seconds
        self.retry_budget = int(retry_budget)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_cap = float(retry_backoff_cap)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_seconds = float(breaker_reset_seconds)
        self._batchers: "dict[str, StreamBatcher]" = {}
        self._queue: "deque[RequestTicket]" = deque()
        self._wake = asyncio.Event()
        self._pending = 0
        self._stopping = False
        self._worker: "asyncio.Task | None" = None
        #: Consecutive retry-exhausted group failures (breaker input).
        self._breaker_failures = 0
        #: ``time.monotonic()`` until which the breaker stays open.
        self._breaker_open_until: "float | None" = None
        # Seeded: retry jitter stays reproducible under test.
        self._retry_rng = random.Random(0)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the worker task.  Requests submitted earlier drain at once
        — which is also how the throughput benchmark forces a maximally
        coalesced first batch."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop cleanly: finish the chunk in flight, fail the rest.

        Every admitted-but-unfinished request receives a terminal summary
        with ``ok=False`` (``error_code="service_stopped"``);
        already-delivered chunks stay valid.  Supervised worker processes
        are terminated.  Idempotent and safe to call concurrently.
        """
        self._stopping = True
        self._wake.set()
        worker, self._worker = self._worker, None
        if worker is not None:
            await worker
        while self._queue:
            self._finish(
                self._queue.popleft(),
                ok=False,
                error="service stopped",
                error_code="service_stopped",
            )
        loop = asyncio.get_running_loop()
        for batcher in self._batchers.values():
            await loop.run_in_executor(None, batcher.close)

    @property
    def stopping(self) -> bool:
        return self._stopping

    @property
    def pending(self) -> int:
        """Requests admitted and not yet finished (the queue-depth gauge)."""
        return self._pending

    @property
    def degraded(self) -> bool:
        """True while the circuit breaker is open."""
        return (
            self._breaker_open_until is not None
            and time.monotonic() < self._breaker_open_until
        )

    @property
    def state(self) -> str:
        """``"ok"`` | ``"degraded"`` | ``"stopping"`` (the readiness triage)."""
        if self._stopping:
            return "stopping"
        if self.degraded:
            return "degraded"
        return "ok"

    @property
    def ready(self) -> bool:
        """Readiness: accepting live-generation work right now."""
        return self.state == "ok"

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def plan_for(self, request: GenerateRequest):
        """Resolve and lower the request's scenario (+ overrides).

        Raises :class:`~repro.scenarios.ScenarioError` on an unknown
        scenario or invalid overrides — mapped to HTTP 400 by the server.
        """
        spec = self.registry.resolve(request.scenario)
        if request.overrides:
            spec = spec.with_overrides(request.overrides)
        return spec.lower()

    def submit(self, request: GenerateRequest) -> RequestTicket:
        """Admit one request and return its ticket.

        Runs synchronously on the event loop: scenario resolution, window
        reservation and the cache/backpressure decision all happen before
        control returns, so the request→window mapping is fixed by
        submission order alone.

        Raises
        ------
        ServiceClosedError
            After :meth:`stop` has begun.
        ServiceDegradedError
            While the circuit breaker is open, for any window that needs
            live generation (fully cached windows are still served).
        ServiceBusyError
            When ``max_pending`` requests are already in flight (the
            explicit-reject backpressure contract; never silently queues
            past the bound).
        repro.scenarios.ScenarioError
            On an unknown scenario or invalid overrides.
        """
        if self._stopping:
            raise ServiceClosedError("service is stopping")
        plan = self.plan_for(request)
        count = request.count if request.count is not None else plan.num_generated
        batcher = self._batcher_for(plan)
        start, end = batcher.reserve(count, request.start)
        ticket = RequestTicket(request, plan.scenario, start, end)
        ticket._batcher = batcher

        # Fully-cached window: answer immediately, never occupy a pending
        # slot — repeat requests cost nothing even under full load, and
        # stay served while the breaker is open (graceful degradation).
        if batcher.ready and end <= batcher.covered_through():
            self.metrics.record_admitted(self._pending)
            self._serve_cached_prefix(ticket, batcher)
            self._finish(ticket, ok=True)
            return ticket

        if self.degraded:
            remaining = self._breaker_open_until - time.monotonic()
            raise ServiceDegradedError(
                "service degraded: generation is failing repeatedly "
                f"(circuit breaker open for {remaining:.1f}s more)",
                retry_after=max(0.0, remaining),
            )

        if self._pending >= self.max_pending:
            self.metrics.record_rejected()
            raise ServiceBusyError(
                f"{self._pending} requests already pending (max {self.max_pending})"
            )
        self._pending += 1
        ticket._admitted = True
        self.metrics.record_admitted(self._pending)
        self._queue.append(ticket)
        self._wake.set()
        deadline = (
            request.deadline if request.deadline is not None else self.deadline_seconds
        )
        if deadline is not None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = None  # no loop yet: the deadline cannot be armed
            if loop is not None:
                ticket._deadline_handle = loop.call_later(
                    deadline, self._expire, ticket, float(deadline)
                )
        return ticket

    def cancel(
        self,
        ticket: RequestTicket,
        reason: str = "cancelled by client",
        error_code: str = "cancelled",
    ) -> bool:
        """Cancel an admitted request cleanly (disconnects, deadlines).

        The ticket receives its terminal summary immediately, its batch
        slot (pending count) is released, and the coalescing worker drops
        it from any in-flight group — generation already paid for is still
        folded into the cache, so nothing is wasted or leaked.  Returns
        False if the request already finished.
        """
        if ticket._finished:
            return False
        try:
            self._queue.remove(ticket)
        except ValueError:
            pass
        self.metrics.record_cancelled(deadline=error_code == "deadline_exceeded")
        self._finish(ticket, ok=False, error=reason, error_code=error_code)
        return True

    def _expire(self, ticket: RequestTicket, deadline: float) -> None:
        self.cancel(
            ticket,
            reason=f"deadline of {deadline:g}s exceeded",
            error_code="deadline_exceeded",
        )

    def _batcher_for(self, plan) -> StreamBatcher:
        key = stream_key(plan)
        existing = self._batchers.get(key)
        if existing is not None:
            return existing
        if self.supervised:
            batcher: StreamBatcher = SupervisedStreamBatcher(
                plan,
                self.pipeline_factory,
                max_batch=self.max_batch,
                library_root=self.library_root,
                metrics=self.metrics,
                worker_config=self.worker_config,
            )
        else:
            batcher = StreamBatcher(
                plan,
                self.pipeline_factory,
                max_batch=self.max_batch,
                library_root=self.library_root,
                metrics=self.metrics,
            )
        self._batchers[key] = batcher
        return batcher

    # ------------------------------------------------------------------ #
    # the circuit breaker
    # ------------------------------------------------------------------ #
    def _record_group_failure(self) -> None:
        """One request group exhausted its retry budget."""
        self._breaker_failures += 1
        if self._breaker_failures >= self.breaker_threshold and not self.degraded:
            self._breaker_open_until = time.monotonic() + self.breaker_reset_seconds
            # Half-open bookkeeping: when the window elapses, one more
            # failure re-trips immediately.
            self._breaker_failures = self.breaker_threshold - 1
            self.metrics.record_breaker_state(True, tripped=True)

    def _record_group_success(self) -> None:
        """A live generation call succeeded: close the breaker."""
        self._breaker_failures = 0
        if self._breaker_open_until is not None:
            self._breaker_open_until = None
            self.metrics.record_breaker_state(False)

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping:
            if not self._queue:
                self._wake.clear()
                if self._queue or self._stopping:
                    continue
                await self._wake.wait()
                continue
            # Drain *everything* waiting right now: this is the coalescing
            # moment — all windows reserved so far are served together.
            drained = list(self._queue)
            self._queue.clear()
            groups: "dict[str, list[RequestTicket]]" = {}
            for ticket in drained:
                groups.setdefault(ticket._batcher.key, []).append(ticket)
            for tickets in groups.values():
                await self._process_group(tickets[0]._batcher, tickets, loop)

    async def _call_with_retries(self, loop, fn, *args):
        """Run a batcher call on the executor under the admission retry budget.

        Exponential backoff with deterministic jitter between attempts; the
        budget is per call, and a success resets nothing here (the breaker
        tracks consecutive *exhausted* failures, not attempts).
        """
        attempt = 0
        while True:
            try:
                return await loop.run_in_executor(None, fn, *args)
            except Exception:
                self.metrics.record_generation_failure()
                attempt += 1
                if self._stopping or attempt > self.retry_budget:
                    raise
                self.metrics.record_generation_retry()
                delay = min(
                    self.retry_backoff * (2 ** (attempt - 1)), self.retry_backoff_cap
                )
                await asyncio.sleep(delay * (1.0 + 0.25 * self._retry_rng.random()))

    async def _process_group(
        self, batcher: StreamBatcher, tickets: "list[RequestTicket]", loop
    ) -> None:
        if self._stopping:
            # A request admitted in the same loop tick `stop()` began must
            # not pay for warmup: fail it with the typed shutdown error.
            for ticket in tickets:
                self._finish(
                    ticket,
                    ok=False,
                    error="service stopped",
                    error_code="service_stopped",
                )
            return
        try:
            if not batcher.ready:
                await self._call_with_retries(loop, batcher.ensure_ready)
        except Exception as error:  # noqa: BLE001 - reported to every client
            self._record_group_failure()
            for ticket in tickets:
                self._finish(
                    ticket,
                    ok=False,
                    error=f"warmup failed: {error}",
                    error_code="warmup_failed",
                )
            return

        live: "list[RequestTicket]" = []
        for ticket in tickets:
            if ticket._finished:  # cancelled/expired while queued
                continue
            self._serve_cached_prefix(ticket, batcher)
            if ticket._covered >= ticket.end:
                self._finish(ticket, ok=True)
            else:
                live.append(ticket)

        while True:
            # Cancellations and deadlines may fire between awaits: drop
            # finished tickets so their batch demand is released, and
            # re-aim the target at what is still wanted.
            live = [t for t in live if not t._finished]
            if not live or self._stopping:
                break
            target = max(ticket.end for ticket in live)
            if batcher.covered_through() >= target:
                break
            size = min(self.max_batch, target - batcher.covered_through())
            try:
                chunk = await self._call_with_retries(loop, batcher.advance, size)
            except Exception as error:  # noqa: BLE001 - reported to every client
                self._record_group_failure()
                for ticket in live:
                    self._finish(
                        ticket,
                        ok=False,
                        error=f"generation failed: {error}",
                        error_code="generation_failed",
                    )
                return
            self._record_group_success()
            occupancy = sum(
                1 for t in live if t.start < chunk.end and t.end > chunk.start
            )
            self.metrics.record_batch(chunk.size, occupancy)
            self.metrics.record_legalization(chunk.legalization_report.stats)
            for ticket in live:
                if ticket._finished:
                    continue
                self._deliver_chunk(ticket, chunk)
                if ticket._covered >= ticket.end:
                    self._finish(ticket, ok=True)
        for ticket in live:
            if not ticket._finished:
                self._finish(
                    ticket,
                    ok=False,
                    error="service stopped mid-stream",
                    error_code="service_stopped",
                )

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _serve_cached_prefix(self, ticket: RequestTicket, batcher: StreamBatcher) -> None:
        hi = min(ticket.end, batcher.covered_through())
        if hi <= ticket._covered:
            return
        lo = ticket._covered
        for record, patterns, sources, clean in batcher.cover(lo, hi):
            payload = ChunkPayload(
                start=max(record.start, lo),
                end=min(record.end, hi),
                patterns=patterns,
                sources=sources,
                clean=clean,
                cached=True,
            )
            ticket.num_patterns += len(patterns)
            ticket.num_clean += sum(1 for flag in clean if flag)
            ticket._events.put_nowait(payload)
        ticket.cached_samples += hi - lo
        self.metrics.record_cached(hi - lo)
        ticket._covered = hi

    def _deliver_chunk(self, ticket: RequestTicket, chunk) -> None:
        lo = max(ticket.start, chunk.start)
        hi = min(ticket.end, chunk.end)
        if lo >= hi:
            return
        patterns, sources, clean = [], [], []
        for pattern, source, flag in zip(
            chunk.patterns, chunk.pattern_sources, chunk.clean_mask
        ):
            if lo <= source < hi:
                patterns.append(pattern)
                sources.append(int(source))
                clean.append(bool(flag))
        ticket._events.put_nowait(
            ChunkPayload(
                start=lo, end=hi, patterns=patterns, sources=sources, clean=clean
            )
        )
        ticket.num_patterns += len(patterns)
        ticket.num_clean += sum(1 for flag in clean if flag)
        ticket.live_chunks += 1
        ticket._covered = max(ticket._covered, hi)

    def _finish(
        self,
        ticket: RequestTicket,
        ok: bool,
        error: "str | None" = None,
        error_code: "str | None" = None,
    ) -> None:
        if ticket._finished:
            return
        ticket._finished = True
        if ticket._deadline_handle is not None:
            ticket._deadline_handle.cancel()
            ticket._deadline_handle = None
        if ticket._admitted:
            self._pending -= 1
        elapsed = time.perf_counter() - ticket._submitted
        ticket._events.put_nowait(
            RequestSummary(
                ok=ok,
                scenario=ticket.scenario,
                start=ticket.start,
                end=ticket.end,
                num_patterns=ticket.num_patterns,
                num_clean=ticket.num_clean,
                cached_samples=ticket.cached_samples,
                live_chunks=ticket.live_chunks,
                elapsed_seconds=elapsed,
                error=error,
                error_code=error_code,
            )
        )
        self.metrics.record_finished(elapsed, ok, self._pending)
