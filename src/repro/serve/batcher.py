"""Cross-request batching state for one scenario stream.

The service groups requests by *stream identity* — scenario config +
training size + solutions + seed, digested by :func:`stream_key` — and
gives each group one :class:`StreamBatcher`.  The batcher owns:

* the **deterministic warmup** (data → train, consuming the run generator
  exactly like ``repro generate`` does, so the stream's two base seeds come
  out identical to the one-shot CLI run);
* the single :class:`~repro.pipeline.GenerationStream` all requests share —
  every ``advance`` is one coalesced sampling/legalization batch covering
  whichever request windows are waiting;
* the **committed frontier**: the stream counters ``(next_start,
  next_chunk, num_kept)`` as of the last chunk folded into the cache.  It
  is the one record of where the served stream stands; every advance
  seeks the stream to it (:meth:`~repro.pipeline.GenerationStream.seek`),
  in process or — for the supervised batcher, whose advance command
  carries it — in the worker process;
* the **window ledger**: a reservation frontier handing each tail request
  the next unclaimed ``[start, start + count)`` window, and the ``done``
  frontier of samples already generated (the committed ``next_start``);
* the **pattern cache**: every committed chunk as it was generated (or
  restored) — patterns, source sample indices and DRC verdicts — so a
  repeat window is answered without touching the engines.

A batcher is :attr:`~StreamBatcher.ready` once its stream is open and, when
a library backs it, the library is attached and restored: a failed attach
is retried by the next :meth:`~StreamBatcher.ensure_ready`, never skipped.

Every path that opens a served stream — this batcher, and the supervised
worker process of :mod:`repro.serve.supervisor` — goes through
:func:`open_plan_stream` and :func:`stream_fingerprint`, and every
:class:`~repro.pipeline.StreamChunk` reaches the library through
:meth:`~repro.pipeline.StreamChunk.record`.

Thread model: the service's event loop calls :meth:`reserve` /
:meth:`cover` / :meth:`covered_through`; :meth:`ensure_ready` and
:meth:`advance` run on an executor thread.  The internal lock keeps the
ledger and cache coherent between the two.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from ..faults import declare_fault_points, fault_point
from ..library import LibraryError, PatternLibrary
from ..pipeline import DiffPatternPipeline
from ..utils import as_rng

__all__ = [
    "CachedChunk",
    "StreamBatcher",
    "open_plan_stream",
    "stream_fingerprint",
    "stream_key",
]

declare_fault_points(
    "serve:warmup",
    "serve:advance",
    "serve:persist",
    "serve:cache-commit",
)


def stream_key(plan) -> str:
    """Digest of everything that shapes a scenario's sample stream.

    Two requests share a batcher (and therefore batches and cache) iff
    their lowered plans agree on the pipeline config, the training run and
    the per-run seeds/solutions.  Window-shaping knobs (``num_generated``,
    ``dedup``, ``retain_topologies``) are deliberately *not* part of the
    key: they change how much is asked for, not what sample ``i``
    contains.
    """
    digest = hashlib.sha1()
    digest.update(repr(plan.config).encode())
    digest.update(str(plan.num_training_patterns).encode())
    digest.update(str(plan.num_solutions).encode())
    digest.update(str(plan.seed).encode())
    return digest.hexdigest()


@dataclass
class CachedChunk:
    """Cache record of one generated chunk, in stream order."""

    #: Absolute sample window ``[start, end)`` the chunk covered.
    start: int
    end: int
    #: The chunk's patterns.
    patterns: list
    #: Absolute source sample index per pattern.
    sources: list
    #: DRC verdict per pattern.
    clean: list


def _default_pipeline_factory(plan):
    """Train a pipeline exactly like ``repro generate`` warms one up.

    One generator seeded from the plan drives data synthesis and training
    in sequence and is returned still positioned for generation — the same
    draws ``repro.cli._execute_plan`` makes, which is what makes served
    windows bit-identical to the one-shot CLI run.
    """
    pipeline = DiffPatternPipeline(plan.config)
    gen = as_rng(plan.seed)
    pipeline.prepare_data(plan.num_training_patterns, rng=gen)
    pipeline.train(rng=gen)
    return pipeline, gen


def open_plan_stream(plan, pipeline_factory=None):
    """Warm the plan's pipeline and open the stream its windows are served from.

    ``pipeline_factory`` is the ``plan -> (trained pipeline, generator)``
    hook of :class:`StreamBatcher` (``None`` trains from scratch).  The graph
    takes the plan's worker count, not the (possibly injected) pipeline's:
    output is worker-count invariant, so only the served cost changes.  It
    retains no raw topologies, so a chunk carries only what is served.  The
    stream resolves the same two base seeds the one-shot run draws from the
    post-training generator: bit-identity with ``repro generate``.
    """
    pipeline, gen = (pipeline_factory or _default_pipeline_factory)(plan)
    graph = pipeline.generation_graph(
        num_solutions=plan.num_solutions,
        workers=plan.config.workers,
        retain_topologies=False,
    )
    return graph.open_stream(gen)


def stream_fingerprint(stream) -> dict:
    """The graph fingerprint of a served stream (seeds, rules, knobs).

    ``num_samples`` is -1: a served stream is open-ended.
    """
    return stream.graph.fingerprint(-1, stream.sample_seed, stream.legal_seed)


class StreamBatcher:
    """Shared generation stream + window ledger + pattern cache.

    Parameters
    ----------
    plan:
        The lowered :class:`~repro.scenarios.RunPlan` defining the stream.
    pipeline_factory:
        ``plan -> (trained pipeline, generator)`` hook.  The default trains
        from scratch on first use; tests and benchmarks inject a pre-trained
        pipeline with a generator restored to its post-training state so a
        suite pays for training once.
    max_batch:
        Upper bound on samples per coalesced :meth:`advance` call (a memory
        knob, like the graph's ``chunk_size`` — output is identical for any
        value).
    library_root:
        Optional directory of a (possibly shared), non-deduplicating
        :class:`~repro.library.PatternLibrary`.  The batcher becomes writer
        ``serve-<stream key>`` of that library: every generated chunk is
        persisted with per-pattern source/DRC attribution, and on warmup the
        writer's committed chunks are restored into the pattern cache — the
        committed frontier moves past them — so repeat windows survive a
        server restart, and concurrently running servers/CLI runs grow one
        library.
    metrics:
        Optional :class:`~repro.serve.ServeMetrics` receiving the library
        restore/persist counters.
    """

    def __init__(
        self,
        plan,
        pipeline_factory=None,
        max_batch: int = 64,
        library_root=None,
        metrics=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.plan = plan
        self.key = stream_key(plan)
        self.max_batch = int(max_batch)
        self.library_root = library_root
        self.metrics = metrics
        self._pipeline_factory = pipeline_factory
        self._lock = threading.Lock()
        self._stream = None
        #: The open stream's fingerprint (``None`` until it is open).
        self._fingerprint: "dict | None" = None
        self._library = None
        #: Next unclaimed sample index (grows at reservation time).
        self.reserved = 0
        #: Stream counters ``(next_start, next_chunk, num_kept)`` as of the
        #: last chunk committed to the cache (and library, when backed).
        self._committed = (0, 0, 0)
        self._chunks: "list[CachedChunk]" = []
        # Crash-atomicity latches for :meth:`advance`: a chunk that was
        # computed but not yet committed to the cache survives here, so a
        # retried advance re-exposes the same chunk instead of re-running
        # the engines, and a chunk already persisted is not appended twice.
        self._pending_chunk = None
        self._pending_persisted = False

    # ------------------------------------------------------------------ #
    # warmup
    # ------------------------------------------------------------------ #
    @property
    def ready(self) -> bool:
        """True once the stream is open and any backing library attached."""
        return self._fingerprint is not None and (
            self.library_root is None or self._library is not None
        )

    @property
    def done(self) -> int:
        """Samples generated so far: the committed frontier's ``next_start``."""
        return self._committed[0]

    def ensure_ready(self) -> None:
        """Open the shared stream (once), then attach the library.  Idempotent.

        Runs on the service's executor thread — warmup for a paper-scale
        scenario is minutes of training, and must not block the event loop.
        A retry after a failed attach retries only the attach.
        """
        if self.ready:
            return
        fault_point("serve:warmup")
        if self._fingerprint is None:
            self._fingerprint = self._open()
        if self.library_root is not None:
            self._attach_library(self._fingerprint)

    def _open(self) -> dict:
        """Train and open the stream the engines run on; return its
        :func:`stream_fingerprint`."""
        self._stream = open_plan_stream(self.plan, self._pipeline_factory)
        return stream_fingerprint(self._stream)

    # ------------------------------------------------------------------ #
    # persistent backing
    # ------------------------------------------------------------------ #
    @property
    def writer_id(self) -> str:
        """This stream's writer identity in the shared pattern library."""
        return f"serve-{self.key[:12]}"

    def _attach_library(self, fingerprint: dict) -> None:
        """Bind the stream's writer ledger and restore its cached chunks.

        ``fingerprint`` is the served stream's :func:`stream_fingerprint`;
        the ledger binds it plus the stream key, the scenario identity the
        server groups by.  Restored chunks replay exactly like live ones —
        they enter the cache and the committed frontier moves past them —
        so a window served before the restart is answered from the cache,
        bit-identical, without touching the engines.  Every record is
        loaded before any is cached: a restore that fails part-way leaves
        the cache and frontier untouched.

        A deduplicating library is refused: its writers skip patterns
        another writer already stored, so a restored window (this writer's
        records alone) would lack patterns the live window served.
        """
        library = PatternLibrary(self.library_root, writer=self.writer_id)
        if library.dedup:
            raise LibraryError(
                f"library at {self.library_root} deduplicates across writers; "
                f"serve writer {self.writer_id!r} could not restore the "
                "windows it serves bit for bit (use a library written "
                "without --dedup)"
            )
        records = library.bind({**fingerprint, "stream_key": self.key}, resume=True)
        restored = []
        for record in records:
            patterns = library.load_record_patterns(record)
            if not (
                len(record.pattern_sources)
                == len(record.pattern_clean)
                == len(patterns)
            ):
                raise LibraryError(
                    f"chunk {record.chunk} of writer {self.writer_id!r} "
                    "carries no per-pattern attribution; the library was "
                    "not written by a serve batcher"
                )
            restored.append((record, patterns))
        with self._lock:
            for record, patterns in restored:
                self._cache_chunk(
                    record.start, record.num_sampled, record.num_kept,
                    patterns, record.pattern_sources, record.pattern_clean,
                )
            self._library = library
        samples = sum(record.num_sampled for record in records)
        if self.metrics is not None and samples:
            self.metrics.record_library_restored(samples)

    def _persist_chunk(self, chunk) -> None:
        """Commit one generated chunk to the shared library (with attribution)."""
        fault_point("serve:persist")
        record = chunk.record()
        record.pattern_sources = [int(source) for source in chunk.pattern_sources]
        record.pattern_clean = [int(bool(flag)) for flag in chunk.clean_mask]
        self._library.append_chunk(record, chunk.patterns)
        if self.metrics is not None:
            self.metrics.record_library_persisted(len(chunk.patterns))

    # ------------------------------------------------------------------ #
    # window ledger
    # ------------------------------------------------------------------ #
    def reserve(self, count: int, start: "int | None" = None) -> "tuple[int, int]":
        """Claim a sample window and return it as ``(start, end)``.

        With ``start=None`` the window is the next unclaimed tail slice —
        reservation order is submission order, which is what pins the
        request→sample mapping regardless of how generation later
        interleaves.  An explicit ``start`` may re-read old samples and may
        extend the frontier past the current tail.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        with self._lock:
            if start is None:
                start = self.reserved
            end = start + count
            if end > self.reserved:
                self.reserved = end
            return start, end

    def covered_through(self) -> int:
        """The ``done`` frontier: every sample below it is in the cache."""
        with self._lock:
            return self.done

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def advance(self, size: int):
        """Generate the next ``size`` samples and fold them into the cache.

        Runs on the executor thread; returns the
        :class:`~repro.pipeline.StreamChunk` so the service can route the
        slice to every waiting request.

        **Retry-safe**: the computed chunk is latched before the persist and
        cache-commit steps, so if either fails the service may call
        ``advance`` again and receive the *same* chunk — the stream never
        skips a window, and a chunk persisted before the failure is not
        persisted twice.
        """
        if not self.ready:
            raise RuntimeError("StreamBatcher.advance before ensure_ready")
        fault_point("serve:advance")
        chunk = self._pending_chunk
        if chunk is None:
            chunk = self._compute_chunk(size)
            self._pending_chunk = chunk
        if self._library is not None and not self._pending_persisted:
            # Commit before exposing: a chunk a client has seen is always
            # recoverable after a restart.
            self._persist_chunk(chunk)
        self._pending_persisted = True
        self._commit_chunk(chunk)
        self._pending_chunk = None
        self._pending_persisted = False
        return chunk

    def _compute_chunk(self, size: int):
        """Run the engines for ``size`` samples at the committed frontier."""
        self._stream.seek(self._committed)
        return self._stream.advance(size)

    def _commit_chunk(self, chunk) -> None:
        """Fold a computed chunk into the pattern cache and committed frontier."""
        fault_point("serve:cache-commit")
        with self._lock:
            self._cache_chunk(
                chunk.start, chunk.size, chunk.num_kept,
                chunk.patterns, chunk.pattern_sources, chunk.clean_mask,
            )

    def _cache_chunk(self, start, size, num_kept, patterns, sources, clean) -> None:
        """Cache one live or restored chunk and move the committed frontier
        past it (the caller holds the lock)."""
        self._chunks.append(
            CachedChunk(
                start=start,
                end=start + size,
                patterns=list(patterns),
                sources=[int(source) for source in sources],
                clean=[bool(flag) for flag in clean],
            )
        )
        _, next_chunk, kept = self._committed
        self._committed = (start + size, next_chunk + 1, kept + num_kept)

    def close(self) -> None:
        """Release generation resources (the supervised batcher's worker)."""

    # ------------------------------------------------------------------ #
    # cache reads
    # ------------------------------------------------------------------ #
    def cover(self, start: int, end: int) -> "list[tuple[CachedChunk, list, list, list]]":
        """Cached slices intersecting ``[start, end)``, in stream order.

        Each element is ``(record, patterns, sources, clean)`` restricted to
        the window — ready to become one cached
        :class:`~repro.serve.protocol.ChunkPayload`.  Only the part of the
        window below the ``done`` frontier is returned; the caller generates
        the rest.
        """
        slices = []
        with self._lock:
            for record in self._chunks:
                if record.end <= start or record.start >= end:
                    continue
                patterns, sources, clean = [], [], []
                for pattern, source, flag in zip(
                    record.patterns, record.sources, record.clean
                ):
                    if start <= source < end:
                        patterns.append(pattern)
                        sources.append(source)
                        clean.append(flag)
                slices.append((record, patterns, sources, clean))
        return slices
