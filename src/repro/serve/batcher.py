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
* the **window ledger**: a reservation frontier handing each tail request
  the next unclaimed ``[start, start + count)`` window, and the ``done``
  frontier of samples already generated;
* the **pattern cache**: per-chunk hash records (via
  :func:`repro.library.pattern_hash` — the same dedup identity the
  :class:`~repro.library.PatternLibrary` uses) plus one shared pattern
  store, so a repeat window is answered without touching the engines.

Thread model: the service's event loop calls :meth:`reserve` /
:meth:`cover` / :meth:`covered_through`; :meth:`ensure_ready` and
:meth:`advance` run on an executor thread.  The internal lock keeps the
ledger and cache coherent between the two.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from ..faults import declare_fault_points, fault_point
from ..library import ChunkRecord, LibraryError, PatternLibrary, pattern_hash
from ..pipeline import DiffPatternPipeline
from ..utils import as_rng

__all__ = ["CachedChunk", "StreamBatcher", "stream_key"]

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
    """Cache record of one generated chunk (hashes, not patterns).

    Patterns themselves live once in the batcher's shared store keyed by
    :func:`repro.library.pattern_hash`; the chunk keeps the hash sequence so
    a window replay reconstructs the exact pattern order.
    """

    #: Absolute sample window ``[start, end)`` the chunk covered.
    start: int
    end: int
    #: Pattern hash per produced pattern, in stream order.
    hashes: list = field(default_factory=list)
    #: Absolute source sample index per pattern.
    sources: list = field(default_factory=list)
    #: DRC verdict per pattern.
    clean: list = field(default_factory=list)


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
        Optional directory of a (possibly shared) v2
        :class:`~repro.library.PatternLibrary`.  The batcher becomes writer
        ``serve-<stream key>`` of that library: every generated chunk is
        persisted with per-pattern source/DRC attribution, and on warmup the
        writer's committed chunks are restored into the pattern cache — the
        stream fast-forwards over them — so repeat windows survive a server
        restart, and concurrently running servers/CLI runs grow one library.
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
        self._pipeline_factory = pipeline_factory or _default_pipeline_factory
        self._lock = threading.Lock()
        self._stream = None
        self._library = None
        #: Samples recovered from the persistent library at warmup.
        self.restored_samples = 0
        #: Chunks committed to the persistent library by this batcher.
        self.persisted_chunks = 0
        #: Next unclaimed sample index (grows at reservation time).
        self.reserved = 0
        #: Samples generated so far (grows as chunks complete).
        self.done = 0
        self._chunks: "list[CachedChunk]" = []
        self._patterns: dict = {}
        # Crash-atomicity latches for :meth:`advance`: a chunk that was
        # computed but not yet committed to the cache survives here, so a
        # retried advance re-exposes the same chunk instead of re-running
        # the engines (which would skip a window of samples).
        self._pending_chunk = None
        self._pending_persisted = False

    # ------------------------------------------------------------------ #
    # warmup
    # ------------------------------------------------------------------ #
    @property
    def ready(self) -> bool:
        """True once the pipeline is trained and the stream is open."""
        return self._stream is not None

    def ensure_ready(self) -> None:
        """Train (if needed) and open the shared stream.  Idempotent.

        Runs on the service's executor thread — warmup for a paper-scale
        scenario is minutes of training, and must not block the event loop.
        """
        if self._stream is not None:
            return
        fault_point("serve:warmup")
        pipeline, gen = self._pipeline_factory(self.plan)
        # The plan's worker count, not the (possibly injected) pipeline's:
        # output is worker-count invariant, so only the served cost changes.
        graph = pipeline.generation_graph(
            num_solutions=self.plan.num_solutions,
            workers=self.plan.config.workers,
            retain_topologies=False,
        )
        # Resolves the same two base seeds the one-shot run draws from the
        # post-training generator: bit-identity with `repro generate`.
        self._stream = graph.open_stream(gen)
        if self.library_root is not None:
            self._attach_library()

    # ------------------------------------------------------------------ #
    # persistent backing
    # ------------------------------------------------------------------ #
    @property
    def writer_id(self) -> str:
        """This stream's writer identity in the shared pattern library."""
        return f"serve-{self.key[:12]}"

    def _library_fingerprint(self) -> dict:
        """The resume-safety identity of this served stream.

        The graph fingerprint pins seeds/rules/knobs (``num_samples`` is -1:
        a served stream is open-ended); the stream key pins the scenario
        identity the server groups by.
        """
        stream = self._stream
        fingerprint = stream.graph.fingerprint(
            -1, stream.sample_seed, stream.legal_seed
        )
        fingerprint["stream_key"] = self.key
        return fingerprint

    def _attach_library(self) -> None:
        """Bind the stream's writer ledger and restore its cached chunks.

        Restored chunks replay exactly like live ones — patterns enter the
        shared store, the window ledger's ``done`` frontier advances, and
        the stream's counters skip forward — so a window served before the
        restart is answered from the cache, bit-identical, without touching
        the engines.
        """
        library = PatternLibrary(self.library_root, writer=self.writer_id)
        records = library.bind(self._library_fingerprint(), resume=True)
        with self._lock:
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
                cached = CachedChunk(
                    start=record.start, end=record.start + record.num_sampled
                )
                for pattern, source, flag in zip(
                    patterns, record.pattern_sources, record.pattern_clean
                ):
                    digest = pattern_hash(pattern)
                    self._patterns.setdefault(digest, pattern)
                    cached.hashes.append(digest)
                    cached.sources.append(int(source))
                    cached.clean.append(bool(flag))
                self._chunks.append(cached)
                self._skip_record(record)
                self.done = cached.end
                self.restored_samples += record.num_sampled
        self._library = library
        if self.metrics is not None and self.restored_samples:
            self.metrics.record_library_restored(self.restored_samples)

    def _skip_record(self, record) -> None:
        """Fast-forward the generation state over one restored chunk."""
        self._stream.skip_record(record)

    def _persist_chunk(self, chunk) -> None:
        """Commit one generated chunk to the shared library (with attribution)."""
        fault_point("serve:persist")
        stats = chunk.legalization_report.stats
        record = ChunkRecord(
            chunk=chunk.chunk,
            start=chunk.start,
            num_sampled=chunk.size,
            num_kept=chunk.num_kept,
            num_rejected=chunk.num_rejected,
            unsolved=chunk.unsolved,
            num_patterns=len(chunk.chunk_patterns),
            num_stored=0,
            duplicates_skipped=0,
            num_clean=chunk.num_clean,
            shard=None,
            topology_complexity_counts=chunk.topology_histogram.as_records(),
            pattern_complexity_counts=chunk.pattern_histogram.as_records(),
            stats={
                "attempted": stats.attempted,
                "solved": stats.solved,
                "failed": stats.failed,
                "solutions": stats.solutions,
                "total_iterations": stats.total_iterations,
                "total_solver_time": stats.total_solver_time,
            },
            pattern_sources=[int(source) for source in chunk.pattern_sources],
            pattern_clean=[int(bool(flag)) for flag in chunk.clean_mask],
        )
        self._library.append_chunk(record, chunk.patterns)
        self.persisted_chunks += 1
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
        """Run the engines for the next ``size`` samples (overridable)."""
        return self._stream.advance(size)

    def _commit_chunk(self, chunk) -> None:
        """Fold a computed chunk into the pattern cache and ``done`` frontier."""
        fault_point("serve:cache-commit")
        record = CachedChunk(start=chunk.start, end=chunk.end)
        with self._lock:
            for pattern, source, clean in zip(
                chunk.patterns, chunk.pattern_sources, chunk.clean_mask
            ):
                digest = pattern_hash(pattern)
                self._patterns.setdefault(digest, pattern)
                record.hashes.append(digest)
                record.sources.append(int(source))
                record.clean.append(bool(clean))
            self._chunks.append(record)
            self.done = chunk.end

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
                for digest, source, flag in zip(
                    record.hashes, record.sources, record.clean
                ):
                    if start <= source < end:
                        patterns.append(self._patterns[digest])
                        sources.append(source)
                        clean.append(flag)
                slices.append((record, patterns, sources, clean))
        return slices
