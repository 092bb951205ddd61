"""Append-only on-disk pattern library: columnar shards + writer ledgers + hash index.

The paper's end product is a large *library* of legal patterns judged by
diversity H and legality; this module makes that library a first-class,
persistent artefact instead of an in-memory list that dies with the process:

* **Shards** — each completed generation chunk is written as one
  ``shards/*.npz`` file, the only file a chunk commits besides its ledger
  record: its patterns as columns (every topology cell in one packed bit
  array, the concatenated deltas, the shapes and origins), so a round trip
  is lossless and exact, plus the *index columns* of every pattern (both
  hashes and the complexity ``(cx, cy)``).
* **Ledgers** — every :class:`PatternLibrary` appends as one writer (the
  default is :data:`DEFAULT_WRITER`) to its own ``manifests/<writer>.json``,
  committed atomically *after* the shard; readers merge all ledgers by seq
  order — see :mod:`repro.library.manifest` — so many runs and serve
  workers can append to one library concurrently.
* **Index** — dedup probes go through the on-disk hash index
  (:mod:`repro.library.index`): in-memory sets of the unflushed chunks'
  hash columns, then a binary search of the sorted hash files.
* **Resume** — a :class:`~repro.pipeline.GenerationGraph` run handed an
  existing library validates the fingerprint *and the shard files of every
  completed chunk*, folds the stored records into its accumulators and
  continues with the first chunk its ledger does not list; completed chunks
  are never re-generated.
* **Dedup** — every stored pattern registers the hash of its topology
  matrix; ``dedup=True`` skips patterns whose exact ``(topology, delta_x,
  delta_y)`` triple is already present, and the per-topology registry feeds
  ``num_unique_topologies`` either way.

Older layouts are not opened: a legacy **v1** library (one
``manifest.json`` plus ``shard_<chunk>.npz`` files) and a version-2 one
(per-pattern shards plus ``index/`` sidecars) are rewritten in place by
:func:`migrate_library`, which ``repro compact-library`` runs first.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..metrics import ComplexityHistogram, pattern_complexity
from ..squish import SquishPattern
from ..faults import declare_fault_points, fault_point
from .index import HASH_DTYPE, INDEX_DIR, LibraryIndex
from .manifest import (
    DEFAULT_WRITER,
    LEDGER_VERSION,
    ChunkRecord,
    LibraryLock,
    WriterLedger,
    atomic_write_bytes,
    ledger_path,
    load_ledger,
    scan_ledgers,
    validate_writer_id,
)

#: The single manifest of a legacy v1 library (migrated, never opened).
MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
MANIFEST_VERSION = 1
#: Shards written by :meth:`PatternLibrary.compact` (they hold the slices of
#: several chunk records and are therefore range- rather than exact-checked).
MERGED_SHARD_PREFIX = "merged_"
#: Shards cached for lazy :class:`PatternHandle` loads.
_SHARD_CACHE_SIZE = 4
#: The per-pattern columns every shard stores next to its patterns.
INDEX_COLUMNS = ("pattern_hash", "topology_hash", "cx", "cy")

declare_fault_points(
    "append:shard",
    "append:ledger",
    "append:index-flush",
    "compact:merged-shard",
    "compact:index-invalidate",
    "compact:index-rebuild",
    "migrate:shard",
    "migrate:ledger",
    "migrate:drop-sidecars",
    "migrate:drop-manifest",
)

__all__ = [
    "ChunkRecord",
    "CompactionReport",
    "LibraryError",
    "PatternHandle",
    "PatternLibrary",
    "load_shard",
    "load_shard_slice",
    "migrate_library",
    "pattern_hash",
    "save_shard",
    "topology_hash",
]


class LibraryError(RuntimeError):
    """A pattern library on disk is missing, corrupt, or incompatible."""


def topology_hash(topology: np.ndarray) -> str:
    """Stable hex digest of a binary topology matrix (shape-aware)."""
    arr = np.ascontiguousarray(np.asarray(topology, dtype=np.uint8))
    digest = hashlib.sha1()
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def pattern_hash(pattern: SquishPattern) -> str:
    """Hex digest of the full ``(topology, delta_x, delta_y)`` triple."""
    digest = hashlib.sha1()
    digest.update(topology_hash(pattern.topology).encode())
    digest.update(np.ascontiguousarray(pattern.delta_x).tobytes())
    digest.update(np.ascontiguousarray(pattern.delta_y).tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# query handles / compaction accounting
# --------------------------------------------------------------------------- #
@dataclass
class PatternHandle:
    """One indexed pattern, loadable lazily (index columns, no pattern decoded).

    Returned by :meth:`PatternLibrary.query`; carries the hashes and the
    canonical complexity so filtering and accounting never decode pattern
    data.  :meth:`load` materialises the actual :class:`SquishPattern`
    through the library's small shard cache.
    """

    record: ChunkRecord
    position: int          # index within the record's shard slice
    pattern_hash: str
    topology_hash: str
    cx: int
    cy: int
    library: "PatternLibrary" = field(repr=False, default=None)

    @property
    def complexity(self) -> tuple[int, int]:
        return (self.cx, self.cy)

    def load(self) -> SquishPattern:
        return self.library._load_handle(self)


@dataclass
class CompactionReport:
    """What one :meth:`PatternLibrary.compact` call changed."""

    records: int = 0            # chunk records in the merged history
    shards_before: int = 0
    shards_after: int = 0
    merged_shards_written: int = 0
    patterns_dropped: int = 0   # superseded duplicates removed (dedup mode)

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__dataclass_fields__}


class PatternLibrary:
    """Append-only persistent store for legal squish patterns.

    Parameters
    ----------
    root:
        Directory holding ``manifests/`` and the ``shards/`` folder.
        Created on first write; existing state is loaded eagerly.
    dedup:
        When ``True``, :meth:`append_chunk` skips patterns whose exact
        ``(topology, delta_x, delta_y)`` hash is already registered.  Off by
        default so a streamed run stays element-wise identical to the batch
        run.  The flag is persisted, and an existing library's persisted
        value always wins on reopen — flipping the mode midway would make a
        resumed run diverge from the uninterrupted one.
    writer:
        The writer id this instance appends as (``None`` means
        :data:`DEFAULT_WRITER`).  Appends go to the writer's own
        ``manifests/<writer>.json`` under the advisory library lock, and
        dedup probes go through the on-disk hash index; every read sees the
        merged history of all writers.

    Raises
    ------
    LibraryError
        On a corrupt ledger or an unreadable shard beyond the index
        watermark, or a v1 ``manifest.json`` or version-2 ledger that
        :func:`migrate_library` has not yet migrated.
    """

    def __init__(
        self, root: "str | Path", dedup: bool = False, writer: "str | None" = None
    ) -> None:
        self.root = Path(root)
        self.dedup = bool(dedup)
        self.writer = validate_writer_id(DEFAULT_WRITER if writer is None else writer)
        self.fingerprint: dict = {}
        self.chunk_records: dict[int, ChunkRecord] = {}
        self._ledgers: dict[str, WriterLedger] = {}
        self._shard_cache: "OrderedDict[str, list[SquishPattern]]" = OrderedDict()
        self._index = LibraryIndex(self.root)
        if (self.root / MANIFEST_NAME).exists():
            raise LibraryError(
                f"library at {self.root} holds a v1 manifest.json; run "
                f"`repro compact-library {self.root}` to migrate it, then "
                "continue its history with `--writer legacy`"
            )
        self._refresh()

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    @property
    def shard_dir(self) -> Path:
        return self.root / SHARD_DIR

    @property
    def index_dir(self) -> Path:
        return self.root / INDEX_DIR

    def shard_path(self, chunk: int) -> Path:
        return self.shard_dir / f"shard_{self.writer}_{chunk:05d}.npz"


    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def _refresh(self) -> None:
        """Re-read every ledger shard and synchronise the index delta.

        Called on open and at the top of every locked critical section so a
        writer always merges against the latest committed state of its
        peers.  The merged history is a pure function of the on-disk files.
        """
        self._ledgers = ledgers = {
            writer_id: load_ledger(path)
            for writer_id, path in scan_ledgers(self.root).items()
        }
        if any(ledger.version != LEDGER_VERSION for ledger in ledgers.values()):
            raise LibraryError(
                f"library at {self.root} holds version-2 ledgers naming "
                f"per-pattern shards; run `repro compact-library {self.root}` "
                "to migrate it"
            )
        own = ledgers.get(self.writer)
        if own is not None:
            # Persisted state wins: a reopened writer keeps its mode and run.
            self.dedup = own.dedup
            if own.fingerprint:
                self.fingerprint = own.fingerprint
            self.chunk_records = {record.chunk: record for record in own.chunks}
        else:
            if ledgers:
                self.dedup = ledgers[min(ledgers)].dedup
            self.chunk_records = {}
        self._shard_cache.clear()
        self._index.reload_meta()
        self._index.refresh_delta(self.records_in_order(), self._record_hashes)

    def _record_hashes(self, record: ChunkRecord):
        """``(pattern_hashes, topology_hashes)``: the index delta/rebuild loader."""
        meta = self._record_metadata(record)
        return meta["pattern_hash"], meta["topology_hash"]

    def _shard_columns(self, record: ChunkRecord) -> dict[str, np.ndarray]:
        """``count`` and the :data:`INDEX_COLUMNS` of ``record``'s whole shard."""
        path = self.shard_dir / record.shard
        with _chunk_errors(record), _open_shard(path) as data:
            columns = {key: data[key] for key in ("count", *INDEX_COLUMNS)}
            total = int(columns["count"])
            if any(columns[k].shape != (total,) for k in INDEX_COLUMNS):
                raise LibraryError(
                    f"shard {path} is truncated or corrupt (index columns "
                    f"disagree with its count {total})"
                )
            _check_slice(record, total)
        return columns

    def _record_metadata(self, record: ChunkRecord) -> dict[str, np.ndarray]:
        """The :data:`INDEX_COLUMNS` of one record's shard slice (no decoding)."""
        if record.shard is None or record.num_stored == 0:
            return _index_columns([])
        columns = self._shard_columns(record)
        lo, hi = record.shard_start, record.shard_start + record.num_stored
        return {key: columns[key][lo:hi] for key in INDEX_COLUMNS}

    def _next_seq(self) -> int:
        return max((record.seq for record in self.records_in_order()), default=-1) + 1

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_chunks(self) -> int:
        return len(self.records_in_order())

    @property
    def num_patterns(self) -> int:
        """Patterns stored on disk (post-dedup), across every writer."""
        return sum(record.num_stored for record in self.records_in_order())

    @property
    def num_unique_topologies(self) -> int:
        # Exact: appends are lock-serialised, so each topology is counted as
        # "introduced" by exactly one record across all writers.
        return sum(record.num_new_topologies for record in self.records_in_order())

    @property
    def writers(self) -> list[str]:
        """Writer ids contributing to this library."""
        return sorted(self._ledgers)

    def completed_chunks(self) -> list[int]:
        """This writer's completed chunk indices."""
        return sorted(self.chunk_records)

    def own_records(self) -> list[ChunkRecord]:
        """This writer's records in chunk order."""
        return [self.chunk_records[index] for index in self.completed_chunks()]

    def records_in_order(self) -> list[ChunkRecord]:
        """The merged chunk history, in global commit order.

        The ledger shards are merged by commit ``seq`` — a deterministic pure
        function of the on-disk state, whatever order the writers ran in.
        """
        merged = [
            record for ledger in self._ledgers.values() for record in ledger.chunks
        ]
        merged.sort(key=lambda r: (r.seq, r.writer or "", r.chunk))
        return merged

    def pattern_histogram(self) -> ComplexityHistogram:
        """Streaming complexity histogram over every stored pattern.

        Folds the per-chunk records' compact complexity codecs — no shard
        is ever loaded, so the cost is proportional to the chunk count.
        """
        histogram = ComplexityHistogram()
        for record in self.records_in_order():
            histogram.merge(
                ComplexityHistogram.from_records(record.pattern_complexity_counts)
            )
        return histogram

    def diversity(self, base: float = 2.0) -> float:
        """Diversity H of the stored library (incremental accounting)."""
        return self.pattern_histogram().diversity(base=base)

    def legality(self) -> float:
        """DRC-clean fraction of the stored patterns."""
        records = self.records_in_order()
        clean = sum(record.num_clean for record in records)
        total = sum(record.num_stored for record in records)
        return clean / total if total else 0.0

    def summary(self) -> dict[str, float]:
        """One-look accounting of the whole library."""
        return {
            "chunks": self.num_chunks,
            "patterns": self.num_patterns,
            "unique_topologies": self.num_unique_topologies,
            "diversity": self.diversity(),
            "legality": self.legality(),
        }

    def index_stats(self) -> dict:
        """On-disk index accounting."""
        return self._index.stats()

    # ------------------------------------------------------------------ #
    # membership probes
    # ------------------------------------------------------------------ #
    def has_pattern(self, digest: str) -> bool:
        """Is this exact ``(topology, delta_x, delta_y)`` hash stored?"""
        return self._index.has_pattern(digest)

    def has_topology(self, digest: str) -> bool:
        return self._index.has_topology(digest)

    # ------------------------------------------------------------------ #
    # run binding / resume
    # ------------------------------------------------------------------ #
    def bind(self, fingerprint: dict, resume: bool = False) -> list[ChunkRecord]:
        """Attach a generation run to this library.

        A fresh writer adopts ``fingerprint``.  An existing one must match
        it exactly — resuming under different seeds or knobs would silently
        mix incompatible streams — and returns this writer's completed chunk
        records (empty unless ``resume`` is set; continuing a populated
        writer without ``resume=True`` is an error rather than an implicit
        append).  On
        resume, every returned record's shard file is validated up front so
        a missing or truncated shard surfaces as a :class:`LibraryError`
        naming the offending chunk instead of a low-level I/O error deep in
        the run (a record beyond the index watermark has already been read
        at open, which raises the same error).

        Raises
        ------
        LibraryError
            On a fingerprint mismatch, a populated writer bound without
            ``resume``, or a bad shard.
        """
        if not self.fingerprint:
            self.fingerprint = dict(fingerprint)
            return []
        if self.fingerprint != dict(fingerprint):
            raise LibraryError(
                "library fingerprint mismatch: the manifest was written by a run "
                f"with {self.fingerprint}, this run has {dict(fingerprint)}; "
                "use a fresh directory (or the original seed/knobs) instead"
            )
        if self.chunk_records and not resume:
            raise LibraryError(
                f"library at {self.root} already holds "
                f"{len(self.chunk_records)} chunk(s); pass resume=True to "
                "continue it"
            )
        records = self.own_records()
        if resume:
            self.validate_records(records)
        return records

    def validate_records(self, records: "list[ChunkRecord]") -> None:
        """Check every record's shard exists and holds its full slice.

        Raises
        ------
        LibraryError
            Naming the offending chunk, for a missing, truncated/corrupt,
            or short shard file.
        """
        for record in records:
            self._record_metadata(record)

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def plan_chunk(self, patterns: list[SquishPattern]) -> list[bool]:
        """Which of ``patterns`` :meth:`append_chunk` would store.

        Pure (no registry mutation); lets the generation graph compute its
        metrics over exactly the patterns that will be stored — including
        intra-chunk duplicates — before committing the chunk.  With
        ``dedup`` off every pattern is stored.
        """
        if not self.dedup:
            return [True] * len(patterns)
        seen: set[str] = set()
        flags = []
        for pattern in patterns:
            digest = pattern_hash(pattern)
            if digest in seen or self.has_pattern(digest):
                flags.append(False)
            else:
                seen.add(digest)
                flags.append(True)
        return flags

    def append_chunk(
        self, record: ChunkRecord, patterns: list[SquishPattern]
    ) -> list[SquishPattern]:
        """Persist one completed chunk; returns the patterns actually stored.

        The shard is written first, the ledger second (each atomically and
        fsynced), so an interrupt between the two leaves a restartable
        library.  ``record``
        is mutated in place with the storage accounting (``num_stored``,
        ``duplicates_skipped``, the introduced counts, the shard name,
        ``seq`` and ``writer``).

        The whole refresh → dedup-probe → shard write → ledger commit
        sequence runs under the library lock, which is what makes
        concurrent appends by many writers equivalent to the serial order
        the ``seq`` numbers record.

        Raises
        ------
        LibraryError
            If ``record.chunk`` is already recorded for this writer.
        """
        with LibraryLock(self.root):
            self._refresh()
            return self._append_locked(record, patterns)

    def _append_locked(
        self, record: ChunkRecord, patterns: list[SquishPattern]
    ) -> list[SquishPattern]:
        """The locked body of an append (state already refreshed)."""
        if record.chunk in self.chunk_records:
            raise LibraryError(
                f"chunk {record.chunk} is already recorded for writer "
                f"{self.writer!r}"
            )
        stored = []
        kept: list[int] = []
        seen_patterns: set[str] = set()
        seen_topologies: set[str] = set()
        for position, pattern in enumerate(patterns):
            digest = pattern_hash(pattern)
            known = digest in seen_patterns or self._index.has_pattern(digest)
            if self.dedup and known:
                continue
            if not known:
                seen_patterns.add(digest)
            topo_digest = topology_hash(pattern.topology)
            if not self._index.has_topology(topo_digest):
                seen_topologies.add(topo_digest)
            stored.append(pattern)
            kept.append(position)
        # Another writer may have stored some of these patterns since the
        # caller's plan_chunk probe: account what is stored, not what was
        # offered.
        stored_meta = _index_columns(stored)
        record.num_stored = len(patterns)
        record.duplicates_skipped = 0
        self._apply_drop(record, kept, stored_meta)
        record.num_new_patterns = len(seen_patterns)
        record.num_new_topologies = len(seen_topologies)
        record.writer = self.writer
        record.seq = self._next_seq()
        record.shard_start = 0
        if stored:
            self.shard_dir.mkdir(parents=True, exist_ok=True)
            path = self.shard_path(record.chunk)
            fault_point("append:shard")
            atomic_write_bytes(path, lambda fh: _savez_patterns(fh, stored, stored_meta))
            record.shard = path.name
        else:
            record.shard = None
        ledger = self._ledgers.get(self.writer)
        if ledger is None:
            ledger = WriterLedger(
                writer=self.writer,
                fingerprint=dict(self.fingerprint),
                dedup=self.dedup,
                chunks=[],
            )
            self._ledgers[self.writer] = ledger
        ledger.chunks.append(record)
        fault_point("append:ledger")
        ledger.write(self.root)  # the commit point: seq becomes durable
        self.chunk_records[record.chunk] = record
        self._index.note_committed(record, seen_patterns, seen_topologies)
        if self._index.should_flush():
            fault_point("append:index-flush")
            self._index.flush(self.records_in_order(), self._record_hashes)
        return stored

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def load_record_patterns(self, record: ChunkRecord) -> list[SquishPattern]:
        """Load one record's shard slice (validated against the manifest)."""
        if record.shard is None or record.num_stored == 0:
            return []
        path = self.shard_dir / record.shard
        with _chunk_errors(record), _open_shard(path) as data:
            total = int(data["count"])
            _check_slice(record, total)
            return _decode_slice(data, total, record.shard_start, record.num_stored)

    def iter_patterns(self):
        """Yield every stored pattern in merged commit order, shard by shard.

        Streams with one shard resident at a time — peak memory is bounded
        by the largest shard, not the library (the
        ``test_library_streaming`` tracemalloc gate).
        """
        current_shard: "str | None" = None
        current_patterns: list[SquishPattern] = []
        for record in self.records_in_order():
            if record.shard is None or record.num_stored == 0:
                continue
            with _chunk_errors(record):
                if record.shard != current_shard:
                    current_patterns = load_shard(self.shard_dir / record.shard)
                    current_shard = record.shard
                _check_slice(record, len(current_patterns))
            lo = record.shard_start
            yield from current_patterns[lo : lo + record.num_stored]

    def load_patterns(self) -> list[SquishPattern]:
        """Every stored pattern, in merged (seq, position) order."""
        return list(self.iter_patterns())

    # ------------------------------------------------------------------ #
    # indexed query
    # ------------------------------------------------------------------ #
    def query(
        self,
        complexity_band: "tuple | None" = None,
        rule_regime: "str | None" = None,
        topology_hash: "str | None" = None,
        writer: "str | None" = None,
    ) -> list[PatternHandle]:
        """Indexed pattern lookup returning lazy :class:`PatternHandle`\\ s.

        Filters compose (AND); none decodes a pattern — selection runs
        entirely over the shards' index columns:

        * ``complexity_band=(lo, hi)`` — inclusive band on the canonical
          total complexity ``cx + cy`` (either bound may be ``None``).
        * ``rule_regime`` — substring match against the owning writer's run
          fingerprint (e.g. a rule-set repr fragment like ``"min_space=2"``),
          selecting the patterns generated under that regime.
        * ``topology_hash`` — exact topology digest; the index answers
          definite misses without touching any shard.
        * ``writer`` — restrict to one writer's chunks.
        """
        if topology_hash is not None and not self._index.has_topology(topology_hash):
            return []
        lo, hi = (None, None) if complexity_band is None else complexity_band
        handles: list[PatternHandle] = []
        for record in self.records_in_order():
            if record.shard is None or record.num_stored == 0:
                continue
            if writer is not None and record.writer != writer:
                continue
            if rule_regime is not None and not self._regime_matches(
                record, rule_regime
            ):
                continue
            meta = self._record_metadata(record)
            topo_hashes = meta["topology_hash"]
            if topology_hash is not None:
                positions = np.flatnonzero(
                    topo_hashes == np.asarray(topology_hash.encode(), dtype="S40")
                )
            else:
                positions = np.arange(record.num_stored)
            if positions.size == 0:
                continue
            cx, cy = meta["cx"], meta["cy"]
            p_hashes = meta["pattern_hash"]
            for position in positions:
                position = int(position)
                total = int(cx[position]) + int(cy[position])
                if lo is not None and total < lo:
                    continue
                if hi is not None and total > hi:
                    continue
                handles.append(
                    PatternHandle(
                        record=record,
                        position=position,
                        pattern_hash=bytes(p_hashes[position]).decode(),
                        topology_hash=bytes(topo_hashes[position]).decode(),
                        cx=int(cx[position]),
                        cy=int(cy[position]),
                        library=self,
                    )
                )
        return handles

    def _regime_matches(self, record: ChunkRecord, rule_regime: str) -> bool:
        ledger = self._ledgers.get(record.writer)
        fingerprint = ledger.fingerprint if ledger is not None else {}
        return rule_regime in json.dumps(fingerprint, sort_keys=True)

    def _load_handle(self, handle: PatternHandle) -> SquishPattern:
        record = handle.record
        with _chunk_errors(record):
            patterns = self._shard_patterns(record.shard)
            _check_slice(record, len(patterns))
            if not 0 <= handle.position < record.num_stored:
                raise LibraryError(f"no pattern at handle position {handle.position}")
        return patterns[record.shard_start + handle.position]

    def _shard_patterns(self, shard_name: str) -> list[SquishPattern]:
        """Whole-shard load through a small LRU (lazy handle backing)."""
        cached = self._shard_cache.get(shard_name)
        if cached is not None:
            self._shard_cache.move_to_end(shard_name)
            return cached
        patterns = load_shard(self.shard_dir / shard_name)
        self._shard_cache[shard_name] = patterns
        while len(self._shard_cache) > _SHARD_CACHE_SIZE:
            self._shard_cache.popitem(last=False)
        return patterns

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def compact(
        self,
        target_shard_patterns: int = 512,
        drop_duplicates: "bool | None" = None,
    ) -> CompactionReport:
        """Merge small shards, drop superseded duplicates, rewrite the index.

        Runs under the library lock.  Records keep their ``seq``; small
        consecutive records are packed into ``merged_*.npz`` shards of up to
        ``target_shard_patterns`` patterns each.  With ``drop_duplicates``
        (default: the library's dedup flag) any pattern whose hash already
        appeared earlier in commit order is removed, and the affected
        records' stored counts and complexity histograms are rebuilt from
        the patterns they keep.

        Crash safety: new shards are committed before any ledger references
        them; the index is invalidated *before* a
        dropping rewrite (a stale index would report dropped hashes as
        present) and fully rebuilt at the end; obsolete shard files are
        deleted only after every ledger has been rewritten.  Every shard
        file no record names is deleted first, so a rerun after a crash
        leaves no orphan behind.
        """
        with LibraryLock(self.root):
            self._refresh()
            drop = self.dedup if drop_duplicates is None else bool(drop_duplicates)
            records = self.records_in_order()
            report = CompactionReport(records=len(records))

            old_shards = {r.shard for r in records if r.shard is not None}
            report.shards_before = len(old_shards)
            shard_refs: dict[str, int] = {}
            for record in records:
                if record.shard is not None:
                    shard_refs[record.shard] = shard_refs.get(record.shard, 0) + 1
            # Under the lock, a shard no record names is a crash's leftover:
            # a merged shard whose compaction died before a ledger named it,
            # an old shard whose compaction died before unlinking it, or an
            # append's shard whose ledger commit never happened.  Removing
            # them leaves only named shards, and a rerun whose crash came
            # before any ledger named a merged shard reuses its numbers.
            for path in self.shard_dir.glob("*.npz"):
                if path.name not in old_shards:
                    path.unlink()
            next_merged = self._next_merged_shard_index()

            keep_shards: set[str] = set()
            pending: list[tuple[ChunkRecord, list[int]]] = []
            pending_size = 0

            def flush_pending() -> None:
                nonlocal pending, pending_size, next_merged
                if not pending:
                    return
                name = f"{MERGED_SHARD_PREFIX}{next_merged:05d}.npz"
                next_merged += 1
                report.merged_shards_written += 1
                merged_patterns: list[SquishPattern] = []
                merged_meta: list[dict[str, np.ndarray]] = []
                # Load everything against the *old* layout first; only then
                # repoint the records at the merged shard.
                slices = []
                for record, kept in pending:
                    patterns = self.load_record_patterns(record)
                    meta = self._record_metadata(record)
                    slices.append((record, kept, patterns, meta))
                offset = 0
                for record, kept, patterns, meta in slices:
                    merged_patterns.extend(patterns[i] for i in kept)
                    kept_meta = {key: value[kept] for key, value in meta.items()}
                    merged_meta.append(kept_meta)
                    self._apply_drop(record, kept, kept_meta)
                    record.shard = name
                    record.shard_start = offset
                    offset += len(kept)
                columns = {
                    key: np.concatenate([m[key] for m in merged_meta])
                    for key in INDEX_COLUMNS
                }
                fault_point("compact:merged-shard")
                atomic_write_bytes(
                    self.shard_dir / name,
                    lambda fh: _savez_patterns(fh, merged_patterns, columns),
                )
                pending = []
                pending_size = 0

            seen: set[str] = set()
            plans: list[tuple[ChunkRecord, list[int]]] = []
            for record in records:
                if record.shard is None or record.num_stored == 0:
                    record.shard = None
                    record.shard_start = 0
                    continue
                if drop:
                    meta = self._record_metadata(record)
                    kept = []
                    for position, digest in enumerate(meta["pattern_hash"]):
                        digest = bytes(digest).decode()
                        if digest in seen:
                            report.patterns_dropped += 1
                        else:
                            seen.add(digest)
                            kept.append(position)
                else:
                    kept = list(range(record.num_stored))
                plans.append((record, kept))

            # Consecutive records sharing one shard form a group.  A group
            # is left in place when re-merging would rewrite it unchanged:
            # it keeps every pattern and covers its shard completely, and
            # either already meets the target or is one merged shard with
            # nothing pending before it and no later record to pack with
            # (what makes a second compact() a no-op instead of a rewrite).
            groups: list[tuple[str, list[tuple[ChunkRecord, list[int]]]]] = []
            for record, kept in plans:
                if groups and groups[-1][0] == record.shard:
                    groups[-1][1].append((record, kept))
                else:
                    groups.append((record.shard, [(record, kept)]))
            intact = [
                all(len(k) == r.num_stored for r, k in members)
                and shard_refs[shard_name] == len(members)
                for shard_name, members in groups
            ]
            full = [
                whole and sum(len(k) for _, k in members) >= target_shard_patterns
                for whole, (_, members) in zip(intact, groups)
            ]
            # No group after the last one with patterns to pack packs any.
            last_packed = max(
                (j for j, (_, members) in enumerate(groups)
                 if not full[j] and any(k for _, k in members)),
                default=-1,
            )
            for j, (shard_name, members) in enumerate(groups):
                alone = (
                    intact[j]
                    and shard_name.startswith(MERGED_SHARD_PREFIX)
                    and not pending
                    and j >= last_packed
                )
                if (full[j] or alone) and self._shard_fully_covered(members):
                    keep_shards.add(shard_name)
                    continue
                for record, kept in members:
                    if not kept:
                        self._apply_drop(record, kept, _index_columns([]))
                        record.shard = None
                        record.shard_start = 0
                        continue
                    pending.append((record, kept))
                    pending_size += len(kept)
                    if pending_size >= target_shard_patterns:
                        flush_pending()
            flush_pending()

            if report.patterns_dropped:
                # Dropped hashes would survive as stale positives in the
                # merged files — invalidate before any ledger references
                # the rewritten slices.
                fault_point("compact:index-invalidate")
                self._index.invalidate()
            for writer_id in sorted(self._ledgers):
                fault_point(f"compact:ledger:{writer_id}")
                self._ledgers[writer_id].write(self.root)
            for shard_name in sorted(old_shards - keep_shards):
                fault_point(f"compact:unlink:{shard_name}")
                (self.shard_dir / shard_name).unlink(missing_ok=True)
            fault_point("compact:index-rebuild")
            self._index.rebuild(self.records_in_order(), self._record_hashes)
            self._refresh()
            report.shards_after = len(
                {r.shard for r in self.records_in_order() if r.shard is not None}
            )
            return report

    def _shard_fully_covered(self, members) -> bool:
        """Do ``members``' slices tile their whole shard contiguously from 0?"""
        offset = 0
        for start, count in sorted((r.shard_start, r.num_stored) for r, _ in members):
            if start != offset:
                return False
            offset += count
        return int(self._shard_columns(members[0][0])["count"]) == offset

    @staticmethod
    def _apply_drop(
        record: ChunkRecord, kept: list[int], kept_meta: dict[str, np.ndarray]
    ) -> None:
        """Account a keep-list into the record's stored stats.

        ``kept`` indexes the record's ``num_stored`` patterns (the offered
        ones at append, where dedup skips some; the stored slice at a
        dropping compaction).  ``kept_meta`` holds the
        :data:`INDEX_COLUMNS` of the kept patterns; their ``cx``/``cy``
        become the record's pattern complexity histogram.  A record that
        keeps every pattern is left as it is.
        """
        dropped = record.num_stored - len(kept)
        if dropped <= 0:
            return
        record.pattern_complexity_counts = ComplexityHistogram(
            list(zip(kept_meta["cx"].tolist(), kept_meta["cy"].tolist()))
        ).as_records()
        if record.pattern_clean:
            record.pattern_clean = [record.pattern_clean[i] for i in kept]
            record.num_clean = sum(1 for c in record.pattern_clean if c)
        else:
            record.num_clean = min(record.num_clean, len(kept))
        if record.pattern_sources:
            record.pattern_sources = [record.pattern_sources[i] for i in kept]
        record.num_stored = len(kept)
        record.duplicates_skipped += dropped

    def _next_merged_shard_index(self) -> int:
        if not self.shard_dir.is_dir():
            return 0
        highest = -1
        for path in self.shard_dir.glob(f"{MERGED_SHARD_PREFIX}*.npz"):
            stem = path.name[len(MERGED_SHARD_PREFIX) : -len(".npz")]
            if stem.isdigit():
                highest = max(highest, int(stem))
        return highest + 1

    def rebuild_index(self) -> dict:
        """Regenerate the on-disk index from the ledgers/shards (locked)."""
        with LibraryLock(self.root):
            self._refresh()
            self._index.rebuild(self.records_in_order(), self._record_hashes)
            self._refresh()
            return self._index.stats()


# --------------------------------------------------------------------------- #
# migration of v1 and version-2 libraries
# --------------------------------------------------------------------------- #
def migrate_library(root: "str | Path") -> int:
    """Rewrite a v1 or version-2 library in the current layout; returns its records.

    Under the library lock, in this order: each per-pattern shard a stale
    ledger or a v1 ``manifest.json`` names is rewritten in place in the
    columnar codec; each stale ledger is rewritten at the current version (a
    v1 manifest's records, sorted by chunk, become writer ``legacy``'s with
    seqs ``0..n-1`` and their inline hash lists' lengths as introduced
    counts); the index sidecars are deleted (no current index file is an
    ``.npz``); a v1 manifest is removed last.  A crash leaves a root that
    refuses to open or is fully migrated, and a rerun finishes the job.
    Returns the number of records in the ledgers this call rewrote (0 if
    none was stale).
    """
    root = Path(root)
    manifest = root / MANIFEST_NAME
    if not manifest.exists() and not scan_ledgers(root):
        return 0
    with LibraryLock(root):
        stale = [
            ledger
            for ledger in map(load_ledger, scan_ledgers(root).values())
            if ledger.version != LEDGER_VERSION
        ]
        if manifest.exists() and not ledger_path(root, "legacy").exists():
            stale.append(_v1_ledger(manifest))
        for name in sorted({r.shard for ledger in stale for r in ledger.chunks if r.shard}):
            path = root / SHARD_DIR / name
            patterns = _load_retired_shard(path)
            if patterns is not None:
                fault_point("migrate:shard")
                columns = _index_columns(patterns)
                atomic_write_bytes(path, lambda fh: _savez_patterns(fh, patterns, columns))
        for ledger in stale:
            fault_point("migrate:ledger")
            ledger.write(root)
        fault_point("migrate:drop-sidecars")
        for sidecar in sorted((root / INDEX_DIR).glob("*.npz")):
            sidecar.unlink()
        fault_point("migrate:drop-manifest")
        manifest.unlink(missing_ok=True)
    return sum(len(ledger.chunks) for ledger in stale)


def _v1_ledger(manifest: Path) -> WriterLedger:
    """Writer ``legacy``'s ledger holding a v1 manifest's records."""
    try:
        payload = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise LibraryError(f"cannot read manifest {manifest}: {error}") from error
    if payload.get("version") != MANIFEST_VERSION:
        raise LibraryError(
            f"manifest {manifest} has unsupported version "
            f"{payload.get('version')!r} (expected {MANIFEST_VERSION})"
        )
    records = []
    entries = sorted(payload.get("chunks", []), key=lambda data: data["chunk"])
    for seq, data in enumerate(entries):
        record = ChunkRecord.from_dict(data)
        record.seq, record.writer = seq, "legacy"
        record.num_new_patterns = len(data.get("new_pattern_hashes", []))
        record.num_new_topologies = len(data.get("new_topology_hashes", []))
        records.append(record)
    return WriterLedger(
        writer="legacy",
        fingerprint=payload.get("fingerprint", {}),
        dedup=bool(payload.get("dedup", False)),
        chunks=records,
    )


def _load_retired_shard(path: Path) -> "list[SquishPattern] | None":
    """A per-pattern shard's patterns (``p<i>_<array>`` members); ``None`` if columnar."""
    with _open_shard(path) as data:
        if "shapes" in data.files:
            return None  # already rewritten by an interrupted migration
        members: dict[str, dict[str, np.ndarray]] = {}
        for key in data.files:
            head, sep, name = key.partition("_")
            if sep:
                members.setdefault(head, {})[name] = data[key]
        return [
            SquishPattern.from_arrays(members.get(f"p{index}", {}), source=f"{path}[{index}]")
            for index in range(int(data["count"]))
        ]


# --------------------------------------------------------------------------- #
# shard codec
# --------------------------------------------------------------------------- #
@contextmanager
def _chunk_errors(record: ChunkRecord):
    """Name ``record``'s chunk in every :class:`LibraryError` raised inside."""
    try:
        yield
    except LibraryError as error:
        raise LibraryError(f"chunk {record.chunk}: {error}") from error


def _check_slice(record: ChunkRecord, total: int) -> None:
    """Raise unless a shard of ``total`` patterns holds ``record``'s slice.

    A per-chunk shard is owned by exactly one record, so it must hold
    exactly the record's ``num_stored`` patterns; a merged shard
    (:data:`MERGED_SHARD_PREFIX`) holds several records' slices and is
    range-checked.  Every read path applies this one rule.
    """
    exclusive = not record.shard.startswith(MERGED_SHARD_PREFIX)
    if record.shard_start + record.num_stored > total or (
        exclusive and total != record.num_stored
    ):
        raise LibraryError(
            f"shard {record.shard} holds {total} pattern(s) but the manifest "
            f"records {record.num_stored} at offset {record.shard_start}"
        )


def _index_columns(patterns) -> dict[str, np.ndarray]:
    """The :data:`INDEX_COLUMNS` of ``patterns``, computed from the patterns."""
    cx, cy = np.asarray([pattern_complexity(p) for p in patterns], np.int64).reshape(-1, 2).T
    return {
        "pattern_hash": np.asarray([pattern_hash(p) for p in patterns], HASH_DTYPE),
        "topology_hash": np.asarray([topology_hash(p.topology) for p in patterns], HASH_DTYPE),
        "cx": cx.copy(),
        "cy": cy.copy(),
    }


def _savez_patterns(file_obj, patterns: list[SquishPattern], columns) -> None:
    """Write ``patterns`` and their index ``columns`` as one columnar shard."""
    np.savez_compressed(
        file_obj,
        count=np.asarray(len(patterns), dtype=np.int64),
        shapes=np.asarray([p.topology.shape for p in patterns], dtype=np.int64).reshape(-1, 2),
        topology=np.packbits(
            np.concatenate([np.zeros(0, np.uint8), *(p.topology.ravel() for p in patterns)])
        ),
        delta_x=np.concatenate([np.zeros(0, np.int64), *(p.delta_x for p in patterns)]),
        delta_y=np.concatenate([np.zeros(0, np.int64), *(p.delta_y for p in patterns)]),
        origin=np.asarray([p.origin for p in patterns], dtype=np.int64).reshape(-1, 2),
        **columns,
    )


@contextmanager
def _open_shard(path):
    """``np.load`` a shard; any fault while reading it raises a :class:`LibraryError`."""
    try:
        with np.load(path) as data:
            if "count" not in data.files:
                raise LibraryError(f"{path} is not a pattern shard (no count array)")
            yield data
    except LibraryError:
        raise
    except FileNotFoundError as error:
        raise LibraryError(f"shard {path} is missing") from error
    except Exception as error:  # torn zip/npy members surface many ways
        raise LibraryError(f"shard {path} is truncated or corrupt ({error})") from error


def save_shard(path: "str | Path", patterns: list[SquishPattern]) -> None:
    """Write many patterns to one columnar ``.npz`` shard (lossless).

    The members are listed in ``docs/library-format.md``: the patterns'
    shapes, packed topology bits, concatenated deltas and origins, plus
    their index columns (both hashes and the complexity).
    """
    with open(path, "wb") as handle:
        _savez_patterns(handle, patterns, _index_columns(patterns))


def load_shard_slice(
    path: "str | Path", start: int, count: "int | None" = None
) -> tuple[list[SquishPattern], int]:
    """Load ``count`` patterns at offset ``start`` of one shard.

    ``count=None`` loads through the shard's last pattern.  Returns
    ``(patterns, total)`` where ``total`` is the shard's full pattern count
    (callers validate it against their manifest record).
    """
    with _open_shard(path) as data:
        total = int(data["count"])
        if count is None:
            count = max(total - start, 0)
        if start + count > total:
            raise LibraryError(
                f"shard {path} holds {total} pattern(s); cannot load "
                f"{count} at offset {start}"
            )
        return _decode_slice(data, total, start, count), total


def _decode_slice(data, total: int, start: int, count: int) -> list[SquishPattern]:
    """Decode patterns ``start .. start + count`` of an open shard of ``total``."""
    shapes, origin, packed = data["shapes"], data["origin"], data["topology"]
    delta_x, delta_y = data["delta_x"], data["delta_y"]
    x0, y0, c0 = (
        [0, *np.cumsum(column).tolist()]
        for column in (shapes[:, 1], shapes[:, 0], shapes.prod(axis=1))
    )
    if (shapes.shape, origin.shape) != ((total, 2), (total, 2)) or (
        delta_x.size, delta_y.size, packed.size
    ) != (x0[-1], y0[-1], (c0[-1] + 7) // 8):
        raise ValueError("column lengths disagree with the pattern shapes")
    bits = np.unpackbits(packed, count=c0[-1])
    shape_rows, origins = shapes.tolist(), origin.tolist()
    return [
        SquishPattern(
            bits[c0[i] : c0[i + 1]].reshape(shape_rows[i]),
            delta_x[x0[i] : x0[i + 1]],
            delta_y[y0[i] : y0[i + 1]],
            tuple(origins[i]),
        )
        for i in range(start, start + count)
    ]


def load_shard(path: "str | Path") -> list[SquishPattern]:
    """Load the patterns of one shard written by :func:`save_shard`."""
    return load_shard_slice(path, 0)[0]
