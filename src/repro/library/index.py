"""On-disk hash index: merged sorted hash files plus an in-memory delta.

Dedup probes must not cost O(library) work per open (parsing every stored
hash into in-memory sets would dominate long before the solver does).  The
index answers them from derived data, rebuildable from the shards at any
time: every shard stores, aligned with its patterns, the pattern hash, the
topology hash and the canonical complexity ``(cx, cy)`` of each pattern
(its *index columns*, which :meth:`~repro.library.PatternLibrary.query`
scans instead of decoding patterns), and the index keeps
``index/pattern_hashes.npy`` and ``index/topology_hashes.npy``: one
lexicographically sorted ``S40`` array each, memory-mapped on open and
probed by binary search.

**Consistency watermark.**  ``index/index_meta.json`` records ``covered_seq``:
the merged files cover exactly the chunk records with
``ChunkRecord.seq <= covered_seq``.  Records beyond the watermark are the
*delta*: their shards' hash columns are loaded into small in-memory sets on
refresh, so a probe checks the delta sets, then binary-searches the sorted
file — exact at every moment.  The index is flushed (delta folded into the
merged files, watermark advanced) only *after* the covered records are
durably committed, so every crash leaves the watermark at or below the
truth: a stale index loses speed, never correctness.  ``rebuild()``
regenerates everything from the shards.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..faults import declare_fault_points, fault_point
from .manifest import atomic_write_bytes, atomic_write_text

__all__ = ["INDEX_DIR", "LibraryIndex"]

INDEX_DIR = "index"
META_NAME = "index_meta.json"
PATTERN_FILE = "pattern_hashes.npy"
TOPOLOGY_FILE = "topology_hashes.npy"

#: Fixed-width dtype of a sha1 hex digest; lexicographic byte order equals
#: hex-value order, so ``np.searchsorted`` is a correct membership probe.
HASH_DTYPE = "S40"

#: Delta chunks tolerated before an append folds them into the merged files.
FLUSH_DELTA_CHUNKS = 8

declare_fault_points("index:arrays", "index:meta")


def _as_hash_array(hashes) -> np.ndarray:
    return np.asarray(list(hashes), dtype=HASH_DTYPE)


def _as_key(digest) -> bytes:
    """Normalise a sha1 digest (str, np.bytes_, bytes) to ``bytes``."""
    return digest.encode() if isinstance(digest, str) else bytes(digest)


def _sorted_contains(arr: np.ndarray, key: bytes) -> bool:
    if arr.size == 0:
        return False
    needle = np.asarray(key, dtype=HASH_DTYPE)
    position = int(np.searchsorted(arr, needle))
    return position < arr.size and arr[position] == needle


# --------------------------------------------------------------------------- #
# the index
# --------------------------------------------------------------------------- #
class LibraryIndex:
    """Merged sorted hash files + in-memory delta for one library.

    The owning :class:`~repro.library.PatternLibrary` drives the lifecycle:
    :meth:`refresh_delta` after every ledger re-read, :meth:`note_committed`
    after every local append, :meth:`flush`/:meth:`rebuild` under the
    library lock.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.dir = self.root / INDEX_DIR
        self.covered_seq = -1
        self.generation = 0      # bumped on every on-disk rewrite
        self._patterns: "np.ndarray | None" = None     # sorted S40, mmap
        self._topologies: "np.ndarray | None" = None
        #: seq -> (pattern hash set, topology hash set) beyond the watermark.
        self._delta: "dict[int, tuple[set, set]]" = {}
        self._load_meta()

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def _load_meta(self) -> None:
        meta_path = self.dir / META_NAME
        if not meta_path.exists():
            self.covered_seq = -1
            self.generation = 0
            return
        try:
            meta = json.loads(meta_path.read_text())
            self.covered_seq = int(meta.get("covered_seq", -1))
            self.generation = int(meta.get("generation", 0))
        except (OSError, json.JSONDecodeError, ValueError):
            # A torn meta file invalidates the index; probes fall back to
            # the (complete) delta path until the next flush/rebuild.
            self.covered_seq = -1

    def reload_meta(self) -> None:
        """Re-read the watermark; drop caches if another process rewrote it.

        Renames swap the files under our memory maps without changing their
        contents, so any generation bump means the cached arrays no longer
        describe the on-disk index.
        """
        previous = self.generation
        self._load_meta()
        if self.generation != previous:
            self._patterns = self._topologies = None

    def _merged_patterns(self) -> np.ndarray:
        if self._patterns is None:
            self._patterns = self._load_array(PATTERN_FILE)
        return self._patterns

    def _merged_topologies(self) -> np.ndarray:
        if self._topologies is None:
            self._topologies = self._load_array(TOPOLOGY_FILE)
        return self._topologies

    def _load_array(self, name: str) -> np.ndarray:
        path = self.dir / name
        if self.covered_seq < 0 or not path.exists():
            return np.empty(0, dtype=HASH_DTYPE)
        try:
            return np.load(path, mmap_mode="r")
        except Exception:
            return np.empty(0, dtype=HASH_DTYPE)

    # ------------------------------------------------------------------ #
    # delta maintenance
    # ------------------------------------------------------------------ #
    def refresh_delta(self, records, hash_loader) -> None:
        """Synchronise the in-memory delta with the merged record list.

        ``records`` is the full merged history (each carrying ``seq``);
        ``hash_loader(record)`` returns ``(pattern_hashes, topology_hashes)``
        for one record, read from its shard's index columns.  Records
        at or below the watermark are dropped from the delta; records beyond
        it are loaded once and kept.
        """
        wanted = {}
        for record in records:
            if record.seq is None or record.seq <= self.covered_seq:
                continue
            if record.seq in self._delta:
                wanted[record.seq] = self._delta[record.seq]
            else:
                pattern_hashes, topology_hashes = hash_loader(record)
                wanted[record.seq] = (
                    {_as_key(h) for h in pattern_hashes},
                    {_as_key(h) for h in topology_hashes},
                )
        self._delta = wanted

    def note_committed(self, record, pattern_hashes, topology_hashes) -> None:
        """Fold one just-committed local record into the delta."""
        self._delta[record.seq] = (
            {_as_key(h) for h in pattern_hashes},
            {_as_key(h) for h in topology_hashes},
        )

    @property
    def delta_chunks(self) -> int:
        return len(self._delta)

    # ------------------------------------------------------------------ #
    # probes
    # ------------------------------------------------------------------ #
    def has_pattern(self, digest: "str | bytes") -> bool:
        key = _as_key(digest)
        for patterns, _ in self._delta.values():
            if key in patterns:
                return True
        return _sorted_contains(self._merged_patterns(), key)

    def has_topology(self, digest: "str | bytes") -> bool:
        key = _as_key(digest)
        for _, topologies in self._delta.values():
            if key in topologies:
                return True
        return _sorted_contains(self._merged_topologies(), key)

    # ------------------------------------------------------------------ #
    # flush / rebuild
    # ------------------------------------------------------------------ #
    def should_flush(self) -> bool:
        return self.delta_chunks >= FLUSH_DELTA_CHUNKS

    def flush(self, records, hash_loader) -> None:
        """Fold every committed record into the merged files (watermark = max).

        Caller must hold the library lock and must only pass records that
        are durably committed — the write order (arrays, meta last)
        guarantees a crash leaves ``covered_seq`` at or below the truth.
        """
        self.refresh_delta(records, hash_loader)
        if not self._delta and self.covered_seq >= 0:
            return
        delta_patterns = [h for p, _ in self._delta.values() for h in p]
        delta_topologies = [h for _, t in self._delta.values() for h in t]
        merged_patterns = self._merge(self._merged_patterns(), delta_patterns)
        merged_topologies = self._merge(self._merged_topologies(), delta_topologies)
        covered = max(
            [record.seq for record in records if record.seq is not None],
            default=self.covered_seq,
        )
        self._write(merged_patterns, merged_topologies, covered)

    def rebuild(self, records, hash_loader) -> None:
        """Regenerate the whole index from scratch (compaction / repair)."""
        patterns: "set[bytes]" = set()
        topologies: "set[bytes]" = set()
        covered = -1
        for record in records:
            pattern_hashes, topology_hashes = hash_loader(record)
            patterns.update(_as_key(h) for h in pattern_hashes)
            topologies.update(_as_key(h) for h in topology_hashes)
            if record.seq is not None:
                covered = max(covered, record.seq)
        self._write(
            np.sort(_as_hash_array(patterns)),
            np.sort(_as_hash_array(topologies)),
            covered,
        )

    def invalidate(self) -> None:
        """Mark the merged files stale (dedup-dropping compaction in flight).

        Probes fall back to the all-delta path until the next rebuild; the
        meta commit happens first so a crash mid-compaction can never leave
        a watermark that overstates the index.
        """
        self.covered_seq = -1
        self.generation += 1
        self._patterns = self._topologies = None
        meta = {"version": 2, "covered_seq": -1, "generation": self.generation}
        self.dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.dir / META_NAME, json.dumps(meta, sort_keys=True) + "\n")

    @staticmethod
    def _merge(base: np.ndarray, extra: "list[bytes]") -> np.ndarray:
        """``np.unique(np.concatenate([base, extra]))`` for a sorted, unique ``base``.

        Every merged file is written sorted and unique, so the deduplicated
        delta is folded in with one binary search and one insert, dropping
        the hashes the file already holds.
        """
        base = np.asarray(base, dtype=HASH_DTYPE)
        extra_arr = np.unique(_as_hash_array(extra))
        positions = np.searchsorted(base, extra_arr)
        held = np.zeros(extra_arr.size, dtype=bool)
        inside = positions < base.size
        held[inside] = base[positions[inside]] == extra_arr[inside]
        return np.insert(base, positions[~held], extra_arr[~held])

    def _write(
        self, patterns: np.ndarray, topologies: np.ndarray, covered: int
    ) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        fault_point("index:arrays")
        atomic_write_bytes(self.dir / PATTERN_FILE, lambda fh: np.save(fh, patterns))
        atomic_write_bytes(self.dir / TOPOLOGY_FILE, lambda fh: np.save(fh, topologies))
        # Older releases also kept a Bloom filter over the pattern hashes
        # here, and a process still running one reads it whenever
        # covered_seq >= 0.  Unlink it before the new watermark commits:
        # that filter misses every hash this write adds.
        (self.dir / "bloom.npz").unlink(missing_ok=True)
        meta = {
            "version": 2,
            "covered_seq": int(covered),
            "generation": self.generation + 1,
            "pattern_count": int(patterns.size),
            "topology_count": int(topologies.size),
        }
        fault_point("index:meta")
        atomic_write_text(self.dir / META_NAME, json.dumps(meta, sort_keys=True) + "\n")
        # Reload lazily from the fresh files; the delta is now covered.
        self.generation += 1
        self.covered_seq = int(covered)
        self._patterns = self._topologies = None
        self._delta = {
            seq: sets for seq, sets in self._delta.items() if seq > self.covered_seq
        }

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Probe-side accounting for ``inspect-library`` and the benchmarks."""
        return {
            "covered_seq": self.covered_seq,
            "delta_chunks": self.delta_chunks,
            "merged_patterns": int(self._merged_patterns().size),
            "merged_topologies": int(self._merged_topologies().size),
        }
