"""Persistent pattern library: columnar npz shards, writer ledgers, on-disk index."""

from .index import LibraryIndex
from .manifest import (
    DEFAULT_WRITER,
    MANIFEST_DIR,
    LibraryLock,
    WriterLedger,
)
from .store import (
    ChunkRecord,
    CompactionReport,
    LibraryError,
    PatternHandle,
    PatternLibrary,
    load_shard,
    load_shard_slice,
    migrate_library,
    pattern_hash,
    save_shard,
    topology_hash,
)

__all__ = [
    "PatternLibrary",
    "ChunkRecord",
    "CompactionReport",
    "LibraryError",
    "PatternHandle",
    "LibraryIndex",
    "LibraryLock",
    "WriterLedger",
    "DEFAULT_WRITER",
    "MANIFEST_DIR",
    "save_shard",
    "load_shard",
    "load_shard_slice",
    "migrate_library",
    "pattern_hash",
    "topology_hash",
]
