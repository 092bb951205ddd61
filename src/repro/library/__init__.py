"""Persistent pattern library: npz shards, manifest shards, on-disk index."""

from .index import BloomFilter, LibraryIndex
from .manifest import LEGACY_WRITER, MANIFEST_DIR, LibraryLock, WriterLedger
from .store import (
    ChunkRecord,
    CompactionReport,
    LibraryError,
    PatternHandle,
    PatternLibrary,
    load_shard,
    load_shard_slice,
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
    "BloomFilter",
    "LibraryIndex",
    "LibraryLock",
    "WriterLedger",
    "LEGACY_WRITER",
    "MANIFEST_DIR",
    "save_shard",
    "load_shard",
    "load_shard_slice",
    "pattern_hash",
    "topology_hash",
]
