"""Manifest primitives: chunk records, per-writer ledgers, the library lock.

A library's manifest is split into per-writer **ledger shards** under
``manifests/`` so any number of streamed runs / serve workers can append to
one library concurrently:

* every writer owns exactly one ``manifests/<writer>.json`` and only ever
  rewrites its own file (atomically and durably: fsynced temp file +
  ``os.replace`` + directory fsync);
* a global, gap-free **commit sequence number** (``ChunkRecord.seq``) is
  assigned under the advisory :class:`LibraryLock` at append time, so any
  reader merges the ledgers into one deterministic history by sorting on
  ``seq`` — the merged manifest is a pure function of the on-disk state;
* ledger records do **not** inline per-chunk hash lists; the hashes live in
  the index columns of each chunk's shard (:mod:`repro.library.store`),
  keeping ledger parse time proportional to the chunk count, not the
  pattern count.

The advisory lock is a ``flock``-ed ``library.lock`` file: writers hold it
across the refresh → dedup-probe → shard write → ledger commit critical
section, which is what makes concurrent appends equivalent to *some* serial
append order (the order ``seq`` records).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..faults import fault_point

try:  # POSIX advisory locking; the fallback below covers exotic hosts.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms only
    fcntl = None

__all__ = [
    "ChunkRecord",
    "DEFAULT_WRITER",
    "LEDGER_VERSION",
    "LibraryLock",
    "MANIFEST_DIR",
    "WriterLedger",
    "atomic_write_bytes",
    "atomic_write_text",
    "ledger_path",
    "load_ledger",
    "scan_ledgers",
    "validate_writer_id",
]

MANIFEST_DIR = "manifests"
LOCK_NAME = "library.lock"
#: Version 3 ledgers name columnar shards.  Version 2 ones (per-pattern
#: shards plus index sidecars) still parse, but only for
#: :func:`~repro.library.migrate_library`: the store refuses to open them.
LEDGER_VERSION = 3
#: Writer id of a library opened without one.
DEFAULT_WRITER = "main"

_WRITER_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def validate_writer_id(writer: str) -> str:
    """A writer id doubles as a file-name stem; reject anything unsafe."""
    if not writer or not set(writer) <= _WRITER_CHARS or writer.startswith("."):
        raise ValueError(
            f"writer id {writer!r} must be non-empty, use only [A-Za-z0-9._-] "
            "and not start with a dot (it names the writer's ledger file)"
        )
    return writer


# --------------------------------------------------------------------------- #
# atomic file commits (every durable step passes a fault point)
# --------------------------------------------------------------------------- #
def atomic_write_text(path: Path, text: str) -> None:
    """Commit ``text`` to ``path`` (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, lambda handle: handle.write(text.encode()))


def atomic_write_bytes(path: Path, writer_fn) -> None:
    """Commit binary content produced by ``writer_fn(file_object)`` durably.

    The temp file is fsynced before the atomic rename and the directory
    after it, so a commit survives an OS crash as well as a killed process.
    ``numpy.savez`` appends ``.npz`` to bare paths, so the temp file is
    opened here and handed to the caller as a file object.
    """
    tmp = path.with_name(path.name + ".tmp")
    fault_point(f"{path.name}:tmp-write")
    with open(tmp, "wb") as handle:
        writer_fn(handle)
        handle.flush()
        os.fsync(handle.fileno())
    fault_point(f"{path.name}:replace")
    os.replace(tmp, path)
    if fcntl is not None:  # a directory opens for fsync on POSIX only
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


class LibraryLock:
    """Advisory whole-library lock serialising writer critical sections.

    ``flock`` on ``<root>/library.lock``: reentrant-free, blocking, released
    automatically when the process (or file descriptor) dies — a crashed
    writer can never deadlock the library.  On platforms without ``fcntl``
    an ``O_EXCL`` spin lock with stale-breaking is used instead.
    """

    def __init__(self, root: "str | Path") -> None:
        self.path = Path(root) / LOCK_NAME
        self._fd: "int | None" = None

    def __enter__(self) -> "LibraryLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        else:  # pragma: no cover - non-POSIX platforms only
            import time

            spin = self.path.with_name(self.path.name + ".excl")
            while True:
                try:
                    self._fd = os.open(spin, os.O_CREAT | os.O_EXCL | os.O_RDWR)
                    break
                except FileExistsError:
                    time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
                os.close(self._fd)
            else:  # pragma: no cover - non-POSIX platforms only
                os.close(self._fd)
                os.unlink(self.path.with_name(self.path.name + ".excl"))
            self._fd = None


# --------------------------------------------------------------------------- #
# chunk records
# --------------------------------------------------------------------------- #
@dataclass
class ChunkRecord:
    """Accounting for one completed generation chunk.

    The complexity multisets are stored in the compact
    :meth:`~repro.metrics.ComplexityHistogram.as_records` codec
    (``[cx, cy, count]`` rows).  A record keeps only the *counts* of the
    hashes it introduced plus its global commit ``seq`` and owning
    ``writer``; the hashes themselves live in the index columns of the
    chunk's shard.
    """

    chunk: int                      # chunk index within the owning writer's run
    start: int                      # first raw sample index of the chunk
    num_sampled: int                # raw topologies drawn
    num_kept: int                   # survived the prefilter
    num_rejected: int
    unsolved: int                   # kept topologies with no legal solution
    num_patterns: int               # legal patterns produced (pre-dedup)
    num_stored: int                 # patterns written to the shard
    duplicates_skipped: int
    num_clean: int                  # DRC-clean stored patterns
    shard: "str | None"             # shard file name, None for empty chunks
    topology_complexity_counts: list[list[int]] = field(default_factory=list)
    pattern_complexity_counts: list[list[int]] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    # -- assigned by the append that commits the record --------------------- #
    seq: "int | None" = None        # global commit order across all writers
    writer: "str | None" = None     # owning writer id
    shard_start: int = 0            # offset of this record's patterns in shard
    num_new_patterns: int = 0       # hashes this record registered first
    num_new_topologies: int = 0
    #: Optional per-pattern attribution a serving writer persists so its
    #: window cache survives restarts (absolute source sample index and DRC
    #: verdict per stored pattern, aligned with the shard slice).
    pattern_sources: list[int] = field(default_factory=list)
    pattern_clean: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        """The ledger serialisation (attribution lists only when present)."""
        payload = {key: getattr(self, key) for key in self.__dataclass_fields__}
        for key in ("pattern_sources", "pattern_clean"):
            if not payload[key]:
                del payload[key]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkRecord":
        return cls(**{key: data[key] for key in cls.__dataclass_fields__ if key in data})


# --------------------------------------------------------------------------- #
# writer ledgers
# --------------------------------------------------------------------------- #
@dataclass
class WriterLedger:
    """One writer's slice of the library manifest."""

    writer: str
    fingerprint: dict = field(default_factory=dict)
    dedup: bool = False
    chunks: list[ChunkRecord] = field(default_factory=list)
    #: The schema version the ledger was read at (``write`` commits
    #: :data:`LEDGER_VERSION`).
    version: int = field(default=LEDGER_VERSION, init=False)

    def as_payload(self) -> dict:
        return {
            "version": LEDGER_VERSION,
            "writer": self.writer,
            "fingerprint": self.fingerprint,
            "dedup": self.dedup,
            "chunks": [record.as_dict() for record in self.chunks],
        }

    def write(self, root: "str | Path") -> None:
        """Atomically commit this ledger to its ``manifests/<writer>.json``."""
        path = ledger_path(root, self.writer)
        path.parent.mkdir(parents=True, exist_ok=True)
        # No ``indent``: it forces the pure-Python encoder, and every append
        # rewrites the whole ledger.
        atomic_write_text(path, json.dumps(self.as_payload(), sort_keys=True) + "\n")


def ledger_path(root: "str | Path", writer: str) -> Path:
    return Path(root) / MANIFEST_DIR / f"{writer}.json"


def load_ledger(path: "str | Path") -> WriterLedger:
    """Parse one ledger shard; raises ``LibraryError`` on corruption."""
    from .store import LibraryError  # local import: store imports this module

    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise LibraryError(f"cannot read manifest shard {path}: {error}") from error
    version = payload.get("version")
    if version not in (2, LEDGER_VERSION):
        raise LibraryError(
            f"manifest shard {path} has unsupported version "
            f"{version!r} (expected {LEDGER_VERSION})"
        )
    records = [ChunkRecord.from_dict(data) for data in payload.get("chunks", [])]
    for record in records:
        if record.seq is None:
            raise LibraryError(
                f"manifest shard {path}: chunk {record.chunk} carries no commit "
                "seq — the ledger was not written by an atomic append"
            )
    ledger = WriterLedger(
        writer=str(payload.get("writer", path.stem)),
        fingerprint=payload.get("fingerprint", {}),
        dedup=bool(payload.get("dedup", False)),
        chunks=records,
    )
    ledger.version = version
    return ledger


def scan_ledgers(root: "str | Path") -> dict[str, Path]:
    """Writer id -> ledger path for every manifest shard on disk."""
    directory = Path(root) / MANIFEST_DIR
    if not directory.is_dir():
        return {}
    return {
        path.stem: path
        for path in sorted(directory.glob("*.json"))
        if not path.name.endswith(".tmp")
    }
