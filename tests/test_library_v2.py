"""Tests for the sharded pattern library: ledgers, index, query, compaction, migration."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.faults import Fault, InjectedCrash, inject_faults
from repro.library import (
    DEFAULT_WRITER,
    MANIFEST_DIR,
    ChunkRecord,
    LibraryError,
    LibraryLock,
    PatternLibrary,
    migrate_library,
    pattern_hash,
    save_shard,
    topology_hash,
)
from repro.library.index import HASH_DTYPE, LibraryIndex
from repro.library.manifest import (
    LEDGER_VERSION,
    ledger_path,
    load_ledger,
    scan_ledgers,
    validate_writer_id,
)
from repro.metrics import ComplexityHistogram, pattern_complexity, pattern_diversity
from repro.squish import SquishPattern


def make_pattern(fill: int, size: int = 4, step: int = 32) -> SquishPattern:
    topo = np.zeros((size, size), dtype=np.uint8)
    topo[1 : 1 + (fill % (size - 1)) + 0, 1:3] = 1
    topo[0, fill % size] = 1
    delta = np.full(size, step, dtype=np.int64)
    return SquishPattern(topo, delta, delta + fill)


def make_record(chunk: int, patterns: list[SquishPattern], **overrides) -> ChunkRecord:
    defaults = dict(
        chunk=chunk,
        start=chunk * 4,
        num_sampled=4,
        num_kept=len(patterns),
        num_rejected=4 - min(4, len(patterns)),
        unsolved=0,
        num_patterns=len(patterns),
        num_stored=0,
        duplicates_skipped=0,
        num_clean=len(patterns),
        shard=None,
        pattern_complexity_counts=[[2, 2, len(patterns)]] if patterns else [],
    )
    defaults.update(overrides)
    return ChunkRecord(**defaults)


#: The members of every columnar shard.
SHARD_MEMBERS = (
    "count", "shapes", "topology", "delta_x", "delta_y", "origin",
    "pattern_hash", "topology_hash", "cx", "cy",
)


def fill_writer(root, writer: str, fills, dedup: bool = False, chunk_size: int = 2):
    """Append ``fills`` as patterns through one writer, chunk_size at a time."""
    library = PatternLibrary(root, dedup=dedup, writer=writer)
    patterns = [make_pattern(f) for f in fills]
    for chunk, start in enumerate(range(0, len(patterns), chunk_size)):
        batch = patterns[start : start + chunk_size]
        library.append_chunk(make_record(chunk, batch), batch)
    return library


def write_bloom_era_index(root):
    """Add what releases with a Bloom filter kept in a flushed index.

    Those releases wrote ``index/bloom.npz`` next to the sorted hash files
    and its size into ``index_meta.json``.  The filter written here has no
    bit set, so a reader that still consulted it would call every covered
    pattern absent.  Returns the filter's path.
    """
    path = root / "index" / "bloom.npz"
    np.savez_compressed(
        path,
        bits=np.zeros(77, dtype=np.uint8),
        num_hashes=np.asarray(7, dtype=np.int64),
        capacity=np.asarray(64, dtype=np.int64),
    )
    meta_path = root / "index" / "index_meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(bloom_bits=616, bloom_hashes=7)
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    return path


class TestWriterLedgers:
    def test_writer_opens_v2_layout(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [1, 2, 3])
        assert (tmp_path / MANIFEST_DIR / "alpha.json").exists()
        assert not (tmp_path / "manifest.json").exists()
        assert library.writers == ["alpha"]

    def test_ledger_records_carry_seq_and_writer(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2, 3, 4])
        ledger = load_ledger(ledger_path(tmp_path, "alpha"))
        assert [record.seq for record in ledger.chunks] == [0, 1]
        assert all(record.writer == "alpha" for record in ledger.chunks)

    def test_v2_records_store_counts_not_hash_lists(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2])
        payload = json.loads((tmp_path / MANIFEST_DIR / "alpha.json").read_text())
        (record,) = payload["chunks"]
        assert "new_pattern_hashes" not in record
        assert "new_topology_hashes" not in record
        assert record["num_new_patterns"] == 2

    def test_scan_skips_temp_files(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2])
        (tmp_path / MANIFEST_DIR / "beta.json.tmp").write_text("{not json")
        assert sorted(scan_ledgers(tmp_path)) == ["alpha"]

    def test_writer_id_validation(self, tmp_path):
        for bad in ("", "a/b", "..", ".hidden", "a b"):
            with pytest.raises(ValueError):
                validate_writer_id(bad)
        validate_writer_id("serve-0a1b2c3d4e5f")

    def test_duplicate_chunk_for_same_writer_rejected(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [1, 2])
        patterns = [make_pattern(9)]
        with pytest.raises(LibraryError, match="already recorded"):
            library.append_chunk(make_record(0, patterns), patterns)

    def test_indented_ledger_opens_and_resumes(self, tmp_path):
        """Ledgers used to be written with ``indent=1``; whitespace is not
        part of the format, so such a ledger resumes like a compact one."""
        fingerprint = {"seed": 3}
        for root in (tmp_path / "compact", tmp_path / "indented"):
            library = PatternLibrary(root, writer="alpha")
            library.bind(fingerprint)
            for chunk, fills in enumerate([[1, 2], [3]]):
                patterns = [make_pattern(f) for f in fills]
                library.append_chunk(make_record(chunk, patterns), patterns)
        path = ledger_path(tmp_path / "indented", "alpha")
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        assert "\n " in path.read_text()

        views = []
        for root in (tmp_path / "compact", tmp_path / "indented"):
            library = PatternLibrary(root, writer="alpha")
            assert [r.chunk for r in library.bind(fingerprint, resume=True)] == [0, 1]
            patterns = [make_pattern(f) for f in (4, 5)]
            library.append_chunk(make_record(2, patterns), patterns)
            views.append(
                (library_view(PatternLibrary(root)), ledger_path(root, "alpha").read_text())
            )
        assert views[0] == views[1]
        assert "\n " not in views[1][1]  # the resumed append rewrote it compactly

    def test_lock_is_exclusive(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        import os

        with LibraryLock(tmp_path) as lock:
            fd = os.open(lock.path, os.O_RDWR)
            try:
                with pytest.raises(OSError):
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        fd = os.open(tmp_path / "library.lock", os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # released on exit
        os.close(fd)


class TestMultiWriter:
    def test_merged_view_is_union_of_ledgers(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2, 3])
        fill_writer(tmp_path, "beta", [4, 5])
        merged = PatternLibrary(tmp_path)
        assert merged.writers == ["alpha", "beta"]
        assert merged.num_patterns == 5
        hashes = {pattern_hash(p) for p in merged.load_patterns()}
        expected = {pattern_hash(make_pattern(f)) for f in [1, 2, 3, 4, 5]}
        assert hashes == expected

    def test_seq_is_gap_free_across_writers(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2, 3, 4])
        fill_writer(tmp_path, "beta", [5, 6])
        merged = PatternLibrary(tmp_path)
        assert [r.seq for r in merged.records_in_order()] == [0, 1, 2]

    def test_dedup_crosses_writer_boundaries(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2], dedup=True)
        second = fill_writer(tmp_path, "beta", [2, 3], dedup=True)
        assert second.num_patterns == 3  # pattern 2 deduplicated across writers
        records = second.own_records()
        assert sum(r.duplicates_skipped for r in records) == 1

    def test_interleaved_appends_match_serial_pattern_set(self, tmp_path):
        serial_root = tmp_path / "serial"
        alpha = PatternLibrary(tmp_path / "inter", dedup=True, writer="alpha")
        beta = PatternLibrary(tmp_path / "inter", dedup=True, writer="beta")
        serial = PatternLibrary(serial_root, dedup=True, writer="solo")
        fills = [[1, 2], [2, 3], [3, 4], [1, 5]]
        for chunk, fill in enumerate(fills):
            patterns = [make_pattern(f) for f in fill]
            owner = alpha if chunk % 2 == 0 else beta
            owner.append_chunk(make_record(chunk // 2, patterns), patterns)
            serial.append_chunk(make_record(chunk, patterns), patterns)
        merged = PatternLibrary(tmp_path / "inter")
        assert merged.num_patterns == serial.num_patterns
        assert [pattern_hash(p) for p in merged.load_patterns()] == [
            pattern_hash(p) for p in serial.load_patterns()
        ]
        assert sum(r.duplicates_skipped for r in merged.records_in_order()) == sum(
            r.duplicates_skipped for r in serial.records_in_order()
        )

    def test_writerless_open_appends_as_default_writer(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1])
        merged = PatternLibrary(tmp_path)
        assert merged.writer == DEFAULT_WRITER
        patterns = [make_pattern(7)]
        merged.append_chunk(make_record(9, patterns), patterns)
        assert (tmp_path / MANIFEST_DIR / f"{DEFAULT_WRITER}.json").exists()
        assert not (tmp_path / "manifest.json").exists()
        reread = PatternLibrary(tmp_path)
        assert reread.writers == ["alpha", DEFAULT_WRITER]
        assert [(r.writer, r.seq) for r in reread.records_in_order()] == [
            ("alpha", 0),
            (DEFAULT_WRITER, 1),
        ]

    def test_histogram_and_summary_cover_all_writers(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2])
        fill_writer(tmp_path, "beta", [3])
        merged = PatternLibrary(tmp_path)
        assert merged.pattern_histogram().total == 3
        assert merged.summary()["chunks"] == 2


def counted_record(chunk: int, patterns: list[SquishPattern], **overrides) -> ChunkRecord:
    """``make_record`` with the patterns' true complexity histogram."""
    counts = ComplexityHistogram([pattern_complexity(p) for p in patterns]).as_records()
    return make_record(chunk, patterns, pattern_complexity_counts=counts, **overrides)


class TestDedupAccounting:
    """An append accounts the patterns it stores, not the ones it was offered."""

    @pytest.mark.parametrize("attributed", [False, True], ids=["counts", "pattern_clean"])
    def test_pattern_stored_after_the_plan_is_not_counted(self, tmp_path, attributed):
        beta = PatternLibrary(tmp_path, dedup=True, writer="beta")
        patterns = [make_pattern(f) for f in (1, 2, 3)]
        # beta probes before alpha stores pattern 1: the generation graph
        # runs plan_chunk outside the library lock.
        assert beta.plan_chunk(patterns) == [True, True, True]
        alpha = PatternLibrary(tmp_path, dedup=True, writer="alpha")
        first = [make_pattern(1)]
        alpha.append_chunk(counted_record(0, first), first)

        extra = {"pattern_clean": [1, 1, 0], "pattern_sources": [4, 5, 6]} if attributed else {}
        record = counted_record(0, patterns, num_clean=2 if attributed else 3, **extra)
        stored = beta.append_chunk(record, patterns)

        assert [pattern_hash(p) for p in stored] == [
            pattern_hash(p) for p in patterns[1:]
        ]
        assert (record.num_stored, record.duplicates_skipped) == (2, 1)
        if attributed:
            assert record.pattern_clean == [1, 0]
            assert record.pattern_sources == [5, 6]
            assert record.num_clean == 1
        merged = PatternLibrary(tmp_path)
        assert merged.num_patterns == 3
        assert merged.legality() <= 1.0
        assert merged.pattern_histogram().total == merged.num_patterns
        assert merged.diversity() == pattern_diversity(merged.load_patterns())

    def test_append_without_skips_keeps_the_offered_entry(self, tmp_path):
        patterns = [make_pattern(f) for f in (1, 2)]
        # Deliberately not the patterns' true histogram: nothing is recomputed.
        record = make_record(
            0, patterns, num_clean=1, pattern_clean=[1, 0], pattern_sources=[7, 9]
        )
        offered = record.as_dict()
        PatternLibrary(tmp_path, dedup=True, writer="alpha").append_chunk(record, patterns)
        (entry,) = json.loads(ledger_path(tmp_path, "alpha").read_text())["chunks"]
        for key in (
            "num_clean", "pattern_complexity_counts", "pattern_clean",
            "pattern_sources", "duplicates_skipped",
        ):
            assert entry[key] == offered[key], key


def write_v1(write_v1_library, root, fills, dedup=False, fingerprint=None, chunk_size=2):
    """A legacy v1 library holding ``fills``, ``chunk_size`` patterns per chunk."""
    patterns = [make_pattern(f) for f in fills]
    chunks = []
    for chunk, start in enumerate(range(0, len(patterns), chunk_size)):
        batch = patterns[start : start + chunk_size]
        chunks.append((make_record(chunk, batch), batch))
    return write_v1_library(root, chunks, dedup=dedup, fingerprint=fingerprint)


def tree_bytes(root) -> dict:
    """Every file under ``root`` with its bytes (what a refusal must not touch)."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestV1Compat:
    """A v1 library is refused at open, migrated, then read and continued."""

    def test_v1_library_readable_as_merged_view(self, tmp_path, write_v1_library):
        write_v1(write_v1_library, tmp_path, range(4), dedup=True)
        assert migrate_library(tmp_path) == 2
        reread = PatternLibrary(tmp_path)
        assert reread.num_patterns == 4
        assert reread.load_patterns()  # loads through the v1 shard names
        assert reread.writers == ["legacy"]
        assert reread.dedup

    def test_v1_library_joined_by_new_writer(self, tmp_path, write_v1_library):
        write_v1(write_v1_library, tmp_path, range(2), dedup=True)
        migrate_library(tmp_path)
        joined = fill_writer(tmp_path, "late", [1, 7], dedup=True)
        # pattern 1 already exists in the migrated ledger -> deduplicated
        assert joined.num_patterns == 3
        merged = PatternLibrary(tmp_path)
        assert {r.writer for r in merged.records_in_order()} == {"legacy", "late"}

    def test_legacy_records_keep_seq_order_before_new_writers(
        self, tmp_path, write_v1_library
    ):
        write_v1(write_v1_library, tmp_path, range(2), chunk_size=1)
        migrate_library(tmp_path)
        fill_writer(tmp_path, "late", [7])
        merged = PatternLibrary(tmp_path)
        order = [(r.writer, r.seq) for r in merged.records_in_order()]
        assert order == [("legacy", 0), ("legacy", 1), ("late", 2)]

    def test_resuming_the_v1_run_as_a_new_writer_raises(self, tmp_path, write_v1_library):
        write_v1(write_v1_library, tmp_path, range(6), fingerprint={"seed": 7})
        for writer in (None, "legacy", "other"):
            with pytest.raises(LibraryError, match="compact-library") as error:
                PatternLibrary(tmp_path, writer=writer)
            assert "--writer legacy" in str(error.value)

    def test_legacy_writer_cannot_continue_before_compaction(
        self, tmp_path, write_v1_library
    ):
        root = write_v1(write_v1_library, tmp_path, range(6), fingerprint={"seed": 7})
        before = tree_bytes(root)
        with pytest.raises(LibraryError, match="compact-library"):
            PatternLibrary(root, writer="legacy")
        assert tree_bytes(root) == before  # no ledger, index or lock appears

    def test_compacted_history_continues_as_legacy_writer(
        self, tmp_path, write_v1_library
    ):
        write_v1(write_v1_library, tmp_path, range(6), fingerprint={"seed": 7})
        migrate_library(tmp_path)
        PatternLibrary(tmp_path).compact(target_shard_patterns=2)
        legacy = PatternLibrary(tmp_path, writer="legacy")
        records = legacy.bind({"seed": 7}, resume=True)
        assert [r.chunk for r in records] == [0, 1, 2]
        patterns = [make_pattern(f) for f in (4, 8)]
        legacy.append_chunk(make_record(3, patterns), patterns)
        reread = PatternLibrary(tmp_path)
        assert reread.writers == ["legacy"]
        assert [r.seq for r in reread.records_in_order()] == [0, 1, 2, 3]
        stored = {topology_hash(p.topology) for p in reread.load_patterns()}
        assert reread.summary()["unique_topologies"] == len(stored)


def patterns_digest(patterns) -> str:
    """SHA-256 over every pattern's codec arrays, in order."""
    digest = hashlib.sha256()
    for pattern in patterns:
        for _, value in sorted(pattern.as_arrays().items()):
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def handles_digest(handles) -> str:
    """SHA-256 over ``(seq, position, pattern_hash, topology_hash, cx, cy)`` rows."""
    rows = [
        [h.record.seq, h.position, h.pattern_hash, h.topology_hash, h.cx, h.cy]
        for h in handles
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def library_view(library) -> dict:
    return {
        "summary": library.summary(),
        "patterns": patterns_digest(library.load_patterns()),
        "order": [(r.writer, r.seq, r.chunk) for r in library.records_in_order()],
    }


#: Every v1 fixture the library suites build (``crash`` is the one of
#: ``tests/test_library_faults.py``): ``write_v1`` arguments, then the
#: ``(writer, fills, dedup)`` writers that join it.
V1_FIXTURES = {
    "dedup": dict(fills=range(4), dedup=True),
    "joined": dict(fills=range(2), dedup=True, joins=[("late", [1, 7], True)]),
    "joined-per-pattern": dict(
        fills=range(2), chunk_size=1, joins=[("late", [7], False)]
    ),
    "seeded": dict(fills=range(6), fingerprint={"seed": 7}),
    "single-chunk": dict(fills=range(3), chunk_size=3),
    "one-pattern": dict(fills=[0]),
    "crash": dict(fills=[1, 2, 3, 4], dedup=True),
}

#: Pinned from the store as it was when it still read v1 libraries in place:
#: each fixture read unmigrated (joined writers appended next to its
#: manifest), then after ``compact()`` migrated it and writer ``legacy``
#: appended ``(8, 9)`` as its next chunk (``bound``: the chunks
#: ``bind(resume=True)`` returned).  That store read the "joined" legality
#: as 4/3 (6/5 resumed): ``make_record`` reports every offered pattern as
#: clean, and writer ``late``'s append kept the offered count although
#: dedup skipped pattern 1, which the migrated chunk already stores.  An
#: append now accounts only the patterns it stores, so it reads 1.0.
V1_PARITY = {
    "dedup": {
        "summary": dict(
            chunks=2, patterns=4, unique_topologies=4, diversity=-0.0, legality=1.0,
        ),
        "patterns": "286fca3b3220151a8bec464bb0c96626c97a049583b309049f8bc1610d111385",
        "handles": "2407f09a5207d4e0b9c295bf331ae900cd911d0b3194a38457e7333c2db74b49",
        "order": [("legacy", 0, 0), ("legacy", 1, 1)],
        "resumed": {
            "bound": [],
            "summary": dict(
                chunks=3, patterns=6, unique_topologies=6, diversity=-0.0, legality=1.0,
            ),
            "patterns": "f05e18b52b498ed58c372608e34ec77fffe575b6cf0a0b63e698cc6bc309fbfa",
            "order": [("legacy", 0, 0), ("legacy", 1, 1), ("legacy", 2, 2)],
        },
    },
    "joined": {
        "summary": dict(
            chunks=2, patterns=3, unique_topologies=3, diversity=-0.0, legality=1.0,
        ),
        "patterns": "c59fe61f4ffa59221124f2b800aadfc91f6455cd71d4bb4c76ae0e4747b26650",
        "handles": "44691556509869ab5a7ef9bd905048b210afe9abfcd66f2242d0b42aa9df8736",
        "order": [("legacy", 0, 0), ("late", 1, 0)],
        "resumed": {
            "bound": [],
            "summary": dict(
                chunks=3, patterns=5, unique_topologies=5, diversity=-0.0, legality=1.0,
            ),
            "patterns": "7e9ddb62907c742aa4413ddd4471740e986bd85d4d5a9a770bd4fc0b5c4878d3",
            "order": [("legacy", 0, 0), ("late", 1, 0), ("legacy", 2, 1)],
        },
    },
    "joined-per-pattern": {
        "summary": dict(
            chunks=3, patterns=3, unique_topologies=3, diversity=-0.0, legality=1.0,
        ),
        "patterns": "c59fe61f4ffa59221124f2b800aadfc91f6455cd71d4bb4c76ae0e4747b26650",
        "handles": "565586f5b58c017aa2254d0c36328132c2f382ad6db391ad56f91607b74ff4ce",
        "order": [("legacy", 0, 0), ("legacy", 1, 1), ("late", 2, 0)],
        "resumed": {
            "bound": [],
            "summary": dict(
                chunks=4, patterns=5, unique_topologies=5, diversity=-0.0, legality=1.0,
            ),
            "patterns": "7e9ddb62907c742aa4413ddd4471740e986bd85d4d5a9a770bd4fc0b5c4878d3",
            "order": [("legacy", 0, 0), ("legacy", 1, 1), ("late", 2, 0), ("legacy", 3, 2)],
        },
    },
    "seeded": {
        "summary": dict(
            chunks=3, patterns=6, unique_topologies=6, diversity=-0.0, legality=1.0,
        ),
        "patterns": "cd67df9142f1c0e896b4f670b07a694cf87f6c54fd992bd074d0f5748cc21e9c",
        "handles": "c2df40777f26bb0cf7fbd485436cb9199986726f8b4ac9ab66d33e73cad8549d",
        "order": [("legacy", 0, 0), ("legacy", 1, 1), ("legacy", 2, 2)],
        "resumed": {
            "bound": [0, 1, 2],
            "summary": dict(
                chunks=4, patterns=8, unique_topologies=8, diversity=-0.0, legality=1.0,
            ),
            "patterns": "a563b0003b55df07d8bfba687ab440b314a27ee9e70713ed18943e1b793bbd80",
            "order": [("legacy", 0, 0), ("legacy", 1, 1), ("legacy", 2, 2), ("legacy", 3, 3)],
        },
    },
    "single-chunk": {
        "summary": dict(
            chunks=1, patterns=3, unique_topologies=3, diversity=-0.0, legality=1.0,
        ),
        "patterns": "6b0517917e5fa78649e8b4505b8b1cfd73684e1dbc79639b38337c807af147e2",
        "handles": "fbb5062c0696dccb269ddd9e47897e9ca2ac01e76caeb55dd3e893e1464a2e09",
        "order": [("legacy", 0, 0)],
        "resumed": {
            "bound": [],
            "summary": dict(
                chunks=2, patterns=5, unique_topologies=5, diversity=-0.0, legality=1.0,
            ),
            "patterns": "c4a566ae237d1d05f6ed2295c349fffe0585029036d0d91c6d4db116d25407f5",
            "order": [("legacy", 0, 0), ("legacy", 1, 1)],
        },
    },
    "one-pattern": {
        "summary": dict(
            chunks=1, patterns=1, unique_topologies=1, diversity=-0.0, legality=1.0,
        ),
        "patterns": "052c1d002f4e5851030bde474954da7ceea6dc502c7f631b4462cf9b2551902e",
        "handles": "79835085aeaa6ce10c7c9c8f4ba72145491405410b978d5b76337ac59aacd500",
        "order": [("legacy", 0, 0)],
        "resumed": {
            "bound": [],
            "summary": dict(
                chunks=2, patterns=3, unique_topologies=3, diversity=-0.0, legality=1.0,
            ),
            "patterns": "c34f3a40a64c48568a5e036499589acab56ae1157db27fdd1e4310ec8e4ebf56",
            "order": [("legacy", 0, 0), ("legacy", 1, 1)],
        },
    },
    "crash": {
        "summary": dict(
            chunks=2, patterns=4, unique_topologies=4, diversity=-0.0, legality=1.0,
        ),
        "patterns": "a41ede7917f3f3f41d2af1a1dadb90176038bf3be71492ff0b3fa932df1dc4ba",
        "handles": "9b470da0bfc0121e899016902234de6e364af24a5d10567abc87c771e216a15a",
        "order": [("legacy", 0, 0), ("legacy", 1, 1)],
        "resumed": {
            "bound": [],
            "summary": dict(
                chunks=3, patterns=6, unique_topologies=6, diversity=-0.0, legality=1.0,
            ),
            "patterns": "991828330aa96fe9f95dfa2ea6b727fc84ec881fc0a203e6c1a7bc9890a17f75",
            "order": [("legacy", 0, 0), ("legacy", 1, 1), ("legacy", 2, 2)],
        },
    },
}


class TestV1MigrationParity:
    """A migrated v1 library reads exactly as the in-place v1 reader did."""

    @pytest.mark.parametrize("name", sorted(V1_FIXTURES))
    def test_migrated_fixture_matches_in_place_read(
        self, tmp_path, write_v1_library, name
    ):
        spec = dict(V1_FIXTURES[name])
        joins = spec.pop("joins", [])
        root = write_v1(write_v1_library, tmp_path, **spec)
        v1_chunks = len(json.loads((root / "manifest.json").read_text())["chunks"])
        with pytest.raises(LibraryError, match="compact-library"):
            PatternLibrary(root)
        assert migrate_library(root) == v1_chunks
        for writer, fills, dedup in joins:
            fill_writer(root, writer, fills, dedup=dedup)
        expected = V1_PARITY[name]
        library = PatternLibrary(root)
        view = library_view(library)
        assert view == {key: expected[key] for key in view}
        assert handles_digest(library.query()) == expected["handles"]

        legacy = PatternLibrary(root, writer="legacy")
        bound = legacy.bind(dict(spec.get("fingerprint") or {}), resume=True)
        batch = [make_pattern(f) for f in (8, 9)]
        legacy.append_chunk(make_record(v1_chunks, batch), batch)
        resumed = {
            "bound": [record.chunk for record in bound],
            **library_view(PatternLibrary(root)),
        }
        assert resumed == expected["resumed"]


#: Version-2 fixtures: ``(writer, fills)`` appends in commit order, each
#: writer numbering its own chunks.  The ``attributed`` writers record serve
#: attribution, so their sidecars also hold ``source``/``clean`` columns.
V2_PLANS = {
    "two-writer-dedup": dict(
        dedup=True,
        appends=[
            ("alpha", [1, 2]), ("beta", [2, 3, 3]), ("alpha", [3, 4]),
            ("beta", []), ("alpha", [5, 1]), ("beta", [6, 0]),
        ],
        attributed={"beta"},
    ),
    "two-writer-duplicates-kept": dict(
        dedup=False,
        appends=[
            ("serve-a", [1, 2]), ("main", [2, 3]), ("serve-a", [4, 4]),
            ("main", list(range(9))),
        ],
        attributed={"serve-a"},
    ),
}


def v2_appends(plan):
    """Fresh ``(writer, record, patterns)`` triples of one :data:`V2_PLANS` plan."""
    chunks: dict[str, int] = {}
    appends = []
    for writer, fills in plan["appends"]:
        batch = [make_pattern(f) for f in fills]
        chunks[writer] = chunk = chunks.get(writer, -1) + 1
        extra = {}
        if writer in plan["attributed"]:
            clean = [i % 2 for i in range(len(batch))]
            extra = dict(
                pattern_sources=[10 * chunk + i for i in range(len(batch))],
                pattern_clean=clean,
                num_clean=sum(clean),
            )
        appends.append((writer, make_record(chunk, batch, **extra), batch))
    return appends


class TestV2Migration:
    """A version-2 library is refused at open, then migrated in place."""

    @pytest.mark.parametrize(
        "name, text, match",
        [
            ("manifests/alpha.json", '{"version": 99, "chunks": []}', "unsupported version 99"),
            ("manifest.json", '{"version": 2, "chunks": []}', "unsupported version 2"),
            ("manifest.json", "{not json", "cannot read manifest"),
        ],
        ids=["ledger-version", "v1-manifest-version", "torn-v1-manifest"],
    )
    def test_unknown_layouts_are_refused_not_migrated(self, tmp_path, name, text, match):
        (tmp_path / "manifests").mkdir()
        (tmp_path / name).write_text(text)
        with pytest.raises(LibraryError, match=match):
            migrate_library(tmp_path)
        assert not (tmp_path / "manifests" / "legacy.json").exists()

    @pytest.mark.parametrize("name", sorted(V2_PLANS))
    def test_migrated_library_matches_the_appends_built_fresh(
        self, tmp_path, write_v2_library, name
    ):
        plan = V2_PLANS[name]
        root = write_v2_library(tmp_path / "v2", v2_appends(plan), dedup=plan["dedup"])
        before = tree_bytes(root)
        for writer in (None, "alpha", "legacy"):
            with pytest.raises(LibraryError, match="compact-library"):
                PatternLibrary(root, writer=writer)
        assert tree_bytes(root) == before  # a refusal writes nothing
        assert migrate_library(root) == len(plan["appends"])
        assert not list(root.glob("index/*.idx.npz"))
        for writer, _ in plan["appends"]:
            assert load_ledger(ledger_path(root, writer)).version == LEDGER_VERSION

        fresh = tmp_path / "fresh"
        for writer, record, patterns in v2_appends(plan):
            PatternLibrary(fresh, dedup=plan["dedup"], writer=writer).append_chunk(
                record, patterns
            )
        views = []
        for path in (root, fresh):
            library = PatternLibrary(path)
            views.append({
                **library_view(library),
                "handles": handles_digest(library.query()),
                "records": [record.as_dict() for record in library.records_in_order()],
                "index": library.rebuild_index(),
            })
        assert views[0] == views[1]
        migrated = tree_bytes(root)
        assert migrate_library(root) == 0
        assert tree_bytes(root) == migrated


class TestQuery:
    def test_band_filter_is_inclusive(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [0, 1, 2, 3])
        totals = sorted(h.cx + h.cy for h in library.query())
        lo, hi = totals[1], totals[-2]
        band = library.query(complexity_band=(lo, hi))
        assert all(lo <= h.cx + h.cy <= hi for h in band)
        assert len(band) == sum(1 for t in totals if lo <= t <= hi)
        assert len(library.query(complexity_band=(None, None))) == 4

    def test_topology_filter_uses_index_fast_miss(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [1, 2, 3])
        digest = topology_hash(make_pattern(2).topology)
        matches = library.query(topology_hash=digest)
        assert matches and all(h.topology_hash == digest for h in matches)
        assert library.query(topology_hash="f" * 40) == []

    def test_writer_filter(self, tmp_path):
        fill_writer(tmp_path, "alpha", [1, 2])
        fill_writer(tmp_path, "beta", [3])
        merged = PatternLibrary(tmp_path)
        assert len(merged.query(writer="alpha")) == 2
        assert len(merged.query(writer="beta")) == 1
        assert merged.query(writer="nobody") == []

    def test_regime_filter_matches_fingerprint_substring(self, tmp_path):
        library = PatternLibrary(tmp_path, writer="alpha")
        library.bind({"rules": "space_min=32"})
        patterns = [make_pattern(f) for f in (1, 2)]
        library.append_chunk(make_record(0, patterns), patterns)
        reread = PatternLibrary(tmp_path, writer="alpha")
        assert len(reread.query(rule_regime="space_min=32")) == 2
        assert reread.query(rule_regime="space_min=99") == []

    def test_handles_load_lazily_and_exactly(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [1, 2, 3, 4], chunk_size=2)
        for handle in library.query():
            pattern = handle.load()
            assert pattern_hash(pattern) == handle.pattern_hash
            assert topology_hash(pattern.topology) == handle.topology_hash

    def test_query_on_v1_library(self, tmp_path, write_v1_library):
        write_v1(write_v1_library, tmp_path, range(3), chunk_size=3)
        migrate_library(tmp_path)
        target = make_pattern(1)
        handles = PatternLibrary(tmp_path).query(topology_hash=topology_hash(target.topology))
        assert [h.pattern_hash for h in handles] == [pattern_hash(target)]


class TestIndex:
    def test_older_library_bloom_file_is_ignored_then_removed(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [0, 1])
        library.rebuild_index()
        bloom = write_bloom_era_index(tmp_path)
        library = PatternLibrary(tmp_path, writer="alpha")
        assert library.has_pattern(pattern_hash(make_pattern(1)))
        assert not library.has_pattern(pattern_hash(make_pattern(2)))
        # The first chunk is covered, so the ninth is the one whose append
        # holds eight delta chunks and flushes.
        for chunk in range(1, 9):
            assert bloom.exists()
            batch = [make_pattern(2 * chunk), make_pattern(2 * chunk + 1)]
            library.append_chunk(make_record(chunk, batch), batch)
        assert library.index_stats()["covered_seq"] == 8
        assert not bloom.exists()
        meta = json.loads((library.index_dir / "index_meta.json").read_text())
        assert not {"bloom_bits", "bloom_hashes"} & set(meta)
        assert all(library.has_pattern(pattern_hash(make_pattern(f))) for f in range(18))
        assert not library.has_pattern(pattern_hash(make_pattern(18)))

        write_bloom_era_index(tmp_path)
        library.rebuild_index()
        assert not bloom.exists()

        # An older process reads the file whenever the watermark is >= 0, so
        # it must be gone before the new watermark commits.
        write_bloom_era_index(tmp_path)
        with inject_faults(Fault("index:meta")), pytest.raises(InjectedCrash):
            library.rebuild_index()
        assert not bloom.exists()

    @pytest.mark.parametrize(
        "base_fills, delta_fills",
        [
            ([], [5, 3, 9]),
            ([0, 1, 2, 3], []),
            ([0, 2, 4, 6], [1, 2, 7, 6, 8]),
            ([0, 4], [3, 1, 3, 5, 1]),
        ],
        ids=["empty-base", "empty-delta", "delta-overlaps-base", "duplicates-across-delta-records"],
    )
    def test_merge_writes_the_bytes_of_unique_over_concatenation(
        self, tmp_path, base_fills, delta_fills
    ):
        # A flush folds the delta into the sorted, unique merged file without
        # re-sorting it; the file must come out as if it had been.
        def digests(fills):
            return [hashlib.sha1(str(fill).encode()).hexdigest().encode() for fill in fills]

        base = np.unique(np.asarray(digests(base_fills), dtype=HASH_DTYPE))
        delta = digests(delta_fills)
        expected = np.unique(np.concatenate([base, np.asarray(delta, dtype=HASH_DTYPE)]))
        np.save(tmp_path / "base.npy", base)
        mapped = np.load(tmp_path / "base.npy", mmap_mode="r")
        for merged in (LibraryIndex._merge(base, delta), LibraryIndex._merge(mapped, delta)):
            assert merged.dtype == expected.dtype and merged.shape == expected.shape
            assert merged.tobytes() == expected.tobytes()

    def test_probe_agrees_with_disk_after_flush(self, tmp_path):
        # 9 chunks crosses the flush threshold, so probes mix the merged
        # mmap arrays and the unflushed delta sets.
        library = fill_writer(tmp_path, "alpha", list(range(18)), chunk_size=2)
        stats = library.index_stats()
        assert stats["covered_seq"] >= 0
        assert stats["merged_patterns"] > 0
        for fill in range(18):
            assert library.has_pattern(pattern_hash(make_pattern(fill)))
        assert not library.has_pattern("0" * 40)

    def test_deleted_index_is_rebuilt_not_trusted(self, tmp_path):
        import shutil

        library = fill_writer(tmp_path, "alpha", list(range(18)), chunk_size=2)
        shutil.rmtree(library.index_dir)
        reread = PatternLibrary(tmp_path, dedup=True, writer="alpha")
        for fill in range(18):
            assert reread.has_pattern(pattern_hash(make_pattern(fill)))
        stats = reread.rebuild_index()
        assert stats["merged_patterns"] == reread.num_patterns

    def test_rebuild_index_refuses_pure_v1(self, tmp_path, write_v1_library):
        write_v1(write_v1_library, tmp_path, [0])
        with pytest.raises(LibraryError, match="compact-library"):
            PatternLibrary(tmp_path).rebuild_index()
        migrate_library(tmp_path)
        assert PatternLibrary(tmp_path).rebuild_index()["merged_patterns"] == 1

    def test_second_process_sees_new_appends(self, tmp_path):
        first = fill_writer(tmp_path, "alpha", [1, 2], dedup=True)
        fill_writer(tmp_path, "beta", [3, 4], dedup=True)
        # first's next append re-reads ledgers under the lock: the dedup
        # probe must see beta's patterns even though they arrived after
        # first's index snapshot was taken.
        patterns = [make_pattern(3), make_pattern(9)]
        record = make_record(1, patterns)
        first.append_chunk(record, patterns)
        assert record.num_stored == 1
        assert record.duplicates_skipped == 1


class TestCompaction:
    def test_merges_small_shards(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", list(range(8)), chunk_size=2)
        shards_before = len(list(library.shard_dir.glob("*.npz")))
        report = library.compact(target_shard_patterns=8)
        assert report.shards_before == shards_before == 4
        assert report.shards_after == 1
        assert report.merged_shards_written == 1
        assert library.num_patterns == 8
        assert len(library.load_patterns()) == 8

    def test_preserves_pattern_order_and_content(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [5, 1, 4, 2], chunk_size=2)
        before = [pattern_hash(p) for p in library.load_patterns()]
        library.compact(target_shard_patterns=3)
        after = [pattern_hash(p) for p in library.load_patterns()]
        assert after == before

    def test_drops_superseded_duplicates(self, tmp_path):
        # dedup off at append time: duplicates land on disk; a dedup
        # compaction removes every pattern hash seen earlier in seq order.
        library = fill_writer(tmp_path, "alpha", [1, 2, 1, 2, 3], chunk_size=2)
        assert library.num_patterns == 5
        report = library.compact(target_shard_patterns=8, drop_duplicates=True)
        assert report.patterns_dropped == 2
        assert library.num_patterns == 3
        hashes = [pattern_hash(p) for p in library.load_patterns()]
        assert hashes == [pattern_hash(make_pattern(f)) for f in [1, 2, 3]]

    def test_migrates_v1_library(self, tmp_path, write_v1_library):
        write_v1(write_v1_library, tmp_path, range(4), dedup=True)
        assert migrate_library(tmp_path) == 2
        assert not (tmp_path / "manifest.json").exists()
        ledger = load_ledger(ledger_path(tmp_path, "legacy"))
        assert ledger.dedup
        assert [
            (r.seq, r.writer, r.shard, r.num_new_patterns, r.num_new_topologies)
            for r in ledger.chunks
        ] == [
            (0, "legacy", "shard_00000.npz", 2, 2),
            (1, "legacy", "shard_00001.npz", 2, 2),
        ]
        assert ledger.version == LEDGER_VERSION
        for record in ledger.chunks:  # rewritten in place in the columnar codec
            with np.load(tmp_path / "shards" / record.shard) as data:
                assert sorted(data.files) == sorted(SHARD_MEMBERS)
        assert not list(tmp_path.glob("index/*.idx.npz"))
        assert migrate_library(tmp_path) == 0  # nothing left to migrate
        migrated = PatternLibrary(tmp_path)
        migrated.compact(target_shard_patterns=16)
        expected = [pattern_hash(make_pattern(f)) for f in range(4)]
        assert [pattern_hash(p) for p in migrated.load_patterns()] == expected
        assert migrated.num_unique_topologies == 4

    def test_dropping_compaction_rebuilds_complexity_counts(self, tmp_path):
        library = PatternLibrary(tmp_path, writer="alpha")
        for chunk, fills in enumerate([[1, 2], [1, 2], [3, 5]]):
            patterns = [make_pattern(f) for f in fills]
            counts = ComplexityHistogram(
                [pattern_complexity(p) for p in patterns]
            ).as_records()
            record = make_record(chunk, patterns, pattern_complexity_counts=counts)
            library.append_chunk(record, patterns)
        report = library.compact(target_shard_patterns=8, drop_duplicates=True)
        assert report.patterns_dropped == 2
        assert library.num_patterns == 4
        assert library.pattern_histogram().total == library.num_patterns
        assert library.diversity() == pattern_diversity(library.load_patterns())

    def test_keeps_big_exclusive_shards_in_place(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", list(range(6)), chunk_size=6)
        (shard_before,) = library.shard_dir.glob("*.npz")
        report = library.compact(target_shard_patterns=4)
        assert report.merged_shards_written == 0
        assert shard_before.exists()

    def test_compact_is_idempotent(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", list(range(8)), chunk_size=2)
        library.compact(target_shard_patterns=8)
        before = [pattern_hash(p) for p in library.load_patterns()]
        report = library.compact(target_shard_patterns=8)
        assert report.merged_shards_written == 0
        assert report.patterns_dropped == 0
        assert [pattern_hash(p) for p in library.load_patterns()] == before

    def test_compact_below_the_target_is_a_no_op(self, tmp_path):
        # Six patterns in three two-pattern chunks fit one merged shard under
        # the target: the first call writes it, and re-merging it alone would
        # rewrite it unchanged, so later calls leave it in place.
        library = fill_writer(tmp_path, "alpha", list(range(6)), chunk_size=2)
        assert library.compact(target_shard_patterns=8).merged_shards_written == 1
        merged = library.shard_dir / "merged_00000.npz"
        data = merged.read_bytes()
        before = [pattern_hash(p) for p in library.load_patterns()]
        for _ in range(2):
            report = library.compact(target_shard_patterns=8)
            assert report.merged_shards_written == 0
            assert [p.name for p in library.shard_dir.iterdir()] == ["merged_00000.npz"]
            assert merged.read_bytes() == data
        assert [pattern_hash(p) for p in library.load_patterns()] == before

    def test_small_merged_shard_packs_with_a_later_chunk(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", list(range(6)), chunk_size=2)
        library.compact(target_shard_patterns=8)
        patterns = [make_pattern(f) for f in (6, 7)]
        library.append_chunk(make_record(3, patterns), patterns)
        assert library.compact(target_shard_patterns=8).merged_shards_written == 1
        assert [p.name for p in library.shard_dir.iterdir()] == ["merged_00001.npz"]
        expected = [pattern_hash(make_pattern(f)) for f in range(8)]
        assert [pattern_hash(p) for p in library.load_patterns()] == expected

    def test_sidecars_with_attribution_columns_query_and_compact(
        self, tmp_path, write_v2_library
    ):
        # Older serve appends also wrote per-pattern ``source``/``clean``
        # arrays into a version-2 sidecar (the ledger holds them too).
        # Migration deletes every sidecar; queries and compaction then read
        # the shards' index columns alone, and the ledger keeps attribution.
        appends = []
        for chunk in range(4):
            batch = [make_pattern(f) for f in (2 * chunk, 2 * chunk + 1)]
            extra = (
                dict(pattern_sources=[2 * chunk, 2 * chunk + 1], pattern_clean=[1, 1])
                if chunk % 2 == 0 else {}
            )
            appends.append(("alpha", make_record(chunk, batch, **extra), batch))
        root = write_v2_library(tmp_path, appends)
        with np.load(root / "index" / "shard_alpha_00000.idx.npz") as sidecar:
            assert {"source", "clean"} <= set(sidecar.files)
        assert migrate_library(root) == 4
        assert not list(root.glob("index/*.idx.npz"))
        reopened = PatternLibrary(root)
        before = [pattern_hash(p) for p in reopened.load_patterns()]
        assert before == [pattern_hash(make_pattern(f)) for f in range(8)]
        assert len(reopened.query(complexity_band=(0, None))) == 8
        report = reopened.compact(target_shard_patterns=8)
        assert report.merged_shards_written == 1
        assert [pattern_hash(p) for p in reopened.load_patterns()] == before
        assert len(reopened.query(complexity_band=(0, None))) == 8
        (merged,) = reopened.shard_dir.glob("merged_*.npz")
        with np.load(merged) as data:
            assert sorted(data.files) == sorted(SHARD_MEMBERS)
        assert [r.pattern_sources for r in reopened.records_in_order()] == [
            [0, 1], [], [4, 5], []
        ]

    def test_query_and_dedup_survive_compaction(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", [1, 2, 3, 4], dedup=True)
        library.compact(target_shard_patterns=2)
        assert len(library.query(complexity_band=(0, None))) == 4
        patterns = [make_pattern(2)]
        record = make_record(9, patterns)
        library.append_chunk(record, patterns)
        assert record.duplicates_skipped == 1


class TestResumeValidation:
    def _library_with_chunks(self, tmp_path, writer=None):
        library = PatternLibrary(tmp_path, dedup=True, writer=writer)
        library.bind({"seed": 7})
        for chunk in range(2):
            patterns = [make_pattern(chunk * 2 + i) for i in range(2)]
            library.append_chunk(make_record(chunk, patterns), patterns)
        return library

    # Both chunks lie beyond the index watermark, so the open that reads
    # their hash columns raises; a covered chunk is checked by bind().
    @pytest.mark.parametrize("writer", [None, "alpha"])
    def test_missing_shard_names_offending_chunk(self, tmp_path, writer):
        library = self._library_with_chunks(tmp_path, writer)
        shard = library.shard_dir / library.own_records()[1].shard
        shard.unlink()
        with pytest.raises(LibraryError, match=r"chunk 1: shard .* is\s+missing"):
            PatternLibrary(tmp_path, dedup=True, writer=writer)

    @pytest.mark.parametrize("writer", [None, "alpha"])
    def test_truncated_shard_names_offending_chunk(self, tmp_path, writer):
        library = self._library_with_chunks(tmp_path, writer)
        shard = library.shard_dir / library.own_records()[0].shard
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        with pytest.raises(LibraryError, match="chunk 0"):
            PatternLibrary(tmp_path, dedup=True, writer=writer)

    def test_short_shard_names_offending_chunk(self, tmp_path):
        library = self._library_with_chunks(tmp_path, "alpha")
        save_shard(library.shard_dir / library.own_records()[0].shard, [make_pattern(9)])
        with pytest.raises(LibraryError, match=r"chunk 0: .* holds 1 pattern"):
            PatternLibrary(tmp_path, writer="alpha")

    def test_covered_shard_is_validated_at_bind(self, tmp_path):
        library = PatternLibrary(tmp_path, writer="alpha")
        library.bind({"seed": 7})
        for chunk in range(8):  # the eighth append flushes the index
            patterns = [make_pattern(chunk)]
            library.append_chunk(make_record(chunk, patterns), patterns)
        assert library.index_stats()["covered_seq"] == 7
        (library.shard_dir / library.own_records()[1].shard).unlink()
        reopened = PatternLibrary(tmp_path, writer="alpha")  # chunk 1 is covered
        with pytest.raises(LibraryError, match=r"chunk 1: shard .* is\s+missing"):
            reopened.bind({"seed": 7}, resume=True)

    @pytest.mark.parametrize("writer", [None, "alpha"])
    def test_intact_library_resumes(self, tmp_path, writer):
        self._library_with_chunks(tmp_path, writer)
        reopened = PatternLibrary(tmp_path, dedup=True, writer=writer)
        records = reopened.bind({"seed": 7}, resume=True)
        assert [r.chunk for r in records] == [0, 1]


class TestShardCountRule:
    """A per-chunk shard holds exactly its record's patterns, on every read path."""

    @pytest.mark.parametrize("covered", [False, True])
    def test_every_read_path_raises_the_same_error(self, tmp_path, covered):
        library = fill_writer(tmp_path, "alpha", [0, 1, 2, 3], chunk_size=2)
        if covered:
            library.rebuild_index()
            assert library.index_stats()["covered_seq"] == 1
        handles = library.query(writer="alpha")
        record = library.own_records()[0]
        # The shard is replaced under the same name by one of three patterns.
        save_shard(library.shard_dir / record.shard, [make_pattern(f) for f in (0, 1, 9)])

        errors = []

        def capture(read):
            with pytest.raises(LibraryError) as info:
                read()
            errors.append(str(info.value))

        if covered:
            reader = PatternLibrary(tmp_path, writer="alpha")  # the open reads no covered shard
        else:
            capture(lambda: PatternLibrary(tmp_path, writer="alpha"))
            reader = library
        capture(lambda: reader.load_record_patterns(record))
        capture(reader.load_patterns)
        capture(reader.query)
        capture(handles[0].load)
        assert len(errors) == 4 + (not covered)
        assert len(set(errors)) == 1, errors
        assert errors[0].startswith("chunk 0: shard ")
        assert "holds 3 pattern(s) but the manifest records 2" in errors[0]


class TestStreaming:
    def test_iter_patterns_holds_one_shard_at_a_time(self, tmp_path):
        # 24 chunks x 8 patterns of 64x64 topology: walking the library must
        # not materialise all shards at once.  The bound is generous (3x one
        # shard's footprint plus bookkeeping) but fails hard if iteration
        # regresses to load_patterns()-style accumulation.
        library = PatternLibrary(tmp_path, writer="alpha")
        per_chunk = 8
        for chunk in range(24):
            patterns = [
                make_pattern(chunk * per_chunk + i, size=64) for i in range(per_chunk)
            ]
            library.append_chunk(make_record(chunk, patterns), patterns)
        shard_bytes = sum(
            path.stat().st_size for path in library.shard_dir.glob("*.npz")
        )
        one_shard = shard_bytes / 24
        tracemalloc.start()
        count = 0
        for pattern in library.iter_patterns():
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 24 * per_chunk
        assert peak < max(3 * one_shard * 4, 512 * 1024)  # npz inflates ~4x

    def test_pattern_histogram_never_touches_shards(self, tmp_path):
        library = fill_writer(tmp_path, "alpha", list(range(6)), chunk_size=2)
        for path in library.shard_dir.glob("*.npz"):
            path.unlink()  # histogram must not notice
        assert library.pattern_histogram().total == 6
