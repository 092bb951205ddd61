"""Crash-consistency tests: kill the library at every fault point, resume.

The library's durable writes call :func:`repro.faults.fault_point` with a
stable label before executing (``append:shard``, ``alpha.json:replace``,
...).  These suites first record the full label sequence of an operation,
then replay the identical operation once per point with a hook that raises
:class:`InjectedCrash` there — simulating a ``kill -9`` between any two
filesystem steps — and assert the reopened library resumes losslessly:

* **appends**: every pattern lands exactly once, the ledger seq stays
  gap-free, and the dedup decisions match the serial run.
* **compaction**: the pattern multiset (in commit order) survives a crash
  at any point of the rewrite.
* **migration**: a crash at any point of ``repro compact-library`` on a v1
  or version-2 library leaves a root that refuses to open or opens fully
  migrated, and a rerun converges to the reference library.

A process kill is not an OS crash: :class:`TestDurableCommits` checks that
every commit is fsynced (file before rename, directory after it).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults import InjectedCrash, install_fault_hook, record_fault_points
from repro.library import (
    ChunkRecord,
    LibraryError,
    PatternLibrary,
    migrate_library,
    pattern_hash,
)
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


class crash_at:
    """Fault hook raising :class:`InjectedCrash` at the n-th point hit."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.seen = 0

    def __call__(self, label: str) -> None:
        if self.seen == self.index:
            raise InjectedCrash(label, self.index)
        self.seen += 1


@pytest.fixture(autouse=True)
def _clear_hook():
    yield
    install_fault_hook(None)


CHUNK_FILLS = [[1, 2], [2, 3]]  # fill 2 repeats: exercises the dedup path


def run_appends(root, writer, dedup=True):
    """Append CHUNK_FILLS through one (re)opened library, skipping done chunks."""
    library = PatternLibrary(root, dedup=dedup, writer=writer)
    done = library.bind({"seed": 7}, resume=True)
    completed = {record.chunk for record in done}
    for chunk, fills in enumerate(CHUNK_FILLS):
        if chunk in completed:
            continue
        patterns = [make_pattern(f) for f in fills]
        library.append_chunk(make_record(chunk, patterns), patterns)
    return library


def enumerate_points(tmp_path, name, writer):
    with record_fault_points() as points:
        run_appends(tmp_path / name, writer)
    return list(points)


def assert_matches_serial(recovered: PatternLibrary, serial: PatternLibrary):
    assert [pattern_hash(p) for p in recovered.load_patterns()] == [
        pattern_hash(p) for p in serial.load_patterns()
    ]
    assert recovered.num_patterns == serial.num_patterns
    assert recovered.num_unique_topologies == serial.num_unique_topologies
    assert sum(r.duplicates_skipped for r in recovered.records_in_order()) == sum(
        r.duplicates_skipped for r in serial.records_in_order()
    )


class TestV2AppendCrashes:
    def test_covers_the_durability_points(self, tmp_path):
        points = enumerate_points(tmp_path, "probe", "alpha")
        # One append commits its shard, then the ledger that names it.
        assert points[: points.index("alpha.json:replace") + 1] == [
            "append:shard",
            "shard_alpha_00000.npz:tmp-write",
            "shard_alpha_00000.npz:replace",
            "append:ledger",
            "alpha.json:tmp-write",
            "alpha.json:replace",
        ]

    def test_every_kill_point_resumes_losslessly(self, tmp_path):
        serial = run_appends(tmp_path / "serial", "alpha")
        points = enumerate_points(tmp_path, "probe", "alpha")
        assert len(points) >= 8
        for index, label in enumerate(points):
            root = tmp_path / f"kill-{index}"
            install_fault_hook(crash_at(index))
            with pytest.raises(InjectedCrash):
                run_appends(root, "alpha")
            install_fault_hook(None)
            recovered = run_appends(root, "alpha")
            assert_matches_serial(recovered, serial)
            assert [r.seq for r in recovered.records_in_order()] == [0, 1], label
            assert not list(root.glob("**/*.tmp")), label

    def test_crashed_writer_leaves_library_readable(self, tmp_path):
        # A reader must cope with the torn leftovers of a mid-append crash
        # (orphan shard, no ledger entry) without resuming anything.
        points = enumerate_points(tmp_path, "probe", "alpha")
        # last occurrence: chunk 1's ledger commit (its shard is on disk)
        ledger_commit = len(points) - 1 - points[::-1].index("append:ledger")
        root = tmp_path / "torn"
        install_fault_hook(crash_at(ledger_commit))
        with pytest.raises(InjectedCrash):
            run_appends(root, "alpha")
        install_fault_hook(None)
        reader = PatternLibrary(root)
        # chunk 0 committed, chunk 1's shard is an orphan: only chunk 0 counts
        assert reader.num_patterns == 2
        assert len(reader.load_patterns()) == 2


def compact_fills(root, writer="alpha"):
    library = PatternLibrary(root, dedup=False, writer=writer)
    for chunk, fills in enumerate([[1, 2], [2, 3], [3, 4]]):
        patterns = [make_pattern(f) for f in fills]
        library.append_chunk(make_record(chunk, patterns), patterns)
    return library


class TestCompactionCrashes:
    def test_every_kill_point_preserves_patterns(self, tmp_path):
        reference = compact_fills(tmp_path / "serial")
        reference.compact(target_shard_patterns=4, drop_duplicates=True)
        expected = [pattern_hash(p) for p in reference.load_patterns()]

        probe = compact_fills(tmp_path / "probe")
        with record_fault_points() as points:
            probe.compact(target_shard_patterns=4, drop_duplicates=True)
        assert "compact:merged-shard" in points
        assert "compact:index-rebuild" in points

        for index, label in enumerate(points):
            root = tmp_path / f"kill-{index}"
            library = compact_fills(root)
            install_fault_hook(crash_at(index))
            with pytest.raises(InjectedCrash):
                library.compact(target_shard_patterns=4, drop_duplicates=True)
            install_fault_hook(None)
            # Crash mid-compaction: reopening must still see every pattern
            # (dropped duplicates may or may not have committed yet, so
            # compare the deduplicated multiset).
            recovered = PatternLibrary(root, dedup=False, writer="alpha")
            survivors = [pattern_hash(p) for p in recovered.load_patterns()]
            deduped = list(dict.fromkeys(survivors))
            assert deduped == expected, label
            # and a rerun converges to the reference state
            recovered.compact(target_shard_patterns=4, drop_duplicates=True)
            assert [
                pattern_hash(p) for p in recovered.load_patterns()
            ] == expected, label

    def test_rerun_leaves_only_the_shards_the_records_name(self, tmp_path):
        def compact(library):
            # Four patterns survive the drop, so the merged shard meets the
            # target and the rerun leaves it in place once it is named.
            library.compact(target_shard_patterns=4, drop_duplicates=True)

        def view(root):
            library = PatternLibrary(root, writer="alpha")
            named = {r.shard for r in library.records_in_order() if r.shard}
            on_disk = {path.name for path in (root / "shards").iterdir()}
            records = [
                (r.seq, r.chunk, r.shard, r.shard_start, r.num_stored)
                for r in library.records_in_order()
            ]
            return named, on_disk, records

        reference = compact_fills(tmp_path / "serial")
        compact(reference)
        expected = view(reference.root)
        assert expected[0] == expected[1] == {"merged_00000.npz"}
        probe = compact_fills(tmp_path / "probe")
        with record_fault_points() as points:
            compact(probe)
        assert {
            "compact:merged-shard", "compact:ledger:alpha", "compact:index-rebuild"
        } <= set(points)

        for index, label in enumerate(points):
            root = tmp_path / f"kill-{index}"
            library = compact_fills(root)
            install_fault_hook(crash_at(index))
            with pytest.raises(InjectedCrash):
                compact(library)
            install_fault_hook(None)
            compact(PatternLibrary(root, writer="alpha"))
            named, on_disk, records = view(root)
            assert on_disk == named, label
            assert (named, records) == (expected[0], expected[2]), label

    def test_v1_migration_survives_crashes(self, tmp_path, write_v1_library):
        def build_v1(root):
            chunks = []
            for chunk, fills in enumerate([[1, 2], [3, 4]]):
                patterns = [make_pattern(f) for f in fills]
                chunks.append((make_record(chunk, patterns), patterns))
            return write_v1_library(root, chunks, dedup=True)

        def compact_library(root):
            """What `repro compact-library ROOT` runs."""
            migrate_library(root)
            PatternLibrary(root).compact(target_shard_patterns=8)

        reference = build_v1(tmp_path / "serial")
        compact_library(reference)
        expected = [pattern_hash(p) for p in PatternLibrary(reference).load_patterns()]
        with record_fault_points() as points:
            compact_library(build_v1(tmp_path / "probe"))
        assert {
            "migrate:shard", "migrate:ledger", "migrate:drop-sidecars", "migrate:drop-manifest"
        } <= set(points)

        for index, label in enumerate(points):
            root = build_v1(tmp_path / f"kill-{index}")
            install_fault_hook(crash_at(index))
            with pytest.raises(InjectedCrash):
                compact_library(root)
            install_fault_hook(None)
            # The root still refuses to open (its manifest is removed last)
            # or it opens fully migrated.
            if (root / "manifest.json").exists():
                with pytest.raises(LibraryError, match="compact-library"):
                    PatternLibrary(root)
            else:
                assert [
                    pattern_hash(p) for p in PatternLibrary(root).load_patterns()
                ] == expected, label
            compact_library(root)
            assert [
                pattern_hash(p) for p in PatternLibrary(root).load_patterns()
            ] == expected, label
            assert (
                PatternLibrary(root).summary() == PatternLibrary(reference).summary()
            ), label

    def test_v2_migration_survives_crashes(self, tmp_path, write_v2_library):
        def build_v2(root):
            appends = []
            for chunk, (writer, fills) in enumerate(
                [("alpha", [1, 2]), ("beta", [2, 3]), ("alpha", [4])]
            ):
                patterns = [make_pattern(f) for f in fills]
                record = make_record(chunk // 2, patterns, pattern_sources=[0] * len(fills))
                appends.append((writer, record, patterns))
            return write_v2_library(root, appends, dedup=True)

        def compact_library(root):
            """What `repro compact-library ROOT` runs."""
            migrate_library(root)
            PatternLibrary(root).compact(target_shard_patterns=8)

        def view(root):
            library = PatternLibrary(root)
            # A crash after the first ledger names the merged shard makes the
            # rerun number its own one higher (it must not overwrite a shard
            # a committed ledger reads); everything a reader sees must agree.
            return (
                [pattern_hash(p) for p in library.load_patterns()],
                [
                    (r.seq, r.writer, r.chunk, r.num_stored, r.pattern_sources)
                    for r in library.records_in_order()
                ],
                library.summary(),
            )

        reference = build_v2(tmp_path / "serial")
        compact_library(reference)
        expected = view(reference)
        with record_fault_points() as points:
            compact_library(build_v2(tmp_path / "probe"))
        assert {"migrate:shard", "migrate:ledger", "migrate:drop-sidecars"} <= set(points)

        for index, label in enumerate(points):
            root = build_v2(tmp_path / f"kill-{index}")
            install_fault_hook(crash_at(index))
            with pytest.raises(InjectedCrash):
                compact_library(root)
            install_fault_hook(None)
            # A version-2 ledger is rewritten only after every shard: the
            # root refuses to open or opens with every pattern readable.
            try:
                opened = PatternLibrary(root)
            except LibraryError as error:
                assert "compact-library" in str(error), label
            else:
                hashes = [pattern_hash(p) for p in opened.load_patterns()]
                assert hashes == expected[0], label
            compact_library(root)
            assert view(root) == expected, label
            library = PatternLibrary(root)
            named = {r.shard for r in library.records_in_order() if r.shard}
            assert {path.name for path in (root / "shards").iterdir()} == named, label
            assert not list(root.glob("index/*.idx.npz")), label


class TestDurableCommits:
    def test_append_syncs_the_shard_before_the_ledger_rename(self, tmp_path, monkeypatch):
        library = PatternLibrary(tmp_path, writer="alpha")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        patterns = [make_pattern(1), make_pattern(2)]
        library.append_chunk(make_record(0, patterns), patterns)
        monkeypatch.undo()

        renames = [event for event in events if event[0] == "replace"]
        assert [name for _, _, name in renames] == ["shard_alpha_00000.npz", "alpha.json"]
        shard_inode = renames[0][1]
        assert ("fsync", shard_inode) in events[: events.index(renames[1])]
        directories = [library.shard_dir, tmp_path / "manifests"]
        for event, directory in zip(renames, directories):
            at = events.index(event)
            assert events[at - 1] == ("fsync", event[1])  # the data, before the rename
            assert events[at + 1] == ("fsync", directory.stat().st_ino)  # then its entry
