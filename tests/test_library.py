"""Unit tests for the persistent pattern library (shards + manifest)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.library import (
    ChunkRecord,
    LibraryError,
    PatternLibrary,
    load_shard,
    load_shard_slice,
    pattern_hash,
    save_shard,
    topology_hash,
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


class TestShardCodec:
    def test_roundtrip_is_exact(self, tmp_path):
        patterns = [make_pattern(i) for i in range(3)]
        path = tmp_path / "shard.npz"
        save_shard(path, patterns)
        loaded = load_shard(path)
        assert len(loaded) == 3
        for original, copy in zip(patterns, loaded):
            np.testing.assert_array_equal(copy.topology, original.topology)
            np.testing.assert_array_equal(copy.delta_x, original.delta_x)
            np.testing.assert_array_equal(copy.delta_y, original.delta_y)
            assert copy.origin == original.origin

    def test_mid_shard_slice(self, tmp_path):
        # 12 patterns: a slice must start at its own offsets into the
        # concatenated topology bits and deltas, not at the shard's start.
        patterns = [make_pattern(i) for i in range(12)]
        path = tmp_path / "shard.npz"
        save_shard(path, patterns)
        loaded, total = load_shard_slice(path, 1, 10)
        assert total == 12
        assert [pattern_hash(p) for p in loaded] == [
            pattern_hash(p) for p in patterns[1:11]
        ]
        assert loaded[0].origin == patterns[1].origin
        with pytest.raises(LibraryError, match="cannot load"):
            load_shard_slice(path, 5, 8)

    def test_empty_shard(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_shard(path, [])
        assert load_shard(path) == []

    def test_inconsistent_columns_are_rejected(self, tmp_path):
        # Intact zip members whose lengths disagree with ``shapes`` are as
        # corrupt as a torn file.
        path = tmp_path / "shard.npz"
        save_shard(path, [make_pattern(i) for i in range(3)])
        with np.load(path) as data:
            columns = {key: data[key] for key in data.files}
        columns["delta_x"] = columns["delta_x"][:-1]
        np.savez(path, **columns)
        with pytest.raises(LibraryError, match="truncated or corrupt"):
            load_shard(path)

    def test_non_shard_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(LibraryError, match="count"):
            load_shard(path)


class TestHashes:
    def test_topology_hash_is_shape_aware(self):
        flat = np.zeros((1, 4), dtype=np.uint8)
        tall = np.zeros((4, 1), dtype=np.uint8)
        assert topology_hash(flat) != topology_hash(tall)
        assert topology_hash(flat) == topology_hash(flat.copy())

    def test_pattern_hash_sees_geometry(self):
        a = make_pattern(1)
        b = SquishPattern(a.topology, a.delta_x + 1, a.delta_y)
        assert pattern_hash(a) != pattern_hash(b)
        assert topology_hash(a.topology) == topology_hash(b.topology)


class TestPatternLibrary:
    def test_append_and_reload(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        patterns = [make_pattern(i) for i in range(3)]
        stored = library.append_chunk(make_record(0, patterns), patterns)
        assert len(stored) == 3
        assert library.num_patterns == 3
        assert library.num_chunks == 1

        reopened = PatternLibrary(tmp_path / "lib")
        assert reopened.num_patterns == 3
        loaded = reopened.load_patterns()
        for original, copy in zip(patterns, loaded):
            np.testing.assert_array_equal(copy.topology, original.topology)
            np.testing.assert_array_equal(copy.delta_x, original.delta_x)

    def test_empty_chunk_records_without_shard(self, tmp_path):
        # A chunk whose every sample was prefiltered away still completes:
        # it is recorded (so resume skips it) but writes no shard file.
        library = PatternLibrary(tmp_path / "lib")
        library.append_chunk(make_record(0, []), [])
        reopened = PatternLibrary(tmp_path / "lib")
        record = reopened.chunk_records[0]
        assert record.shard is None
        assert reopened.load_record_patterns(record) == []
        assert not (tmp_path / "lib" / "shards").exists()

    def test_duplicate_chunk_is_rejected(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        patterns = [make_pattern(0)]
        library.append_chunk(make_record(0, patterns), patterns)
        with pytest.raises(LibraryError, match="already recorded"):
            library.append_chunk(make_record(0, patterns), patterns)

    def test_dedup_skips_exact_duplicates(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib", dedup=True)
        patterns = [make_pattern(1), make_pattern(1), make_pattern(2)]
        stored = library.append_chunk(make_record(0, patterns), patterns)
        assert len(stored) == 2
        record = library.chunk_records[0]
        assert record.duplicates_skipped == 1
        assert record.num_stored == 2
        # A later chunk repeating an old pattern is also skipped.
        repeat = [make_pattern(2), make_pattern(3)]
        stored2 = library.append_chunk(make_record(1, repeat), repeat)
        assert len(stored2) == 1
        assert library.num_patterns == 3

    def test_unique_topology_accounting(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        base = make_pattern(1)
        variants = [base, SquishPattern(base.topology, base.delta_x + 5, base.delta_y)]
        library.append_chunk(make_record(0, variants), variants)
        assert library.num_patterns == 2
        assert library.num_unique_topologies == 1

    def test_diversity_and_legality_from_records(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        patterns = [make_pattern(i) for i in range(2)]
        record = make_record(
            0, patterns, pattern_complexity_counts=[[1, 2, 1], [3, 4, 1]], num_clean=1
        )
        library.append_chunk(record, patterns)
        assert library.legality() == 0.5
        assert library.diversity() == 1.0  # two distinct pairs, uniform
        summary = library.summary()
        assert summary["patterns"] == 2 and summary["chunks"] == 1

    def test_plan_chunk_previews_dedup_without_mutation(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib", dedup=True)
        first = [make_pattern(1)]
        library.append_chunk(make_record(0, first), first)
        batch = [make_pattern(1), make_pattern(2), make_pattern(2)]
        # Known duplicate, fresh pattern, intra-chunk duplicate.
        assert library.plan_chunk(batch) == [False, True, False]
        # Pure preview: asking twice gives the same answer.
        assert library.plan_chunk(batch) == [False, True, False]
        stored = library.append_chunk(make_record(1, batch), batch)
        assert len(stored) == 1

    def test_plan_chunk_without_dedup_keeps_everything(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        batch = [make_pattern(1), make_pattern(1)]
        assert library.plan_chunk(batch) == [True, True]

    def test_persisted_dedup_mode_wins_on_reopen(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib", dedup=True)
        patterns = [make_pattern(1)]
        library.append_chunk(make_record(0, patterns), patterns)
        # Reopening without the flag must not silently flip the mode.
        reopened = PatternLibrary(tmp_path / "lib")
        assert reopened.dedup is True
        stored = reopened.append_chunk(make_record(1, patterns), patterns)
        assert stored == []

    def test_hash_registry_survives_reload(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib", dedup=True)
        patterns = [make_pattern(1), make_pattern(2)]
        library.append_chunk(make_record(0, patterns), patterns)
        reopened = PatternLibrary(tmp_path / "lib", dedup=True)
        assert reopened.num_unique_topologies == library.num_unique_topologies
        # The reloaded registry still skips previously stored patterns.
        stored = reopened.append_chunk(make_record(1, [make_pattern(1)]), [make_pattern(1)])
        assert stored == []

    def test_bind_adopts_and_validates_fingerprint(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        fingerprint = {"num_samples": 8, "sample_seed": 1, "legal_seed": 1}
        assert library.bind(fingerprint) == []
        patterns = [make_pattern(0)]
        library.append_chunk(make_record(0, patterns), patterns)

        reopened = PatternLibrary(tmp_path / "lib")
        records = reopened.bind(fingerprint, resume=True)
        assert [r.chunk for r in records] == [0]
        with pytest.raises(LibraryError, match="fingerprint"):
            reopened.bind({"num_samples": 9}, resume=True)

    def test_missing_shard_is_reported(self, tmp_path):
        library = PatternLibrary(tmp_path / "lib")
        patterns = [make_pattern(0)]
        library.append_chunk(make_record(0, patterns), patterns)
        reopened = PatternLibrary(tmp_path / "lib")
        library.shard_path(0).unlink()
        with pytest.raises(LibraryError, match="missing"):
            reopened.load_record_patterns(reopened.chunk_records[0])
        # The record lies beyond the index watermark: the open reads its
        # hash columns from the shard, so it raises the same error.
        with pytest.raises(LibraryError, match="chunk 0: .* missing"):
            PatternLibrary(tmp_path / "lib")

    def test_corrupt_manifest_is_reported(self, tmp_path):
        root = tmp_path / "lib"
        root.mkdir()
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(LibraryError, match="manifest"):
            PatternLibrary(root)
