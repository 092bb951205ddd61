"""Property-based tests: the indexed library against brute-force oracles.

The central property the index must uphold: for any append sequence, the
delta/sorted-file probe path produces **bit-equal dedup decisions** to
plain in-memory hash sets.  Hypothesis drives randomized chunk sequences
with heavy hash collisions; oracles are plain Python sets and list scans.
The columnar shard codec is checked against the patterns it was given.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.metrics import pattern_complexity
from repro.squish import SquishPattern

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# chunk plans: up to 6 chunks of 0..4 fills drawn from a tiny alphabet, so
# intra-chunk, inter-chunk and cross-writer duplicates are all common
chunk_plans = st.lists(
    st.lists(st.integers(0, 9), min_size=0, max_size=4), min_size=1, max_size=6
)


def make_pattern(fill: int, size: int = 4, step: int = 32) -> SquishPattern:
    topo = np.zeros((size, size), dtype=np.uint8)
    topo[1 : 1 + (fill % (size - 1)) + 0, 1:3] = 1
    topo[0, fill % size] = 1
    delta = np.full(size, step, dtype=np.int64)
    return SquishPattern(topo, delta, delta + fill)


def make_record(chunk: int, patterns: list[SquishPattern]) -> ChunkRecord:
    return ChunkRecord(
        chunk=chunk,
        start=chunk * 4,
        num_sampled=max(4, len(patterns)),
        num_kept=len(patterns),
        num_rejected=0,
        unsolved=0,
        num_patterns=len(patterns),
        num_stored=0,
        duplicates_skipped=0,
        num_clean=len(patterns),
        shard=None,
        pattern_complexity_counts=[[2, 2, len(patterns)]] if patterns else [],
    )


def append_plan(root: Path, plan, writer):
    library = PatternLibrary(root, dedup=True, writer=writer)
    decisions = []
    for chunk, fills in enumerate(plan):
        patterns = [make_pattern(f) for f in fills]
        record = make_record(chunk, patterns)
        library.append_chunk(record, patterns)
        decisions.append((record.num_stored, record.duplicates_skipped))
    return library, decisions


class TestDedupEquivalence:
    @SETTINGS
    @given(chunk_plans)
    def test_dedup_decisions_match_a_set_oracle(self, plan):
        with tempfile.TemporaryDirectory() as scratch:
            library, decisions = append_plan(Path(scratch), plan, writer="w")
            seen: set[str] = set()
            stored_order: list[str] = []
            topologies: set[str] = set()
            for fills, (stored, skipped) in zip(plan, decisions):
                expected_stored = 0
                for fill in fills:
                    pattern = make_pattern(fill)
                    digest = pattern_hash(pattern)
                    if digest not in seen:
                        seen.add(digest)
                        stored_order.append(digest)
                        topologies.add(topology_hash(pattern.topology))
                        expected_stored += 1
                assert stored == expected_stored
                assert skipped == len(fills) - expected_stored
            assert [pattern_hash(p) for p in library.load_patterns()] == stored_order
            assert library.num_unique_topologies == len(topologies)

    @SETTINGS
    @given(chunk_plans)
    def test_membership_probes_match_oracle_after_reopen(self, plan):
        with tempfile.TemporaryDirectory() as scratch:
            library, _ = append_plan(Path(scratch), plan, writer="w")
            stored = {pattern_hash(p) for p in library.load_patterns()}
            reread = PatternLibrary(Path(scratch))
            for fill in range(12):
                digest = pattern_hash(make_pattern(fill))
                assert reread.has_pattern(digest) == (digest in stored)


class TestCompactionProperties:
    @SETTINGS
    @given(chunk_plans, st.integers(1, 8))
    def test_compaction_preserves_unique_in_order_multiset(self, plan, target):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            library = PatternLibrary(root, dedup=False, writer="w")
            for chunk, fills in enumerate(plan):
                patterns = [make_pattern(f) for f in fills]
                library.append_chunk(make_record(chunk, patterns), patterns)
            before = [pattern_hash(p) for p in library.load_patterns()]
            expected = list(dict.fromkeys(before))
            library.compact(target_shard_patterns=target, drop_duplicates=True)
            assert [pattern_hash(p) for p in library.load_patterns()] == expected
            # and the rebuilt index still answers membership correctly
            for digest in expected:
                assert library.has_pattern(digest)

    @SETTINGS
    @given(chunk_plans, st.integers(1, 8))
    def test_query_band_matches_brute_force(self, plan, lo):
        with tempfile.TemporaryDirectory() as scratch:
            library, _ = append_plan(Path(scratch), plan, writer="w")
            hi = lo + 4
            expected = sorted(
                pattern_hash(p)
                for p in library.load_patterns()
                if lo <= sum(pattern_complexity(p)) <= hi
            )
            got = sorted(
                h.pattern_hash for h in library.query(complexity_band=(lo, hi))
            )
            assert got == expected


@st.composite
def squish_patterns(draw):
    """One pattern of a drawn shape (1x1, non-square, 8x8 or 16x16) and origin."""
    rows, cols = draw(st.sampled_from([(1, 1), (1, 5), (3, 2), (8, 8), (16, 16)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SquishPattern(
        rng.integers(0, 2, size=(rows, cols), dtype=np.uint8),
        rng.integers(1, 500, size=cols),
        rng.integers(1, 500, size=rows),
        (draw(st.integers(-(10**6), 10**6)), draw(st.integers(-(10**6), 10**6))),
    )


def codec_view(pattern: SquishPattern):
    """Every array of a pattern with its dtype and shape, plus its origin."""
    arrays = (pattern.topology, pattern.delta_x, pattern.delta_y)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], pattern.origin


class TestShardCodec:
    @settings(SETTINGS, derandomize=True)
    @given(st.lists(squish_patterns(), max_size=8), st.data())
    def test_columnar_shard_round_trips_and_rejects_truncation(self, patterns, data):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "shard.npz"
            save_shard(path, patterns)
            loaded = load_shard(path)
            assert [codec_view(p) for p in loaded] == [codec_view(p) for p in patterns]
            assert all(type(v) is int for p in loaded for v in p.origin)
            for start in range(len(patterns) + 1):
                for count in range(len(patterns) - start + 1):
                    sliced, total = load_shard_slice(path, start, count)
                    assert total == len(patterns)
                    assert [codec_view(p) for p in sliced] == [
                        codec_view(p) for p in loaded[start : start + count]
                    ]
            with np.load(path) as stored:
                assert stored["pattern_hash"].tolist() == [
                    pattern_hash(p).encode() for p in patterns
                ]
                assert stored["topology_hash"].tolist() == [
                    topology_hash(p.topology).encode() for p in patterns
                ]
                complexities = [pattern_complexity(p) for p in patterns]
                assert stored["cx"].tolist() == [cx for cx, _ in complexities]
                assert stored["cy"].tolist() == [cy for _, cy in complexities]
            blob = path.read_bytes()
            path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
            with pytest.raises(LibraryError):
                load_shard(path)
