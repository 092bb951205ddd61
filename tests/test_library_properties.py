"""Property-based tests: the indexed library against brute-force oracles.

The central property the index must uphold: for any append sequence, the
sidecar-delta/sorted-file probe path produces **bit-equal dedup decisions**
to plain in-memory hash sets.  Hypothesis drives randomized chunk sequences
with heavy hash collisions; oracles are plain Python sets and list scans.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.library import ChunkRecord, PatternLibrary, pattern_hash, topology_hash
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
