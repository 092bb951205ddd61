"""Pattern-library v2 at scale — indexed probes, query latency, writer throughput.

The v2 store's claim is that dedup membership and metadata queries stay fast
as the library grows: an indexed probe checks the in-memory hash sets of the
chunks committed since the last index flush, then binary-searches the
memory-mapped sorted hash file, present and absent digests alike, without
touching a shard.  This harness builds a library far larger than any unit-test
fixture (100k patterns at full scale) and measures:

* **indexed probe speedup** — ``has_pattern`` through the on-disk index
  versus the linear hash-list rescan a v1-style store would do (the gate the
  index earns its complexity with: >= 5x),
* **probe agreement** — the indexed answers must equal the linear oracle's
  bit-for-bit, on present and absent digests alike,
* **query latency** — an indexed ``query(complexity_band=...)`` over the full
  library, reading the shards' index columns and returning lazy handles
  without decoding a single pattern,
* **concurrent-writer throughput** — several OS processes appending through
  the advisory lock at once; the merged view must stay consistent (gap-free
  ``seq``, every writer's chunks complete) at a usable append rate.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from _bench_utils import FAST_MODE, write_metrics, write_result

from repro.library import ChunkRecord, PatternLibrary, pattern_hash
from repro.squish import SquishPattern

#: Library size for the probe/query phases.  Fast mode keeps the build under
#: a few seconds while staying large enough that a linear rescan visibly
#: loses to the index.
NUM_PATTERNS = 8_000 if FAST_MODE else 100_000
CHUNK_SIZE = 250 if FAST_MODE else 500
NUM_PROBES = 400  # half present, half absent

#: Concurrent-writer phase.
NUM_WRITERS = 4
CHUNKS_PER_WRITER = 4 if FAST_MODE else 16
WRITER_CHUNK_SIZE = 64

_SIZE = 8  # 8x8 topology: 64 bits, enough to encode any pattern id uniquely


def make_pattern(value: int) -> SquishPattern:
    """A unique, deterministic pattern per integer id (bit-encoded topology)."""
    bits = (value >> np.arange(_SIZE * _SIZE)) & 1
    topo = bits.reshape(_SIZE, _SIZE).astype(np.uint8)
    delta = np.full(_SIZE, 32, dtype=np.int64)
    return SquishPattern(topo, delta, delta)


def make_record(chunk: int, patterns: list) -> ChunkRecord:
    return ChunkRecord(
        chunk=chunk,
        start=chunk * CHUNK_SIZE,
        num_sampled=len(patterns),
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


def build_library(root, num_patterns: int) -> list[str]:
    """Append ``num_patterns`` unique patterns; returns their hashes in order."""
    library = PatternLibrary(root, dedup=True, writer="bench")
    hashes: list[str] = []
    for chunk_start in range(0, num_patterns, CHUNK_SIZE):
        chunk = chunk_start // CHUNK_SIZE
        patterns = [
            make_pattern(value + 1)
            for value in range(chunk_start, min(chunk_start + CHUNK_SIZE, num_patterns))
        ]
        library.append_chunk(make_record(chunk, patterns), patterns)
        hashes.extend(pattern_hash(p) for p in patterns)
    return hashes


def linear_probe(all_hashes: list[str], digest: str) -> bool:
    """The v1-style membership check: rescan the full hash list."""
    for candidate in all_hashes:
        if candidate == digest:
            return True
    return False


def writer_worker(root, writer_index: int, barrier) -> None:
    library = PatternLibrary(root, dedup=True, writer=f"w{writer_index}")
    barrier.wait(timeout=120)
    base = writer_index * CHUNKS_PER_WRITER * WRITER_CHUNK_SIZE
    for chunk in range(CHUNKS_PER_WRITER):
        start = base + chunk * WRITER_CHUNK_SIZE
        patterns = [
            make_pattern(1_000_000 + start + offset)
            for offset in range(WRITER_CHUNK_SIZE)
        ]
        library.append_chunk(make_record(chunk, patterns), patterns)


def bench_library_scale(benchmark, tmp_path):
    hashes = build_library(tmp_path / "library", NUM_PATTERNS)
    assert len(hashes) == NUM_PATTERNS

    # Probe set: alternate present digests (spread across the whole library)
    # with absent ones (hashes of ids never appended).
    present = hashes[:: max(1, NUM_PATTERNS // (NUM_PROBES // 2))][: NUM_PROBES // 2]
    absent = [
        pattern_hash(make_pattern(NUM_PATTERNS + 7 + i)) for i in range(NUM_PROBES // 2)
    ]
    probes = [d for pair in zip(present, absent) for d in pair]

    reopened = PatternLibrary(tmp_path / "library")

    def indexed_probes():
        return [reopened.has_pattern(digest) for digest in probes]

    indexed_answers = indexed_probes()  # warm the index (memory-map its files) once
    start = time.perf_counter()
    indexed_answers = benchmark.pedantic(indexed_probes, rounds=1, iterations=1)
    indexed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    linear_answers = [linear_probe(hashes, digest) for digest in probes]
    linear_seconds = time.perf_counter() - start

    probe_agreement = indexed_answers == linear_answers
    probe_speedup = linear_seconds / indexed_seconds if indexed_seconds else None

    # Indexed metadata query over the whole library: lazy handles only.
    start = time.perf_counter()
    handles = reopened.query(complexity_band=(0, 10_000))
    query_seconds = time.perf_counter() - start
    query_handles_per_second = (
        len(handles) / query_seconds if query_seconds else None
    )
    assert len(handles) == NUM_PATTERNS

    # Concurrent writers through the advisory lock.
    concurrent_root = tmp_path / "concurrent"
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(NUM_WRITERS + 1)
    processes = [
        context.Process(target=writer_worker, args=(concurrent_root, index, barrier))
        for index in range(NUM_WRITERS)
    ]
    for process in processes:
        process.start()
    barrier.wait(timeout=120)  # exclude interpreter spawn from the timing
    start = time.perf_counter()
    for process in processes:
        process.join(timeout=300)
    concurrent_seconds = time.perf_counter() - start
    assert all(process.exitcode == 0 for process in processes)

    merged = PatternLibrary(concurrent_root)
    records = merged.records_in_order()
    total_appended = NUM_WRITERS * CHUNKS_PER_WRITER * WRITER_CHUNK_SIZE
    merge_consistent = (
        [record.seq for record in records] == list(range(len(records)))
        and merged.writers == [f"w{i}" for i in range(NUM_WRITERS)]
        and all(
            [r.chunk for r in records if r.writer == f"w{i}"]
            == list(range(CHUNKS_PER_WRITER))
            for i in range(NUM_WRITERS)
        )
        and merged.num_patterns == total_appended
    )
    concurrent_patterns_per_second = (
        total_appended / concurrent_seconds if concurrent_seconds else None
    )

    lines = [
        f"library: {NUM_PATTERNS} unique patterns in chunks of {CHUNK_SIZE} "
        f"(writer 'bench'), probes: {len(probes)} (half present, half absent)",
        "",
        f"linear rescan : {linear_seconds:.4f} s for {len(probes)} probes",
        f"indexed probes: {indexed_seconds:.4f} s for {len(probes)} probes",
        f"probe speedup (linear/indexed): {probe_speedup:.1f}x",
        f"probe agreement with the linear oracle: {probe_agreement}",
        f"band query    : {len(handles)} lazy handles in {query_seconds:.4f} s "
        f"({query_handles_per_second:,.0f} handles/s)",
        f"concurrent    : {NUM_WRITERS} writers x {CHUNKS_PER_WRITER} chunks x "
        f"{WRITER_CHUNK_SIZE} patterns in {concurrent_seconds:.3f} s "
        f"({concurrent_patterns_per_second:,.0f} patterns/s), "
        f"merged view consistent: {merge_consistent}",
    ]
    write_result("library_scale.txt", "\n".join(lines))

    write_metrics(
        "library_scale",
        {
            "fast_mode": FAST_MODE,
            "num_patterns": NUM_PATTERNS,
            "num_probes": len(probes),
            "probe_agreement": probe_agreement,
            "probe_speedup_indexed_over_linear": probe_speedup,
            "indexed_probe_seconds": indexed_seconds,
            "linear_probe_seconds": linear_seconds,
            "query_handles": len(handles),
            "query_seconds": query_seconds,
            "query_handles_per_second": query_handles_per_second,
            "concurrent_writers": NUM_WRITERS,
            "concurrent_patterns": total_appended,
            "concurrent_seconds": concurrent_seconds,
            "concurrent_patterns_per_second": concurrent_patterns_per_second,
            "concurrent_merge_consistent": merge_consistent,
        },
    )

    assert probe_agreement
    assert merge_consistent
