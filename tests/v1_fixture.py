"""Retired pattern-library layouts, importable without pytest.

Nothing in ``src/`` writes these layouts any more; this module keeps the
retired writers so tests (through the ``write_v1_library`` and
``write_v2_library`` fixtures in ``conftest.py``) and CI scripts
(``PYTHONPATH=tests``) can build libraries for
:func:`repro.library.migrate_library` to migrate:

* **v1** — one ``manifest.json`` plus ``shards/shard_<chunk>.npz``;
* **version 2** — one ledger per writer at version 2,
  ``shards/shard_<writer>_<chunk>.npz`` and, per shard, an index sidecar
  ``index/shard_<writer>_<chunk>.idx.npz``.

Both keep their shards in the retired per-pattern codec
(:func:`save_per_pattern_shard`), not the columnar one of ``save_shard``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.library import pattern_hash, topology_hash
from repro.metrics import ComplexityHistogram, pattern_complexity

#: The chunk-record fields a legacy v1 ``manifest.json`` shares with a
#: ledger record; a v1 record adds the ``new_pattern_hashes`` and
#: ``new_topology_hashes`` lists.
V1_FIELDS = (
    "chunk", "start", "num_sampled", "num_kept", "num_rejected", "unsolved",
    "num_patterns", "num_stored", "duplicates_skipped", "num_clean", "shard",
    "topology_complexity_counts", "pattern_complexity_counts", "stats",
)


def save_per_pattern_shard(path, patterns) -> None:
    """The retired shard codec: a ``count`` array plus, for pattern ``i``, its
    ``SquishPattern.as_arrays`` members under a ``p<i>_`` key prefix."""
    arrays = {"count": np.asarray(len(patterns), dtype=np.int64)}
    for index, pattern in enumerate(patterns):
        for key, value in pattern.as_arrays().items():
            arrays[f"p{index}_{key}"] = value
    np.savez_compressed(path, **arrays)


def write_v1_library(root, chunks, dedup: bool = False, fingerprint=None) -> Path:
    """Write a legacy v1 library: ``shards/shard_<chunk>.npz`` + ``manifest.json``.

    ``chunks`` is a sequence of ``(ChunkRecord, patterns)`` pairs, appended in
    order with the retired single-manifest writer's accounting: in-memory
    pattern/topology hash sets, dedup against them, and the hashes each
    chunk introduced inlined into its manifest entry.  The records' storage
    fields (``num_stored``, ``duplicates_skipped``, ``shard``) are mutated
    in place, exactly as that writer's ``append_chunk`` did.
    """
    root = Path(root)
    pattern_hashes: set[str] = set()
    topology_hashes: set[str] = set()
    entries = []
    for record, patterns in chunks:
        stored, skipped, new_patterns, new_topologies = [], 0, [], []
        for pattern in patterns:
            digest = pattern_hash(pattern)
            if dedup and digest in pattern_hashes:
                skipped += 1
                continue
            if digest not in pattern_hashes:
                new_patterns.append(digest)
                pattern_hashes.add(digest)
            topo_digest = topology_hash(pattern.topology)
            if topo_digest not in topology_hashes:
                new_topologies.append(topo_digest)
                topology_hashes.add(topo_digest)
            stored.append(pattern)
        record.num_stored = len(stored)
        record.duplicates_skipped = skipped
        record.shard = f"shard_{record.chunk:05d}.npz" if stored else None
        if stored:
            (root / "shards").mkdir(parents=True, exist_ok=True)
            save_per_pattern_shard(root / "shards" / record.shard, stored)
        entry = {key: getattr(record, key) for key in V1_FIELDS}
        entry["new_pattern_hashes"] = new_patterns
        entry["new_topology_hashes"] = new_topologies
        entries.append(entry)
    payload = {
        "version": 1,
        "fingerprint": dict(fingerprint or {}),
        "dedup": bool(dedup),
        "chunks": sorted(entries, key=lambda entry: entry["chunk"]),
    }
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return root


def write_v2_library(root, appends, dedup: bool = False, fingerprints=None) -> Path:
    """Write a version-2 library: ledgers, per-pattern shards and sidecars.

    ``appends`` is a sequence of ``(writer, ChunkRecord, patterns)`` triples,
    committed in order with the version-2 store's accounting: a gap-free
    ``seq`` across writers, dedup against every earlier append and within
    the chunk, the introduced counts, and a record narrowed to the patterns
    it stores when dedup skips some.  Each shard's sidecar holds the
    ``pattern_hash``, ``topology_hash``, ``cx`` and ``cy`` columns; a record
    carrying ``pattern_sources`` also gets the ``source``/``clean`` columns
    older serve appends wrote there.  ``fingerprints`` maps writer ids to
    their run fingerprints.  Records are mutated in place.
    """
    root = Path(root)
    pattern_hashes: set[str] = set()
    topology_hashes: set[str] = set()
    ledgers: dict[str, list[dict]] = {}
    for seq, (writer, record, patterns) in enumerate(appends):
        digests = [pattern_hash(p) for p in patterns]
        kept = [
            i for i, digest in enumerate(digests)
            if not (dedup and (digest in pattern_hashes or digest in digests[:i]))
        ]
        stored = [patterns[i] for i in kept]
        stored_hashes = [digests[i] for i in kept]
        topologies = [topology_hash(p.topology) for p in stored]
        complexities = [pattern_complexity(p) for p in stored]
        record.num_new_patterns = len(set(stored_hashes) - pattern_hashes)
        record.num_new_topologies = len(set(topologies) - topology_hashes)
        pattern_hashes.update(stored_hashes)
        topology_hashes.update(topologies)
        if len(kept) < len(patterns):
            record.pattern_complexity_counts = ComplexityHistogram(complexities).as_records()
            if record.pattern_clean:
                record.pattern_clean = [record.pattern_clean[i] for i in kept]
                record.num_clean = sum(1 for clean in record.pattern_clean if clean)
            else:
                record.num_clean = min(record.num_clean, len(kept))
            if record.pattern_sources:
                record.pattern_sources = [record.pattern_sources[i] for i in kept]
        record.num_stored, record.duplicates_skipped = len(kept), len(patterns) - len(kept)
        record.seq, record.writer, record.shard_start = seq, writer, 0
        record.shard = f"shard_{writer}_{record.chunk:05d}.npz" if stored else None
        if stored:
            (root / "shards").mkdir(parents=True, exist_ok=True)
            (root / "index").mkdir(parents=True, exist_ok=True)
            save_per_pattern_shard(root / "shards" / record.shard, stored)
            sidecar = {
                "pattern_hash": np.asarray(stored_hashes, dtype="S40"),
                "topology_hash": np.asarray(topologies, dtype="S40"),
                "cx": np.asarray([c[0] for c in complexities], dtype=np.int64),
                "cy": np.asarray([c[1] for c in complexities], dtype=np.int64),
            }
            if record.pattern_sources:
                sidecar["source"] = np.asarray(record.pattern_sources, dtype=np.int64)
                sidecar["clean"] = np.asarray(record.pattern_clean, dtype=np.uint8)
            stem = record.shard[: -len(".npz")]
            np.savez_compressed(root / "index" / f"{stem}.idx.npz", **sidecar)
        ledgers.setdefault(writer, []).append(record.as_dict())
    (root / "manifests").mkdir(parents=True, exist_ok=True)
    for writer, chunks in ledgers.items():
        payload = {
            "version": 2,
            "writer": writer,
            "fingerprint": dict((fingerprints or {}).get(writer, {})),
            "dedup": bool(dedup),
            "chunks": chunks,
        }
        (root / "manifests" / f"{writer}.json").write_text(
            json.dumps(payload, sort_keys=True) + "\n"
        )
    return root
