"""Legacy v1 pattern-library fixtures, importable without pytest.

Nothing in ``src/`` writes the v1 layout any more; this module keeps the
retired single-manifest writer so tests (through the ``write_v1_library``
fixture in ``conftest.py``) and CI scripts (``PYTHONPATH=tests``) can build
v1 libraries for :func:`repro.library.migrate_v1_library` to migrate.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.library import pattern_hash, save_shard, topology_hash

#: The chunk-record fields a legacy v1 ``manifest.json`` shares with a
#: ledger record; a v1 record adds the ``new_pattern_hashes`` and
#: ``new_topology_hashes`` lists.
V1_FIELDS = (
    "chunk", "start", "num_sampled", "num_kept", "num_rejected", "unsolved",
    "num_patterns", "num_stored", "duplicates_skipped", "num_clean", "shard",
    "topology_complexity_counts", "pattern_complexity_counts", "stats",
)


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
            save_shard(root / "shards" / record.shard, stored)
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
