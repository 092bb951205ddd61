"""Shared fixtures for the test suite.

Everything here is deliberately small so the full suite runs in a couple of
minutes on a laptop CPU: tiny topology grids, few diffusion steps, and a few
training iterations — the goal of the unit tests is correctness of each code
path, not sample quality (sample quality is exercised by the benchmarks).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import DatasetConfig, LayoutPatternDataset, SyntheticLayoutGenerator
from repro.legalization import DesignRules
from repro.library import pattern_hash, save_shard, topology_hash
from repro.pipeline import DiffPatternConfig, DiffPatternPipeline


@pytest.fixture(scope="session")
def rules() -> DesignRules:
    """The default design-rule set used across tests."""
    return DesignRules()


@pytest.fixture(scope="session")
def small_rules() -> DesignRules:
    """A rule set matched to small (512 nm) test windows."""
    return DesignRules(space_min=20, width_min=20, area_min=500, area_max=80_000, pattern_size=512)


@pytest.fixture(scope="session")
def synthetic_patterns(rules):
    """A reusable library of DRC-clean synthetic squish patterns."""
    generator = SyntheticLayoutGenerator()
    return generator.generate_library(60, rng=1234)


@pytest.fixture(scope="session")
def tiny_dataset(synthetic_patterns):
    """Dataset with 16x16 padded matrices and 4 deep-squish channels."""
    config = DatasetConfig(matrix_size=16, channels=4)
    return LayoutPatternDataset.from_patterns(synthetic_patterns, config, rng=0)


@pytest.fixture(scope="session")
def two_shape_topology() -> np.ndarray:
    """A simple 8x8 topology with two separated rectangles."""
    topo = np.zeros((8, 8), dtype=np.uint8)
    topo[1:4, 1:4] = 1
    topo[5:7, 2:7] = 1
    return topo


@pytest.fixture(scope="session")
def trained_tiny_pipeline(tiny_dataset):
    """A DiffPattern pipeline with a briefly-trained tiny diffusion model.

    Ten training iterations are enough to exercise the full train/sample/
    legalise path; tests must not assume the samples are high quality.
    """
    config = DiffPatternConfig.tiny()
    pipeline = DiffPatternPipeline(config)
    pipeline.prepare_data(dataset=tiny_dataset)
    pipeline.train(iterations=10, rng=0)
    return pipeline


#: The chunk-record fields of a legacy v1 ``manifest.json``.
V1_FIELDS = (
    "chunk", "start", "num_sampled", "num_kept", "num_rejected", "unsolved",
    "num_patterns", "num_stored", "duplicates_skipped", "num_clean", "shard",
    "topology_complexity_counts", "pattern_complexity_counts",
    "new_pattern_hashes", "new_topology_hashes", "stats",
)


def _write_v1_library(root, chunks, dedup: bool = False, fingerprint=None) -> Path:
    """Write a legacy v1 library: ``shards/shard_<chunk>.npz`` + ``manifest.json``.

    ``chunks`` is a sequence of ``(ChunkRecord, patterns)`` pairs, appended in
    order with the retired single-manifest writer's accounting: in-memory
    pattern/topology hash sets, dedup against them, and the hashes each
    chunk introduced inlined into its record.  The records are mutated in
    place, exactly as that writer's ``append_chunk`` did.
    """
    root = Path(root)
    pattern_hashes: set[str] = set()
    topology_hashes: set[str] = set()
    records = []
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
        record.new_pattern_hashes = new_patterns
        record.new_topology_hashes = new_topologies
        record.shard = f"shard_{record.chunk:05d}.npz" if stored else None
        if stored:
            (root / "shards").mkdir(parents=True, exist_ok=True)
            save_shard(root / "shards" / record.shard, stored)
        records.append(record)
    payload = {
        "version": 1,
        "fingerprint": dict(fingerprint or {}),
        "dedup": bool(dedup),
        "chunks": [
            {key: getattr(record, key) for key in V1_FIELDS}
            for record in sorted(records, key=lambda r: r.chunk)
        ],
    }
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return root


@pytest.fixture(scope="session")
def write_v1_library():
    """Factory for legacy v1 library fixtures (see :func:`_write_v1_library`)."""
    return _write_v1_library
