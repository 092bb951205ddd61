"""Shared fixtures for the test suite.

Everything here is deliberately small so the full suite runs in a couple of
minutes on a laptop CPU: tiny topology grids, few diffusion steps, and a few
training iterations — the goal of the unit tests is correctness of each code
path, not sample quality (sample quality is exercised by the benchmarks).
"""

from __future__ import annotations

import numpy as np
import pytest

import v1_fixture
from repro.data import DatasetConfig, LayoutPatternDataset, SyntheticLayoutGenerator
from repro.legalization import DesignRules
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


@pytest.fixture(scope="session")
def write_v1_library():
    """Factory for legacy v1 library fixtures (see :mod:`v1_fixture`)."""
    return v1_fixture.write_v1_library


@pytest.fixture(scope="session")
def write_v2_library():
    """Factory for version-2 library fixtures (see :mod:`v1_fixture`)."""
    return v1_fixture.write_v2_library
