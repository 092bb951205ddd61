"""Unit tests for synthetic data generation and the dataset container."""

import numpy as np
import pytest

from repro.data import (
    DatasetConfig,
    LayoutPatternDataset,
    SyntheticConfig,
    SyntheticLayoutGenerator,
)
from repro.drc import DesignRuleChecker
from repro.legalization import DesignRules
from repro.squish import unfold


class TestSyntheticGenerator:
    def test_patterns_are_drc_clean(self, synthetic_patterns, rules):
        checker = DesignRuleChecker(rules)
        assert checker.legality_rate(synthetic_patterns) == 1.0

    def test_patterns_have_correct_window(self, synthetic_patterns, rules):
        for pattern in synthetic_patterns[:10]:
            assert pattern.width == rules.pattern_size
            assert pattern.height == rules.pattern_size

    def test_patterns_are_non_empty(self, synthetic_patterns):
        assert all(p.topology.sum() > 0 for p in synthetic_patterns)

    def test_library_is_diverse(self, synthetic_patterns):
        shapes = {p.topology.shape for p in synthetic_patterns}
        assert len(shapes) > 3

    def test_generation_is_reproducible(self):
        generator = SyntheticLayoutGenerator()
        a = generator.generate_pattern(rng=7)
        b = generator.generate_pattern(rng=7)
        assert np.array_equal(a.topology, b.topology)
        assert np.array_equal(a.delta_x, b.delta_x)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(min_intervals=1)
        with pytest.raises(ValueError):
            SyntheticConfig(min_shapes=5, max_shapes=2)

    def test_interval_count_respects_minimum_spacing(self):
        rules = DesignRules(space_min=200, width_min=200, pattern_size=1000)
        config = SyntheticConfig(rules=rules, min_intervals=6, max_intervals=6)
        generator = SyntheticLayoutGenerator(config)
        with pytest.raises(ValueError):
            generator.generate_pattern(rng=0)

    def test_generate_layouts_decodes(self):
        generator = SyntheticLayoutGenerator()
        layouts = [pattern.to_layout() for pattern in generator.generate_library(3, rng=0)]
        assert all(layout.num_polygons >= 1 for layout in layouts)


class TestDatasetConfig:
    def test_tensor_size(self):
        assert DatasetConfig(matrix_size=32, channels=16).tensor_size == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(matrix_size=0)
        with pytest.raises(ValueError):
            DatasetConfig(channels=3)
        with pytest.raises(ValueError):
            DatasetConfig(matrix_size=10, channels=16)
        with pytest.raises(ValueError):
            DatasetConfig(test_fraction=1.5)


class TestLayoutPatternDataset:
    def test_split_sizes(self, tiny_dataset):
        total = len(tiny_dataset)
        assert len(tiny_dataset.train_indices) + len(tiny_dataset.test_indices) == total
        assert len(tiny_dataset.test_indices) == int(round(total * tiny_dataset.config.test_fraction))

    def test_splits_are_disjoint(self, tiny_dataset):
        assert not set(tiny_dataset.train_indices) & set(tiny_dataset.test_indices)

    def test_matrices_have_fixed_shape(self, tiny_dataset):
        matrices = tiny_dataset.topology_matrices("train")
        size = tiny_dataset.config.matrix_size
        assert matrices.shape[1:] == (size, size)

    def test_tensors_fold_matches_matrices(self, tiny_dataset):
        matrices = tiny_dataset.topology_matrices("train")
        tensors = tiny_dataset.topology_tensors("train")
        assert tensors.shape[1] == tiny_dataset.config.channels
        np.testing.assert_array_equal(unfold(tensors[0]), matrices[0])

    def test_padding_preserves_geometry(self, tiny_dataset):
        for original, padded in zip(tiny_dataset.patterns[:5], tiny_dataset.padded[:5]):
            assert padded.is_equivalent_to(original)

    def test_reference_geometries_sum_to_window(self, tiny_dataset, rules):
        for dx, dy in tiny_dataset.reference_geometries("train")[:5]:
            assert dx.sum() == rules.pattern_size
            assert dy.sum() == rules.pattern_size

    def test_unknown_split_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.topology_matrices("validation")

    def test_synthesize_end_to_end(self):
        dataset = LayoutPatternDataset.synthesize(10, DatasetConfig(matrix_size=16, channels=4), rng=0)
        assert len(dataset) == 10
        assert dataset.topology_tensors("all").shape[0] == 10

    def test_patterns_with_too_many_scanlines_are_skipped(self, synthetic_patterns):
        config = DatasetConfig(matrix_size=4, channels=4)
        dataset = LayoutPatternDataset.from_patterns(synthetic_patterns[:20], config, rng=0)
        assert dataset.skipped > 0
        assert len(dataset) == 20 - dataset.skipped
