"""Unit tests for complexity, diversity and validity metrics."""

import numpy as np
import pytest

from repro.metrics import (
    ComplexityHistogram,
    ValidityConfig,
    ValidityScorer,
    complexity_distribution,
    diversity_from_complexities,
    pattern_complexity,
    pattern_diversity,
    shannon_entropy,
    topology_complexity,
    topology_diversity,
)
from repro.squish import SquishPattern, pad_to_size


class TestComplexity:
    def test_empty_topology_complexity_is_zero(self):
        assert topology_complexity(np.zeros((8, 8), dtype=np.uint8)) == (0, 0)

    def test_single_rectangle_complexity(self):
        topo = np.zeros((8, 8), dtype=np.uint8)
        topo[2:5, 3:6] = 1
        # canonical form has 3 column intervals and 3 row intervals -> (2, 2)
        assert topology_complexity(topo) == (2, 2)

    def test_complexity_invariant_to_padding(self):
        topo = np.zeros((4, 4), dtype=np.uint8)
        topo[1:3, 1:3] = 1
        pattern = SquishPattern(topo, np.full(4, 100), np.full(4, 100))
        padded = pad_to_size(pattern, 16)
        assert pattern_complexity(pattern) == pattern_complexity(padded)

    def test_complexity_counts_direction_separately(self):
        topo = np.zeros((4, 4), dtype=np.uint8)
        topo[:, 1] = 1  # full-height bar: no y scan lines inside
        assert topology_complexity(topo) == (2, 0)

    def test_distribution_sums_to_one(self):
        probs, _, _ = complexity_distribution([(1, 1), (1, 1), (2, 3)])
        assert probs.sum() == pytest.approx(1.0)

    def test_distribution_with_fixed_bins(self):
        probs, xs, ys = complexity_distribution([(0, 0), (3, 3)], bins=8)
        assert probs.shape == (8, 8)
        assert probs[0, 0] == pytest.approx(0.5)
        assert probs[3, 3] == pytest.approx(0.5)

    def test_distribution_empty_raises(self):
        with pytest.raises(ValueError):
            complexity_distribution([])


class TestDiversity:
    def test_shannon_entropy_uniform(self):
        assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(2.0)

    def test_shannon_entropy_delta_is_zero(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_shannon_entropy_rejects_negative(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, -0.5]))

    def test_shannon_entropy_unnormalised_input(self):
        assert shannon_entropy(np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_diversity_from_complexities(self):
        assert diversity_from_complexities([(1, 1), (2, 2)]) == pytest.approx(1.0)
        assert diversity_from_complexities([(1, 1), (1, 1)]) == 0.0
        assert diversity_from_complexities([]) == 0.0

    def test_more_varied_library_has_higher_diversity(self, synthetic_patterns):
        uniform_library = synthetic_patterns[:1] * 20
        varied_library = synthetic_patterns[:20]
        assert pattern_diversity(varied_library) > pattern_diversity(uniform_library)

    def test_topology_diversity_matches_pattern_diversity_for_unit_grid(self):
        topos = [np.zeros((6, 6), dtype=np.uint8) for _ in range(3)]
        topos[1][1:3, 1:3] = 1
        topos[2][0:2, 0:6] = 1
        patterns = [
            SquishPattern(t, np.full(6, 10), np.full(6, 10)) for t in topos
        ]
        assert topology_diversity(topos) == pytest.approx(pattern_diversity(patterns))


class TestValidityScorer:
    def _topologies(self, count, rng):
        data = np.zeros((count, 8, 8), dtype=np.uint8)
        for i in range(count):
            start = rng.integers(0, 6)
            data[i, 2:6, start : start + 2] = 1
        return data

    def test_score_requires_fit(self):
        with pytest.raises(RuntimeError):
            ValidityScorer().score(np.zeros((2, 8, 8), dtype=np.uint8))

    def test_training_data_scores_at_threshold_quantile(self):
        rng = np.random.default_rng(0)
        data = self._topologies(40, rng)
        scorer = ValidityScorer(ValidityConfig(iterations=80, hidden_dim=32, latent_dim=8))
        scorer.fit(data, rng=0)
        score = scorer.score(data)
        assert score >= 0.9

    def test_dissimilar_patterns_score_lower(self):
        rng = np.random.default_rng(0)
        data = self._topologies(40, rng)
        scorer = ValidityScorer(ValidityConfig(iterations=80, hidden_dim=32, latent_dim=8))
        scorer.fit(data, rng=0)
        noise = (np.random.default_rng(1).random((40, 8, 8)) > 0.5).astype(np.uint8)
        assert scorer.score(noise) <= scorer.score(data)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        scorer = ValidityScorer(ValidityConfig(iterations=10, hidden_dim=16, latent_dim=4))
        scorer.fit(self._topologies(10, rng), rng=0)
        with pytest.raises(ValueError):
            scorer.score(np.zeros((2, 4, 4), dtype=np.uint8))

    def test_flatten_validates_rank(self):
        with pytest.raises(ValueError):
            ValidityScorer._flatten(np.zeros((4, 4)))


class TestComplexityHistogram:
    PAIRS = [(3, 2), (1, 1), (3, 2), (0, 5), (1, 1), (3, 2), (7, 0)]

    def test_streaming_diversity_is_bit_identical_to_batch(self):
        histogram = ComplexityHistogram()
        for pair in self.PAIRS:
            histogram.add(*pair)
        # The batch oracle: the entropy over np.unique row counts.
        _, counts = np.unique(np.asarray(self.PAIRS), axis=0, return_counts=True)
        assert histogram.diversity() == shannon_entropy(counts.astype(np.float64))
        assert diversity_from_complexities(self.PAIRS) == histogram.diversity()
        # Insertion order is irrelevant: the counts sort like np.unique rows.
        shuffled = ComplexityHistogram(list(reversed(self.PAIRS)))
        assert shuffled.diversity() == histogram.diversity()

    def test_merge_equals_single_accumulation(self):
        a = ComplexityHistogram(self.PAIRS[:3])
        b = ComplexityHistogram(self.PAIRS[3:])
        assert a.merge(b) == ComplexityHistogram(self.PAIRS)
        assert a.total == len(self.PAIRS)

    def test_counts_and_pairs(self):
        histogram = ComplexityHistogram(self.PAIRS)
        assert histogram.count(3, 2) == 3
        assert histogram.count(9, 9) == 0
        assert histogram.num_distinct == 4
        assert len(histogram) == len(self.PAIRS)
        assert histogram.pairs() == sorted(self.PAIRS)

    def test_empty_histogram(self):
        histogram = ComplexityHistogram()
        assert histogram.diversity() == 0.0
        assert histogram.total == 0
        assert histogram.pairs() == []

    def test_records_roundtrip(self):
        histogram = ComplexityHistogram(self.PAIRS)
        rebuilt = ComplexityHistogram.from_records(histogram.as_records())
        assert rebuilt == histogram
        assert rebuilt.diversity() == histogram.diversity()

    def test_distribution_matches_batch_function(self):
        histogram = ComplexityHistogram(self.PAIRS)
        probs_a, xs_a, ys_a = histogram.distribution(bins=8)
        probs_b, xs_b, ys_b = complexity_distribution(sorted(self.PAIRS), bins=8)
        # The batch oracle: one count per pair on the fixed grid.
        expected = np.zeros((8, 8))
        for cx, cy in self.PAIRS:
            expected[cx, cy] += 1.0
        np.testing.assert_array_equal(probs_a, expected / expected.sum())
        np.testing.assert_array_equal(probs_a, probs_b)
        np.testing.assert_array_equal(xs_a, np.arange(8))
        np.testing.assert_array_equal(xs_a, xs_b)
        np.testing.assert_array_equal(ys_a, ys_b)
        # Without bins the axes are the observed values.
        probs, xs, ys = complexity_distribution(self.PAIRS)
        np.testing.assert_array_equal(xs, [0, 1, 3, 7])
        np.testing.assert_array_equal(ys, [0, 1, 2, 5])
        assert probs[2, 2] == 3 / 7 and probs.sum() == pytest.approx(1.0)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            ComplexityHistogram().add(1, 1, count=0)
