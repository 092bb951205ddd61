"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from legalization_helpers import line_constraints

from repro.diffusion import (
    DiscreteTransitionModel,
    binary_flip_probability,
    linear_schedule,
    one_hot,
    sample_categorical,
)
from repro.geometry import connected_components, has_bowtie
from repro.legalization import DesignRules
from repro.legalization.batched import _round_rows
from repro.metrics import diversity_from_complexities, shannon_entropy, topology_complexity
from repro.squish import SquishPattern, canonicalize, fold, pad_to_size, unfold

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


binary_matrix = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    elements=st.integers(0, 1),
)

square_binary_matrix_8 = hnp.arrays(
    dtype=np.uint8, shape=(8, 8), elements=st.integers(0, 1)
)


class TestSquishProperties:
    @SETTINGS
    @given(square_binary_matrix_8, st.sampled_from([1, 4, 16]))
    def test_fold_unfold_roundtrip(self, matrix, channels):
        assert np.array_equal(unfold(fold(matrix, channels)), matrix)

    @SETTINGS
    @given(square_binary_matrix_8, st.integers(9, 20))
    def test_padding_preserves_geometry(self, matrix, size):
        pattern = SquishPattern(matrix, np.full(8, 64, dtype=np.int64), np.full(8, 64, dtype=np.int64))
        padded = pad_to_size(pattern, size)
        assert padded.topology.shape == (size, size)
        assert padded.is_equivalent_to(pattern)
        assert padded.width == pattern.width
        assert padded.height == pattern.height

    @SETTINGS
    @given(square_binary_matrix_8)
    def test_canonicalize_is_idempotent_and_equivalent(self, matrix):
        pattern = SquishPattern(matrix, np.full(8, 10, dtype=np.int64), np.full(8, 10, dtype=np.int64))
        canonical = canonicalize(pattern)
        assert canonical.is_equivalent_to(pattern)
        again = canonicalize(canonical)
        assert np.array_equal(canonical.topology, again.topology)

    @SETTINGS
    @given(square_binary_matrix_8)
    def test_squish_layout_roundtrip(self, matrix):
        pattern = SquishPattern(matrix, np.full(8, 32, dtype=np.int64), np.full(8, 32, dtype=np.int64))
        rebuilt = SquishPattern.from_layout(pattern.to_layout())
        assert rebuilt.is_equivalent_to(pattern)

    @SETTINGS
    @given(square_binary_matrix_8)
    def test_complexity_bounded_by_matrix_size(self, matrix):
        cx, cy = topology_complexity(matrix)
        assert 0 <= cx < matrix.shape[1]
        assert 0 <= cy < matrix.shape[0]


class TestGridProperties:
    @SETTINGS
    @given(binary_matrix)
    def test_component_count_bounds(self, matrix):
        _, count = connected_components(matrix)
        assert 0 <= count <= int(matrix.sum())

    @SETTINGS
    @given(binary_matrix)
    def test_bowtie_invariant_under_transpose(self, matrix):
        assert has_bowtie(matrix) == has_bowtie(matrix.T)

    @SETTINGS
    @given(binary_matrix)
    def test_constraint_extraction_totals(self, matrix):
        constraints = line_constraints(matrix, width_min=30, space_min=30)
        # every polygon cell count is positive and cells are unique
        total_cells = sum(len(cells) for cells in constraints.polygons)
        assert total_cells == int(matrix.sum())
        for _, start, end, _ in constraints.intervals:
            assert 0 <= start <= end


class TestTransitionProperties:
    @SETTINGS
    @given(st.integers(2, 64), st.integers(0, 1))
    def test_cumulative_matrix_matches_closed_form(self, steps, state):
        schedule = linear_schedule(steps, 0.01, 0.5)
        model = DiscreteTransitionModel(schedule)
        for k in (0, steps // 2, steps):
            expected = binary_flip_probability(schedule, k)
            assert model.q_bar_matrix(k)[state, 1 - state] == pytest.approx(expected, abs=1e-12)

    @SETTINGS
    @given(
        hnp.arrays(dtype=np.int64, shape=(3, 5), elements=st.integers(0, 1)),
        st.integers(1, 16),
    )
    def test_posterior_rows_are_distributions(self, x0, k):
        model = DiscreteTransitionModel(linear_schedule(16, 0.02, 0.5))
        xk = model.sample_xk(x0, k, rng=0)
        post = model.posterior_probs(xk, x0, k)
        assert (post >= -1e-12).all()
        np.testing.assert_allclose(post.sum(axis=-1), np.ones_like(post.sum(axis=-1)), rtol=1e-9)

    @SETTINGS
    @given(hnp.arrays(dtype=np.int64, shape=(4, 4), elements=st.integers(0, 1)))
    def test_one_hot_inverse(self, states):
        encoded = one_hot(states, 2)
        np.testing.assert_array_equal(encoded.argmax(axis=-1), states)
        np.testing.assert_allclose(encoded.sum(axis=-1), np.ones_like(states, dtype=np.float32))

    @SETTINGS
    @given(st.integers(0, 2**31 - 1))
    def test_sample_categorical_outputs_valid_states(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4), size=(6,))
        samples = sample_categorical(probs, rng)
        assert ((samples >= 0) & (samples < 4)).all()


class TestMetricProperties:
    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=60))
    def test_diversity_bounds(self, complexities):
        diversity = diversity_from_complexities(complexities)
        distinct = len(set(complexities))
        assert 0.0 <= diversity <= np.log2(distinct) + 1e-9

    @SETTINGS
    @given(hnp.arrays(dtype=np.float64, shape=(8,), elements=st.floats(0.0, 10.0)))
    def test_entropy_non_negative(self, weights):
        assert shannon_entropy(weights) >= 0.0

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30))
    def test_diversity_invariant_to_duplication(self, complexities):
        # Duplicating the whole library does not change the distribution.
        assert diversity_from_complexities(complexities) == pytest.approx(
            diversity_from_complexities(complexities * 2)
        )


class TestSolverHelperProperties:
    @SETTINGS
    @given(
        hnp.arrays(dtype=np.float64, shape=st.integers(2, 16), elements=st.floats(0.1, 500.0)),
        st.integers(100, 4000),
    )
    def test_round_preserving_sum(self, values, total):
        if values.sum() <= 0:
            return
        scaled = values / values.sum() * total
        rounded = _round_rows(scaled[None, :], total)[0]
        assert rounded.sum() == total
        assert (rounded >= 1).all()

    @SETTINGS
    @given(st.integers(10, 500), st.integers(10, 500), st.integers(100, 5000))
    def test_design_rules_validation_property(self, space, width, size):
        rules = DesignRules(space_min=space, width_min=width, pattern_size=size)
        assert rules.space_min == space
        assert rules.with_space_min(space + 1).space_min == space + 1
