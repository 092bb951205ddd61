"""Unit tests for the discrete transition model (Eq. 5-7, 10-12)."""

import numpy as np
import pytest

from repro.diffusion import (
    DiscreteTransitionModel,
    binary_flip_probability,
    linear_schedule,
    one_hot,
    sample_categorical,
)


@pytest.fixture(scope="module")
def schedule():
    return linear_schedule(16, 0.02, 0.5)


@pytest.fixture(scope="module")
def binary_model(schedule):
    return DiscreteTransitionModel(schedule)


class TestConstruction:
    def test_binary_matrix_matches_paper(self, binary_model, schedule):
        q1 = binary_model.q_matrix(1)
        beta = schedule.beta(1)
        np.testing.assert_allclose(q1, [[1 - beta, beta], [beta, 1 - beta]])

    def test_matrices_are_row_stochastic(self, binary_model):
        for k in range(1, binary_model.num_steps + 1):
            np.testing.assert_allclose(binary_model.q_matrix(k).sum(axis=1), [1.0, 1.0])
            np.testing.assert_allclose(binary_model.q_bar_matrix(k).sum(axis=1), [1.0, 1.0])

    def test_binary_matrix_is_doubly_stochastic(self, binary_model):
        for k in range(1, binary_model.num_steps + 1):
            np.testing.assert_allclose(binary_model.q_matrix(k).sum(axis=0), [1.0, 1.0])

    def test_cumulative_matches_closed_form(self, binary_model, schedule):
        for k in (0, 1, 8, 16):
            flip = binary_flip_probability(schedule, k)
            np.testing.assert_allclose(binary_model.q_bar_matrix(k)[0, 1], flip, atol=1e-12)

    def test_q_bar_zero_is_identity(self, binary_model):
        np.testing.assert_array_equal(binary_model.q_bar_matrix(0), np.eye(2))

    def test_converges_to_uniform(self, schedule):
        model = DiscreteTransitionModel(linear_schedule(200, 0.01, 0.5))
        final = model.q_bar_matrix(model.num_steps)
        np.testing.assert_allclose(final, np.full((2, 2), 0.5), atol=1e-6)

    def test_index_bounds(self, binary_model):
        with pytest.raises(IndexError):
            binary_model.q_matrix(0)
        with pytest.raises(IndexError):
            binary_model.q_bar_matrix(binary_model.num_steps + 1)


class TestForwardProcess:
    def test_q_probs_shape_and_values(self, binary_model):
        x0 = np.zeros((2, 3), dtype=np.int64)
        probs = binary_model.q_probs(x0, 4)
        assert probs.shape == (2, 3, 2)
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((2, 3)))

    def test_sample_xk_matches_marginal(self, binary_model):
        rng = np.random.default_rng(0)
        x0 = np.zeros(20000, dtype=np.int64)
        k = 5
        samples = binary_model.sample_xk(x0, k, rng)
        expected_flip = binary_model.q_bar_matrix(k)[0, 1]
        assert abs(samples.mean() - expected_flip) < 0.02

    def test_sample_stationary_is_roughly_uniform(self, binary_model):
        samples = binary_model.sample_stationary((10000,), rng=1)
        assert abs(samples.mean() - 0.5) < 0.03

    def test_state_validation(self, binary_model):
        with pytest.raises(ValueError):
            binary_model.q_probs(np.array([0, 2]), 1)
        with pytest.raises(ValueError):
            binary_model.q_probs(np.array([0.5]), 1)


class TestPosterior:
    def test_posterior_is_distribution(self, binary_model):
        rng = np.random.default_rng(0)
        x0 = rng.integers(0, 2, size=(4, 4))
        xk = binary_model.sample_xk(x0, 6, rng)
        post = binary_model.posterior_probs(xk, x0, 6)
        np.testing.assert_allclose(post.sum(axis=-1), np.ones((4, 4)), rtol=1e-10)
        assert (post >= 0).all()

    def test_posterior_at_k1_is_delta_on_x0(self, binary_model):
        x0 = np.array([0, 1, 1, 0])
        xk = np.array([1, 1, 0, 0])
        post = binary_model.posterior_probs(xk, x0, 1)
        np.testing.assert_allclose(post[np.arange(4), x0], np.ones(4))

    def test_chapman_kolmogorov_identity(self, binary_model):
        # The posterior's normalising constant is exactly the one-step
        # Chapman-Kolmogorov identity:
        #   sum_s Q_k[s, xk] * Qbar_{k-1}[x0, s] == Qbar_k[x0, xk]
        for k in (2, 7, 16):
            q_k = binary_model.q_matrix(k)
            q_bar_prev = binary_model.q_bar_matrix(k - 1)
            q_bar_k = binary_model.q_bar_matrix(k)
            for x0_val in (0, 1):
                for xk_val in (0, 1):
                    total = sum(
                        q_k[s, xk_val] * q_bar_prev[x0_val, s] for s in range(2)
                    )
                    assert total == pytest.approx(q_bar_k[x0_val, xk_val], rel=1e-10)

    def test_posterior_all_x0_matches_individual(self, binary_model):
        rng = np.random.default_rng(1)
        xk = rng.integers(0, 2, size=(3, 3))
        # The gather the loss and the sampler use: [..., x_0, x_{k-1}].
        all_post = binary_model.posterior_table(5)[xk]
        for clean_state in (0, 1):
            x0 = np.full_like(xk, clean_state)
            individual = binary_model.posterior_probs(xk, x0, 5)
            np.testing.assert_allclose(all_post[..., clean_state, :], individual)


class TestHelpers:
    def test_one_hot_roundtrip(self):
        states = np.array([[0, 1], [1, 0]])
        encoded = one_hot(states, 2)
        assert encoded.shape == (2, 2, 2)
        np.testing.assert_array_equal(encoded.argmax(axis=-1), states)

    def test_one_hot_range_check(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 2]), 2)

    def test_sample_categorical_respects_probabilities(self):
        rng = np.random.default_rng(0)
        probs = np.tile(np.array([0.9, 0.1]), (50000, 1))
        samples = sample_categorical(probs, rng)
        assert abs(samples.mean() - 0.1) < 0.01

    def test_sample_categorical_deterministic_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.tile(np.array([0.0, 1.0, 0.0]), (100, 1))
        samples = sample_categorical(probs, rng)
        assert (samples == 1).all()
