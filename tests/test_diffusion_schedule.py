"""Unit tests for noise schedules."""

import numpy as np
import pytest

from repro.diffusion import NoiseSchedule, linear_schedule


class TestNoiseSchedule:
    def test_valid_schedule(self):
        schedule = NoiseSchedule(np.array([0.1, 0.2, 0.3]))
        assert schedule.num_steps == 3
        assert schedule.beta(2) == pytest.approx(0.2)

    def test_rejects_out_of_range_betas(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.5, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([]))

    def test_beta_index_bounds(self):
        schedule = NoiseSchedule(np.array([0.1, 0.2]))
        with pytest.raises(IndexError):
            schedule.beta(0)
        with pytest.raises(IndexError):
            schedule.beta(3)


class TestLinearSchedule:
    def test_matches_paper_equation(self):
        # Eq. (8): beta_k = (k-1)(beta_K - beta_1)/(K-1) + beta_1
        schedule = linear_schedule(1000, 0.01, 0.5)
        assert schedule.beta(1) == pytest.approx(0.01)
        assert schedule.beta(1000) == pytest.approx(0.5)
        assert schedule.beta(500) == pytest.approx((499) * (0.49) / 999 + 0.01)

    def test_monotonically_increasing(self):
        schedule = linear_schedule(64)
        assert (np.diff(schedule.betas) > 0).all()

    def test_single_step_schedule(self):
        schedule = linear_schedule(1, 0.01, 0.5)
        assert schedule.num_steps == 1
        assert schedule.beta(1) == pytest.approx(0.5)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            linear_schedule(0)
