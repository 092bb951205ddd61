"""Tests for the continuous (Gaussian) diffusion ablation baseline."""

import numpy as np
import pytest

from repro.diffusion import (
    GaussianDiffusionConfig,
    GaussianTopologyDiffusion,
    gaussian_unet_config,
)
from repro.nn import UNet


def tiny_gaussian_model(num_steps=8):
    cfg = gaussian_unet_config(
        in_channels=4,
        image_size=8,
        model_channels=8,
        channel_mult=(1, 2),
        num_res_blocks=1,
        attention_resolutions=(),
        dropout=0.0,
        seed=0,
    )
    return GaussianTopologyDiffusion(UNet(cfg), GaussianDiffusionConfig(num_steps=num_steps))


class TestGaussianDiffusion:
    def test_requires_single_class_unet(self):
        from repro.nn import UNetConfig

        bad = UNet(
            UNetConfig(
                in_channels=4, num_classes=2, image_size=8, model_channels=8,
                channel_mult=(1, 2), num_res_blocks=1, attention_resolutions=(), dropout=0.0,
            )
        )
        with pytest.raises(ValueError):
            GaussianTopologyDiffusion(bad)

    def test_loss_is_finite(self):
        model = tiny_gaussian_model()
        x0 = np.random.default_rng(0).integers(0, 2, size=(4, 4, 8, 8))
        _, metrics = model.loss(x0, rng=0)
        assert np.isfinite(metrics["loss"])
        assert metrics["loss"] >= 0.0

    @pytest.mark.parametrize("offset", [0, -1, 9], ids=["0", "-1", "K+1"])
    def test_loss_rejects_timestep_outside_chain(self, offset):
        # k=0 and k=-1 used to index alpha_bars[-1] and [-2], the chain's
        # last steps; K+1 raised a bare numpy IndexError.
        model = tiny_gaussian_model(num_steps=8)
        x0 = np.zeros((2, 4, 8, 8), dtype=np.int64)
        with pytest.raises(IndexError, match=rf"k={offset} outside \[1, 8\]"):
            model.loss(x0, rng=0, k=offset)
        for k in (1, 8):
            assert model.loss(x0, rng=0, k=k)[1]["step"] == k

    def test_fit_runs_and_returns_history(self):
        model = tiny_gaussian_model()
        x0 = np.random.default_rng(0).integers(0, 2, size=(8, 4, 8, 8))
        history = model.fit(x0, iterations=3, batch_size=4, rng=0)
        assert len(history) == 3

    def test_sample_is_binary(self):
        model = tiny_gaussian_model(num_steps=4)
        samples = model.sample(2, rng=0)
        assert samples.shape == (2, 4, 8, 8)
        assert set(np.unique(samples)).issubset({0, 1})

    def test_alpha_bars_monotonically_decreasing(self):
        model = tiny_gaussian_model(num_steps=16)
        assert (np.diff(model.alpha_bars) < 0).all()

    def test_continuous_mapping_roundtrip(self):
        x = np.array([[0, 1], [1, 0]])
        cont = GaussianTopologyDiffusion._to_continuous(x)
        np.testing.assert_array_equal(cont, [[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_array_equal(GaussianTopologyDiffusion._to_binary(cont), x)
