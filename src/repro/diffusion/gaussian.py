"""Continuous (Gaussian) DDPM baseline for the discrete-vs-continuous ablation.

Section III-C of the paper argues that treating the binary topology as a
grayscale image, running a standard Gaussian diffusion model and thresholding
the output wastes model capacity.  This module implements exactly that
"naive idea" so the ablation benchmark can compare it against the discrete
formulation on equal footing: same U-Net backbone, same schedule length, the
only difference being the continuous state space plus a final threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..nn import UNet, UNetConfig
from ..nn import functional as F
from ..utils import as_rng


@dataclass
class GaussianDiffusionConfig:
    """Standard DDPM hyper-parameters (linear variance schedule)."""

    num_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    learning_rate: float = 2e-4
    grad_clip: float = 1.0


class GaussianTopologyDiffusion:
    """DDPM over topology tensors mapped to ``[-1, 1]`` plus a 0-threshold."""

    def __init__(self, model: UNet, config: "GaussianDiffusionConfig | None" = None) -> None:
        self.config = config if config is not None else GaussianDiffusionConfig()
        if model.config.num_classes != 1:
            raise ValueError("the Gaussian baseline needs a UNet with num_classes=1")
        self.model = model
        cfg = self.config
        self.betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.num_steps, dtype=np.float64)
        self.alphas = 1.0 - self.betas
        self.alpha_bars = np.cumprod(self.alphas)

    # -- helpers ---------------------------------------------------------- #
    @staticmethod
    def _to_continuous(x0: np.ndarray) -> np.ndarray:
        return (np.asarray(x0, dtype=np.float32) * 2.0) - 1.0

    @staticmethod
    def _to_binary(x: np.ndarray) -> np.ndarray:
        return (np.asarray(x) > 0.0).astype(np.int64)

    def _predict_eps(self, x: np.ndarray, k: int) -> np.ndarray:
        timesteps = np.full(x.shape[0], k, dtype=np.int64)
        # UNet emits (N, C, 1, M, M); drop the singleton class axis.
        return self.model.infer(x, timesteps)[:, :, 0]

    # -- training ---------------------------------------------------------- #
    def loss(
        self, x0: np.ndarray, rng: "int | np.random.Generator | None" = None, k: "int | None" = None
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Simple DDPM noise-prediction MSE loss: ``(reverse pass, metrics)``.

        Mirrors :meth:`DiscreteDiffusion.loss`; ``k`` must lie in
        ``[1, num_steps]`` (``IndexError`` otherwise).
        """
        gen = as_rng(rng)
        num_steps = self.config.num_steps
        x0_cont = self._to_continuous(x0)
        step = int(gen.integers(1, num_steps + 1)) if k is None else int(k)
        if not 1 <= step <= num_steps:
            raise IndexError(f"k={step} outside [1, {num_steps}]")
        alpha_bar = self.alpha_bars[step - 1]
        noise = gen.standard_normal(x0_cont.shape).astype(np.float32)
        # float32 scales keep xk float32: NumPy 2 promotes float64 scalars.
        scale_x0 = np.float32(np.sqrt(alpha_bar))
        scale_noise = np.float32(np.sqrt(1.0 - alpha_bar))
        xk = scale_x0 * x0_cont + scale_noise * noise
        timesteps = np.full(xk.shape[0], step, dtype=np.int64)
        cache: list = []
        # UNet emits (N, C, 1, M, M); the loss sees the singleton class axis dropped.
        out = self.model.infer(xk, timesteps, cache, train=True)
        mse, grad = F.mse_loss(out.reshape(noise.shape), noise)

        def backward() -> None:
            self.model.backward(grad.reshape(out.shape), cache)

        return backward, {"loss": mse, "step": float(step)}

    def fit(
        self,
        dataset: np.ndarray,
        iterations: int,
        batch_size: int = 16,
        rng: "int | np.random.Generator | None" = None,
    ) -> list[dict[str, float]]:
        """Train the noise predictor; mirrors :meth:`DiscreteDiffusion.fit`."""
        return nn.fit(
            self.loss,
            np.asarray(dataset, dtype=np.int64),
            self.model.parameters(),
            iterations,
            batch_size,
            as_rng(rng),
            lr=self.config.learning_rate,
            grad_clip=self.config.grad_clip,
        )

    # -- sampling ----------------------------------------------------------- #
    def sample(
        self, num_samples: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Ancestral DDPM sampling followed by thresholding to {0, 1}."""
        gen = as_rng(rng)
        cfg = self.model.config
        shape = (num_samples, cfg.in_channels, cfg.image_size, cfg.image_size)
        x = gen.standard_normal(shape).astype(np.float32)
        for step in range(self.config.num_steps, 0, -1):
            alpha = self.alphas[step - 1]
            alpha_bar = self.alpha_bars[step - 1]
            beta = self.betas[step - 1]
            eps = self._predict_eps(x, step)
            mean = (x - beta / np.sqrt(1.0 - alpha_bar) * eps) / np.sqrt(alpha)
            if step > 1:
                noise = gen.standard_normal(shape).astype(np.float32)
                x = mean + np.sqrt(beta) * noise
            else:
                x = mean
        return self._to_binary(x)


def gaussian_unet_config(in_channels: int, image_size: int, **kwargs) -> UNetConfig:
    """Convenience: a U-Net config with a single continuous output class."""
    return UNetConfig(in_channels=in_channels, num_classes=1, image_size=image_size, **kwargs)
