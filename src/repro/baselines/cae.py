"""Convolutional auto-encoder baseline (CAE, ref. [7] "DeePattern").

A pixel-based generator: a convolutional encoder/decoder is trained to
reconstruct training topologies; new patterns are synthesised by perturbing
the latent codes of training samples and decoding, then thresholding the
continuous output at 0.5.  The thresholding step is exactly what the paper
criticises — the model has to *learn* discreteness, and the perturbed
latents easily decode to topologies that violate design rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..nn import Conv2d, Linear, Module, Sigmoid, SiLU
from ..nn import functional as F
from ..utils import as_rng
from .base import TopologyGenerator, validate_matrices


def binarize(probs: np.ndarray, threshold: "float | None", train_fill: float) -> np.ndarray:
    """Binarise decoder probabilities.

    With a fixed ``threshold`` the comparison is element-wise; with
    ``threshold=None`` each sample is thresholded at its own
    ``(1 - train_fill)`` quantile so the output density matches the training
    data, which keeps an under-trained decoder from collapsing to empty clips.
    """
    if threshold is not None:
        return (probs > threshold).astype(np.uint8)
    flat = probs.reshape(probs.shape[0], -1)
    cutoffs = np.quantile(flat, 1.0 - train_fill, axis=1, keepdims=True)
    return (flat > cutoffs).astype(np.uint8).reshape(probs.shape)


class ConvEncoder(Module):
    """Two stride-2 conv blocks followed by a dense projection to the latent."""

    def __init__(self, size: int, base_channels: int, latent_dim: int, rng) -> None:
        super().__init__()
        if size % 4:
            raise ValueError("matrix size must be divisible by 4")
        self.conv1 = Conv2d(1, base_channels, 3, stride=2, padding=1, rng=rng)
        self.conv2 = Conv2d(base_channels, base_channels * 2, 3, stride=2, padding=1, rng=rng)
        self.act = SiLU()
        self.hidden_shape = (base_channels * 2, size // 4, size // 4)
        self.proj = Linear(math.prod(self.hidden_shape), latent_dim, rng=rng)

    def infer(self, x: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        hidden = self.act.infer(self.conv1.infer(x, cache), cache)
        hidden = self.act.infer(self.conv2.infer(hidden, cache), cache)
        return self.proj.infer(hidden.reshape(hidden.shape[0], -1), cache)

    def backward(
        self, grad: np.ndarray, cache: list, input_grad: bool = True
    ) -> "np.ndarray | None":
        grad = self.proj.backward(grad, cache).reshape(grad.shape[0], *self.hidden_shape)
        grad = self.conv2.backward(self.act.backward(grad, cache), cache)
        return self.conv1.backward(self.act.backward(grad, cache), cache, input_grad)


class ConvDecoder(Module):
    """Dense expansion followed by two upsample+conv blocks and a sigmoid head."""

    def __init__(self, size: int, base_channels: int, latent_dim: int, rng) -> None:
        super().__init__()
        self.hidden_shape = (base_channels * 2, size // 4, size // 4)
        self.expand = Linear(latent_dim, math.prod(self.hidden_shape), rng=rng)
        self.conv1 = Conv2d(base_channels * 2, base_channels, 3, padding=1, rng=rng)
        self.conv2 = Conv2d(base_channels, base_channels, 3, padding=1, rng=rng)
        self.head = Conv2d(base_channels, 1, 3, padding=1, rng=rng)
        self.act = SiLU()
        self.sigmoid = Sigmoid()

    def infer(self, z: np.ndarray, cache: "list | None" = None, train: bool = False) -> np.ndarray:
        hidden = self.act.infer(self.expand.infer(z, cache), cache)
        hidden = hidden.reshape(z.shape[0], *self.hidden_shape)
        for conv in (self.conv1, self.conv2):
            hidden = self.act.infer(conv.infer(F.upsample_nearest_array(hidden, 2), cache), cache)
        return self.sigmoid.infer(self.head.infer(hidden, cache), cache)

    def backward(self, grad: np.ndarray, cache: list, input_grad: bool = True) -> np.ndarray:
        grad = self.head.backward(self.sigmoid.backward(grad, cache), cache)
        for conv in (self.conv2, self.conv1):
            grad = conv.backward(self.act.backward(grad, cache), cache)
            grad = F.upsample_nearest_backward(grad, 2)
        grad = self.act.backward(grad.reshape(grad.shape[0], -1), cache)
        return self.expand.backward(grad, cache)


@dataclass
class CAEConfig:
    """Training hyper-parameters of the CAE baseline.

    ``threshold=None`` selects an adaptive per-sample threshold such that the
    binarised output has the same fill ratio as the training set — with small
    training budgets a fixed 0.5 threshold degenerates to all-empty clips.
    """

    base_channels: int = 16
    latent_dim: int = 64
    iterations: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    perturbation_scale: float = 1.0
    threshold: "float | None" = 0.5
    seed: int = 0


class CAEGenerator(TopologyGenerator):
    """CAE baseline: reconstruct, perturb latents, decode, threshold."""

    name = "CAE"

    def __init__(self, config: "CAEConfig | None" = None) -> None:
        self.config = config if config is not None else CAEConfig()
        self.encoder: "ConvEncoder | None" = None
        self.decoder: "ConvDecoder | None" = None
        self._train_latents: "np.ndarray | None" = None
        self._train_fill: float = 0.5
        self._size: "int | None" = None

    # ------------------------------------------------------------------ #
    def loss(
        self, batch: np.ndarray, rng: np.random.Generator
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Reconstruction MSE of one batch: ``(reverse pass through both networks, metrics)``."""
        x = batch[:, None].astype(np.float32)
        cache: list = []
        recon = self.decoder.infer(self.encoder.infer(x, cache, True), cache, True)
        value, grad = F.mse_loss(recon, x)

        def backward() -> None:
            self.encoder.backward(self.decoder.backward(grad, cache), cache, input_grad=False)

        return backward, {"loss": value}

    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "CAEGenerator":
        cfg = self.config
        arr = validate_matrices(matrices)
        gen = as_rng(rng if rng is not None else cfg.seed)
        self._size = arr.shape[1]
        self._train_fill = float(arr.mean())
        self.encoder = ConvEncoder(self._size, cfg.base_channels, cfg.latent_dim, gen)
        self.decoder = ConvDecoder(self._size, cfg.base_channels, cfg.latent_dim, gen)
        params = list(self.encoder.parameters()) + list(self.decoder.parameters())
        nn.fit(
            self.loss, arr, params, cfg.iterations, cfg.batch_size, gen,
            lr=cfg.learning_rate,
        )
        # Cache latent codes of the whole training set for perturbation sampling.
        latents = []
        for start in range(0, arr.shape[0], cfg.batch_size):
            chunk = arr[start : start + cfg.batch_size]
            latents.append(self.encoder.infer(chunk[:, None].astype(np.float32)))
        self._train_latents = np.concatenate(latents, axis=0)
        return self

    def generate(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        if self.decoder is None or self._train_latents is None:
            raise RuntimeError("fit must be called before generate")
        cfg = self.config
        gen = as_rng(rng)
        latent_std = self._train_latents.std(axis=0, keepdims=True) + 1e-6
        outputs = []
        for start in range(0, count, cfg.batch_size):
            batch = min(cfg.batch_size, count - start)
            base = self._train_latents[gen.integers(0, self._train_latents.shape[0], size=batch)]
            noise = gen.standard_normal(base.shape).astype(np.float32)
            z = base + cfg.perturbation_scale * latent_std * noise
            probs = self.decoder.infer(z.astype(np.float32))[:, 0]
            outputs.append(binarize(probs, cfg.threshold, self._train_fill))
        return np.concatenate(outputs, axis=0)
