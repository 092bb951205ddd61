"""LegalGAN-style learned legalisation post-processor (ref. [8]).

The original LegalGAN learns to *modify* a generated topology so that it
better resembles legal training topologies.  Here the same idea is realised
as a denoising convolutional network: training pairs are built by corrupting
clean training topologies (random bit flips, which introduce bow-ties,
slivers and orphan pixels), and the network learns to map the corrupted
matrix back to the clean one.  At inference it is applied to a baseline
generator's raw output and the result is re-binarised.

As in the paper's Table I, this learned post-processing raises legality
substantially but tends to homogenise patterns, lowering diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..nn import Conv2d, Sequential, Sigmoid, SiLU
from ..nn import functional as F
from ..utils import as_rng
from .base import TopologyGenerator, validate_matrices


class _DenoisingCNN(Sequential):
    """A small fully-convolutional cleanup network with a sigmoid output."""

    def __init__(self, base_channels: int, rng) -> None:
        super().__init__(
            Conv2d(1, base_channels, 3, padding=1, rng=rng),
            SiLU(),
            Conv2d(base_channels, base_channels, 3, padding=1, rng=rng),
            SiLU(),
            Conv2d(base_channels, base_channels, 3, padding=1, rng=rng),
            SiLU(),
            Conv2d(base_channels, 1, 3, padding=1, rng=rng),
            Sigmoid(),
        )


@dataclass
class LegalGANConfig:
    """Training hyper-parameters of the legalisation network."""

    base_channels: int = 16
    iterations: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    corruption_rate: float = 0.08
    threshold: float = 0.5
    seed: int = 0


class LegalGANPostProcessor:
    """Learned topology cleanup applied after a baseline generator."""

    name = "LegalGAN"

    def __init__(self, config: "LegalGANConfig | None" = None) -> None:
        self.config = config if config is not None else LegalGANConfig()
        self._model: "_DenoisingCNN | None" = None

    # ------------------------------------------------------------------ #
    def loss(
        self, clean: np.ndarray, rng: np.random.Generator
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Corrupt ``clean`` with random bit flips: ``(reverse pass, metrics)`` of the cleanup MSE."""
        flips = (rng.random(clean.shape) < self.config.corruption_rate).astype(np.float32)
        corrupted = np.abs(clean - flips)
        cache: list = []
        prediction = self._model.infer(corrupted[:, None], cache, True)
        value, grad = F.mse_loss(prediction, clean[:, None])

        def backward() -> None:
            self._model.backward(grad, cache, input_grad=False)

        return backward, {"loss": value}

    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "LegalGANPostProcessor":
        """Train on (corrupted, clean) pairs built from the real topologies."""
        cfg = self.config
        arr = validate_matrices(matrices).astype(np.float32)
        gen = as_rng(rng if rng is not None else cfg.seed)
        self._model = _DenoisingCNN(cfg.base_channels, gen)
        nn.fit(
            self.loss, arr, self._model.parameters(), cfg.iterations,
            cfg.batch_size, gen, lr=cfg.learning_rate,
        )
        return self

    def legalize(self, matrices: np.ndarray) -> np.ndarray:
        """Clean up a batch of generated topologies."""
        if self._model is None:
            raise RuntimeError("fit must be called before legalize")
        arr = validate_matrices(matrices).astype(np.float32)
        cfg = self.config
        outputs = []
        for start in range(0, arr.shape[0], cfg.batch_size):
            chunk = arr[start : start + cfg.batch_size]
            probs = self._model.infer(chunk[:, None])[:, 0]
            outputs.append((probs > cfg.threshold).astype(np.uint8))
        return np.concatenate(outputs, axis=0)


class LegalizedGenerator(TopologyGenerator):
    """A base generator followed by the LegalGAN post-processor.

    Covers the ``CAE+LegalGAN`` and ``VCAE+LegalGAN`` rows of Table I.
    """

    def __init__(self, base: TopologyGenerator, post: LegalGANPostProcessor) -> None:
        self.base = base
        self.post = post
        self.name = f"{base.name}+LegalGAN"

    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "LegalizedGenerator":
        gen = as_rng(rng)
        self.base.fit(matrices, rng=gen)
        self.post.fit(matrices, rng=gen)
        return self

    def generate(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        gen = as_rng(rng)
        raw = self.base.generate(count, rng=gen)
        return self.post.legalize(raw)
