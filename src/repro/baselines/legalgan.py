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

import numpy as np

from ..nn import Adam, Conv2d, Sequential, Sigmoid, SiLU, Tensor
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
    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "LegalGANPostProcessor":
        """Train on (corrupted, clean) pairs built from the real topologies."""
        cfg = self.config
        arr = validate_matrices(matrices).astype(np.float32)
        gen = as_rng(rng if rng is not None else cfg.seed)
        self._model = _DenoisingCNN(cfg.base_channels, gen)
        optimizer = Adam(self._model.parameters(), lr=cfg.learning_rate)
        for _ in range(cfg.iterations):
            idx = gen.integers(0, arr.shape[0], size=min(cfg.batch_size, arr.shape[0]))
            clean = arr[idx]
            flips = (gen.random(clean.shape) < cfg.corruption_rate).astype(np.float32)
            corrupted = np.abs(clean - flips)
            prediction = self._model(Tensor(corrupted[:, None]))
            target = Tensor(clean[:, None])
            diff = prediction - target
            loss = (diff * diff).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
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
