"""Autoencoder-based pattern "validity" score (Section IV-F discussion).

Previous work [8] scores generated patterns by how well a pre-trained
encoder–decoder reconstructs them: patterns similar to the training set score
high.  The paper argues this metric rewards overfitting and declines to use
it; we implement it anyway so the discussion can be reproduced quantitatively
(e.g. showing that held-out *real* patterns can score worse than memorised
generated ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..nn import Linear, Sequential, Sigmoid, SiLU
from ..nn import functional as F
from ..utils import as_rng


class _MLPAutoencoder(Sequential):
    """A small fully-connected autoencoder over flattened topology matrices."""

    def __init__(self, input_dim: int, hidden_dim: int, latent_dim: int, rng) -> None:
        encoder = Sequential(
            Linear(input_dim, hidden_dim, rng=rng),
            SiLU(),
            Linear(hidden_dim, latent_dim, rng=rng),
            SiLU(),
        )
        decoder = Sequential(
            Linear(latent_dim, hidden_dim, rng=rng),
            SiLU(),
            Linear(hidden_dim, input_dim, rng=rng),
            Sigmoid(),
        )
        super().__init__(encoder, decoder)


@dataclass
class ValidityConfig:
    """Training configuration of the validity scorer."""

    hidden_dim: int = 128
    latent_dim: int = 32
    iterations: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    threshold_quantile: float = 0.95
    seed: int = 0


class ValidityScorer:
    """Scores how "valid" (training-set-like) generated topologies look.

    ``fit`` trains the autoencoder on training topologies and calibrates a
    reconstruction-error threshold at the configured quantile; ``score``
    returns the fraction of patterns whose error falls below that threshold.
    """

    def __init__(self, config: "ValidityConfig | None" = None) -> None:
        self.config = config if config is not None else ValidityConfig()
        self._model: "_MLPAutoencoder | None" = None
        self._threshold: "float | None" = None
        self._input_dim: "int | None" = None

    # ------------------------------------------------------------------ #
    @staticmethod
    def _flatten(topologies: np.ndarray) -> np.ndarray:
        arr = np.asarray(topologies, dtype=np.float32)
        if arr.ndim != 3:
            raise ValueError(f"expected (N, H, W) topologies, got shape {arr.shape}")
        return arr.reshape(arr.shape[0], -1)

    def _errors(self, flat: np.ndarray) -> np.ndarray:
        assert self._model is not None
        recon = self._model.infer(flat)
        return ((recon - flat) ** 2).mean(axis=1)

    # ------------------------------------------------------------------ #
    def loss(
        self, batch: np.ndarray, rng: np.random.Generator
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Reconstruction MSE of one flattened batch: ``(reverse pass, metrics)``."""
        cache: list = []
        value, grad = F.mse_loss(self._model.infer(batch, cache, True), batch)

        def backward() -> None:
            self._model.backward(grad, cache, input_grad=False)

        return backward, {"loss": value}

    def fit(self, topologies: np.ndarray, rng: "int | np.random.Generator | None" = None) -> "ValidityScorer":
        """Train on real topologies and calibrate the error threshold."""
        cfg = self.config
        gen = as_rng(rng if rng is not None else cfg.seed)
        flat = self._flatten(topologies)
        self._input_dim = flat.shape[1]
        self._model = _MLPAutoencoder(flat.shape[1], cfg.hidden_dim, cfg.latent_dim, gen)
        nn.fit(
            self.loss, flat, self._model.parameters(), cfg.iterations,
            cfg.batch_size, gen, lr=cfg.learning_rate,
        )
        self._threshold = float(np.quantile(self._errors(flat), cfg.threshold_quantile))
        return self

    def score(self, topologies: np.ndarray) -> float:
        """Fraction of topologies whose reconstruction error is under threshold."""
        if self._model is None or self._threshold is None:
            raise RuntimeError("ValidityScorer.fit must be called before score")
        flat = self._flatten(topologies)
        if flat.shape[1] != self._input_dim:
            raise ValueError("topology size differs from the training topologies")
        errors = self._errors(flat)
        return float((errors <= self._threshold).mean())
