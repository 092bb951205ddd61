"""Variational convolutional auto-encoder baseline (VCAE, ref. [8]).

Same convolutional backbone as the CAE but with a proper latent prior:
the encoder predicts a mean and log-variance, training adds the KL term, and
generation samples ``z ~ N(0, I)`` before decoding and thresholding.  VCAE
produces far more diverse topologies than the CAE (its latent space is
densely sampled) but still no legality guarantee — matching its Table I row
(high diversity, low legality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Adam, Linear, Tensor
from ..utils import as_rng
from .base import TopologyGenerator, validate_matrices
from .cae import ConvDecoder, ConvEncoder, binarize


@dataclass
class VCAEConfig:
    """Training hyper-parameters of the VCAE baseline.

    ``threshold=None`` uses the adaptive per-sample threshold described in
    :func:`repro.baselines.cae.binarize`.
    """

    base_channels: int = 16
    latent_dim: int = 32
    iterations: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    kl_weight: float = 1e-3
    threshold: "float | None" = 0.5
    seed: int = 0


class VCAEGenerator(TopologyGenerator):
    """VCAE baseline: encoder predicts (mu, logvar); samples decode from the prior."""

    name = "VCAE"

    def __init__(self, config: "VCAEConfig | None" = None) -> None:
        self.config = config if config is not None else VCAEConfig()
        self.encoder: "ConvEncoder | None" = None
        self.mu_head: "Linear | None" = None
        self.logvar_head: "Linear | None" = None
        self.decoder: "ConvDecoder | None" = None
        self._train_fill: float = 0.5
        self._size: "int | None" = None

    # ------------------------------------------------------------------ #
    def _elbo_loss(self, batch: np.ndarray, gen: np.random.Generator) -> Tensor:
        cfg = self.config
        x = Tensor(batch[:, None].astype(np.float32))
        features = self.encoder(x)
        mu = self.mu_head(features)
        logvar = self.logvar_head(features).clip(-8.0, 8.0)
        eps = Tensor(gen.standard_normal(mu.shape).astype(np.float32))
        z = mu + (logvar * 0.5).exp() * eps
        recon = self.decoder(z)
        diff = recon - x
        recon_loss = (diff * diff).mean()
        kl = (((mu * mu) + logvar.exp() - logvar - 1.0) * 0.5).mean()
        return recon_loss + cfg.kl_weight * kl

    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "VCAEGenerator":
        cfg = self.config
        arr = validate_matrices(matrices)
        gen = as_rng(rng if rng is not None else cfg.seed)
        self._size = arr.shape[1]
        self._train_fill = float(arr.mean())
        self.encoder = ConvEncoder(self._size, cfg.base_channels, cfg.latent_dim, gen)
        self.mu_head = Linear(cfg.latent_dim, cfg.latent_dim, rng=gen)
        self.logvar_head = Linear(cfg.latent_dim, cfg.latent_dim, rng=gen)
        self.decoder = ConvDecoder(self._size, cfg.base_channels, cfg.latent_dim, gen)
        params = (
            list(self.encoder.parameters())
            + list(self.mu_head.parameters())
            + list(self.logvar_head.parameters())
            + list(self.decoder.parameters())
        )
        optimizer = Adam(params, lr=cfg.learning_rate)
        for _ in range(cfg.iterations):
            idx = gen.integers(0, arr.shape[0], size=min(cfg.batch_size, arr.shape[0]))
            loss = self._elbo_loss(arr[idx], gen)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return self

    def generate(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        if self.decoder is None:
            raise RuntimeError("fit must be called before generate")
        cfg = self.config
        gen = as_rng(rng)
        outputs = []
        for start in range(0, count, cfg.batch_size):
            batch = min(cfg.batch_size, count - start)
            z = gen.standard_normal((batch, cfg.latent_dim)).astype(np.float32)
            probs = self.decoder.infer(z)[:, 0]
            outputs.append(binarize(probs, cfg.threshold, self._train_fill))
        return np.concatenate(outputs, axis=0)
