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
from typing import Callable

import numpy as np

from .. import nn
from ..nn import Linear
from ..nn import functional as F
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
    def loss(
        self, batch: np.ndarray, rng: np.random.Generator
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Negative ELBO of one batch (reparameterised): ``(reverse pass, metrics)``.

        ``loss = mse(decode(mu + exp(logvar/2)·eps), x)
        + kl_weight · mean((mu² + exp(logvar) − logvar − 1) / 2)`` with
        ``logvar`` clipped to ``[-8, 8]``.  Gradients reaching ``mu`` and
        ``logvar`` from several terms are summed in the order their terms
        are differentiated: the sample path first, then the KL terms.
        """
        cfg = self.config
        x = batch[:, None].astype(np.float32)
        cache: list = []
        features = self.encoder.infer(x, cache, True)
        mu = self.mu_head.infer(features, cache, True)
        raw_logvar = self.logvar_head.infer(features, cache, True)
        logvar = np.clip(raw_logvar, -8.0, 8.0)
        eps = rng.standard_normal(mu.shape).astype(np.float32)
        half = np.float32(0.5)
        std = np.exp(logvar * half)
        recon = self.decoder.infer(mu + std * eps, cache, True)
        recon_loss, grad_recon = F.mse_loss(recon, x)
        var = np.exp(logvar)
        kl_terms = (((mu * mu) + var) + -logvar) + np.float32(-1.0)
        kl_scale = np.float32(1.0 / kl_terms.size)
        kl = (kl_terms * half).sum() * kl_scale
        kl_weight = np.float32(cfg.kl_weight)
        value = float(np.float32(recon_loss) + kl * kl_weight)
        # d(kl_weight · kl) / d(kl_terms), the same for every element.
        grad_terms = kl_weight * kl_scale * half

        def backward() -> None:
            grad_z = self.decoder.backward(grad_recon, cache)
            grad_mu = grad_z + grad_terms * mu
            grad_mu += grad_terms * mu
            grad_logvar = grad_z * eps * std * half
            grad_logvar += grad_terms * var
            grad_logvar += -grad_terms
            grad_logvar *= ((raw_logvar >= -8.0) & (raw_logvar <= 8.0)).astype(np.float32)
            grad_features = self.logvar_head.backward(grad_logvar, cache)
            grad_features = self.mu_head.backward(grad_mu, cache) + grad_features
            self.encoder.backward(grad_features, cache, input_grad=False)

        return backward, {"loss": value}

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
        nn.fit(
            self.loss, arr, params, cfg.iterations, cfg.batch_size, gen,
            lr=cfg.learning_rate,
        )
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
