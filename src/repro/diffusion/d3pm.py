"""Discrete denoising diffusion for topology tensors (Section III-C).

:class:`DiscreteDiffusion` couples a U-Net ``x_0``-posterior predictor with a
:class:`~repro.diffusion.transition.DiscreteTransitionModel` and implements
the hybrid training loss of Eq. (9):
``KL(q(x_{k-1}|x_k,x_0) || p_θ(x_{k-1}|x_k)) − λ log p_θ(x_0 | x_k)``.
Ancestral sampling (Eq. 13) from the stationary distribution down to a fresh
topology tensor is :class:`repro.pipeline.SamplingEngine`, which reads the
model through :meth:`DiscreteDiffusion.predict_x0_probs`.

The state arrays handled here are integer tensors of shape ``(N, C, M, M)``
where ``C`` is the deep-squish channel count and every entry is 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nn
from ..nn import UNet, UNetConfig
from ..nn import functional as F
from ..utils import as_rng
from .schedule import linear_schedule
from .transition import NUM_STATES, DiscreteTransitionModel, one_hot


@dataclass
class DiffusionConfig:
    """Hyper-parameters of the discrete diffusion generator.

    The paper's values are ``num_steps=1000``, ``beta_start=0.01``,
    ``beta_end=0.5``, ``lambda_ce=0.001``, learning rate ``2e-4``, gradient
    clip ``1.0``.  Tests and laptop runs shrink ``num_steps`` and the U-Net.
    """

    #: Length ``K`` of the forward/reverse chain.  The sampler may walk a
    #: respaced subsequence of it (see :class:`~repro.diffusion.RespacedSchedule`).
    num_steps: int = 1000
    #: Flip probability of the first forward step (Eq. 8 linear schedule).
    beta_start: float = 0.01
    #: Flip probability of the last forward step.
    beta_end: float = 0.5
    #: Weight of the auxiliary cross-entropy term in the hybrid loss (Eq. 9).
    lambda_ce: float = 0.001
    #: Adam learning rate used by :meth:`DiscreteDiffusion.fit`.
    learning_rate: float = 2e-4
    #: Global gradient-norm clip applied per training step.
    grad_clip: float = 1.0


def _hybrid_loss(
    logits: np.ndarray,
    posterior_all: np.ndarray,
    target_prev: np.ndarray,
    onehot_x0: np.ndarray,
    lambda_ce: float,
) -> tuple[float, float, float, Callable[[], np.ndarray]]:
    """Eq. (9) on the U-Net logits: ``(loss, kl, ce, gradient)``.

    ``logits`` is ``(N, C, S, M, M)``; ``posterior_all[..., i, j]`` is
    ``q(x_{k-1}=j | x_k, x_0=i)``, ``target_prev`` the true posterior and
    ``onehot_x0`` the clean states, each with the state axis last.
    ``gradient()`` returns the loss gradient w.r.t. ``logits``.  With
    ``p = softmax(z)`` and ``pred = Σ_i p_i·posterior_all[i]`` (the model's
    ``p_θ(x_{k-1} | x_k)``) over ``P`` pixels, it is

    * ``g_i = -(1/P) Σ_j t_j·posterior_all[i, j] / pred_j`` (KL w.r.t. ``p``),
    * ``dz = p·(g − Σ p·g) + (λ/P)·(p − onehot)``,

    with elementwise sums over the (small) state axis.
    """
    eps = 1e-10
    num_states = logits.shape[2]
    z = np.moveaxis(logits, 2, -1)  # (N, C, M, M, S)
    inv_pixels = np.float32(1.0 / (z.size // num_states))
    probs = F.softmax_array(z, axis=-1)
    predicted = probs[..., 0, None] * posterior_all[..., 0, :]
    for state in range(1, num_states):
        predicted += probs[..., state, None] * posterior_all[..., state, :]
    predicted += eps
    target = target_prev.astype(np.float32)
    entropy = float((target_prev * np.log(np.clip(target_prev, eps, 1.0))).sum(axis=-1).mean())
    kl = -((target * np.log(predicted)).sum(axis=-1).sum() * inv_pixels) + np.float32(entropy)
    log_probs = z - z.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    ce = -(onehot_x0 * log_probs).sum(axis=-1).sum() * inv_pixels
    total = kl + ce * np.float32(lambda_ce)

    def gradient() -> np.ndarray:
        ratio = target / predicted
        grad_probs = np.empty_like(probs)
        for state in range(num_states):
            grad_probs[..., state] = (ratio * posterior_all[..., state, :]).sum(axis=-1)
        grad_probs *= -inv_pixels
        grad_z = probs * (grad_probs - (probs * grad_probs).sum(axis=-1, keepdims=True))
        grad_z += (probs - onehot_x0) * (np.float32(lambda_ce) * inv_pixels)
        return np.ascontiguousarray(np.moveaxis(grad_z, -1, 2))

    return float(total), float(kl), float(ce), gradient


def _timesteps(xk: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
    """One timestep per sample of ``xk``: ``k`` broadcast, or ``k`` as given."""
    return np.full(xk.shape[0], k, dtype=np.int64) if np.isscalar(k) else np.asarray(k)


class DiscreteDiffusion:
    """Discrete diffusion generator over ``(C, M, M)`` topology tensors."""

    def __init__(self, model: UNet, config: "DiffusionConfig | None" = None) -> None:
        """Couple a U-Net posterior predictor with the binary transition model.

        The chain is the paper's linear schedule (Eq. 8) over
        ``config.num_steps`` steps from ``config.beta_start`` to
        ``config.beta_end``.

        Parameters
        ----------
        model:
            The ``x_0``-posterior backbone; its ``num_classes`` must be 2
            (one logit per binary state).
        config:
            Hyper-parameters; defaults to :class:`DiffusionConfig`.

        Raises
        ------
        ValueError
            If the U-Net's class count is not 2.
        """
        self.config = config if config is not None else DiffusionConfig()
        self.model = model
        self.transition = DiscreteTransitionModel(
            linear_schedule(self.config.num_steps, self.config.beta_start, self.config.beta_end)
        )
        unet_cfg: UNetConfig = model.config
        if unet_cfg.num_classes != NUM_STATES:
            raise ValueError(
                "UNet num_classes must equal the diffusion state count "
                f"({unet_cfg.num_classes} != {NUM_STATES})"
            )

    # ------------------------------------------------------------------ #
    # model wrappers
    # ------------------------------------------------------------------ #
    def _model_input_array(self, xk: np.ndarray) -> np.ndarray:
        """One-hot encode ``x_k`` and flatten the state axis into channels.

        Encodes straight into the ``(N, C*S, M, M)`` layout the U-Net wants,
        so no transpose copy is needed (the sampler calls this every step).
        """
        batch, channels, height, width = xk.shape
        if xk.min() < 0 or xk.max() >= NUM_STATES:
            raise ValueError(f"states must lie in [0, {NUM_STATES})")
        encoded = np.zeros((batch, channels, NUM_STATES, height, width), dtype=np.float32)
        np.put_along_axis(encoded, xk[:, :, None, :, :], 1.0, axis=2)
        return encoded.reshape(batch, channels * NUM_STATES, height, width)

    def predict_x0_probs(self, xk: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Softmax of the ``p_θ(x_0 | x_k)`` logits as a plain array.

        Runs :meth:`UNet.infer` without a cache: the hot path of the sampler.
        """
        logits = self.model.infer(self._model_input_array(xk), _timesteps(xk, k))
        return F.softmax_array(logits, axis=2)

    # ------------------------------------------------------------------ #
    # training loss (Eq. 9)
    # ------------------------------------------------------------------ #
    def loss(
        self,
        x0: np.ndarray,
        rng: "int | np.random.Generator | None" = None,
        k: "int | None" = None,
    ) -> tuple[Callable[[], None], dict[str, float]]:
        """Hybrid loss on a batch of clean topology tensors ``x0``.

        Runs the U-Net forward in training mode (dropout on) with a cache.

        Parameters
        ----------
        x0:
            Integer array of shape ``(N, C, M, M)``.
        rng:
            Randomness for the timestep and the forward corruption.
        k:
            Optional fixed timestep (used by tests); otherwise sampled
            uniformly from ``[1, K]`` per batch.

        Returns
        -------
        tuple[Callable[[], None], dict[str, float]]
            The reverse pass of this loss, which accumulates every U-Net
            parameter gradient when called, and a metrics dict with
            ``loss`` / ``kl`` / ``ce`` / ``step`` entries.
        """
        gen = as_rng(rng)
        x0 = np.asarray(x0, dtype=np.int64)
        if x0.ndim != 4:
            raise ValueError(f"x0 must have shape (N, C, M, M), got {x0.shape}")
        step = int(gen.integers(1, self.config.num_steps + 1)) if k is None else int(k)

        xk = self.transition.sample_xk(x0, step, gen)
        cache: list = []
        logits = self.model.infer(  # (N, C, S, M, M)
            self._model_input_array(xk), _timesteps(xk, step), cache, train=True
        )
        total, kl, ce, gradient = _hybrid_loss(
            logits,
            self.transition.posterior_table(step, np.float32)[xk],
            self.transition.posterior_probs(xk, x0, step),
            one_hot(x0, NUM_STATES),
            self.config.lambda_ce,
        )

        def backward() -> None:
            self.model.backward(gradient(), cache)

        return backward, {"loss": total, "kl": kl, "ce": ce, "step": float(step)}

    # ------------------------------------------------------------------ #
    # training loop
    # ------------------------------------------------------------------ #
    def fit(
        self,
        dataset: np.ndarray,
        iterations: int,
        batch_size: int = 16,
        rng: "int | np.random.Generator | None" = None,
    ) -> list[dict[str, float]]:
        """Train the backbone on a dataset of clean topology tensors.

        Runs :func:`repro.nn.fit` over :meth:`loss` with Adam at
        ``config.learning_rate`` and the gradient norm clipped to
        ``config.grad_clip``.

        Parameters
        ----------
        dataset:
            Integer array of shape ``(num_samples, C, M, M)``.
        iterations:
            Optimisation steps to run (one random mini-batch each).
        batch_size:
            Mini-batch size, capped at the dataset size.
        rng:
            Randomness for batch selection, timesteps and forward corruption.

        Returns
        -------
        list[dict[str, float]]
            Per-iteration metric dictionaries (loss terms plus
            ``grad_norm`` / ``iteration``).

        Raises
        ------
        ValueError
            If ``dataset`` is not 4-dimensional.
        """
        data = np.asarray(dataset, dtype=np.int64)
        if data.ndim != 4:
            raise ValueError(f"dataset must have shape (N, C, M, M), got {data.shape}")
        return nn.fit(
            self.loss,
            data,
            self.model.parameters(),
            iterations,
            batch_size,
            as_rng(rng),
            lr=self.config.learning_rate,
            grad_clip=self.config.grad_clip,
        )
