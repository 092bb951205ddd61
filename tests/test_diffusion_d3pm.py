"""Unit and behaviour tests for the discrete diffusion generator."""

import warnings

import numpy as np
import pytest

from repro.diffusion import DiffusionConfig, DiscreteDiffusion, linear_schedule
from repro.diffusion.d3pm import _hybrid_loss
from repro.diffusion.transition import DiscreteTransitionModel, one_hot
from repro.nn import Tensor, UNet, UNetConfig
from repro.nn import functional as F
from repro.pipeline import SamplingEngine


def tiny_unet(channels=4, size=8, classes=2):
    return UNet(
        UNetConfig(
            in_channels=channels,
            num_classes=classes,
            image_size=size,
            model_channels=8,
            channel_mult=(1, 2),
            num_res_blocks=1,
            attention_resolutions=(4,),
            dropout=0.0,
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def model():
    return DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=8, lambda_ce=0.05))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    base = np.zeros((12, 4, 8, 8), dtype=np.int64)
    # simple structured data: solid vertical bars of random position/width
    for i in range(12):
        start = rng.integers(0, 6)
        base[i, :, :, start : start + 2] = 1
    return base


class TestConstruction:
    def test_schedule_step_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDiffusion(
                tiny_unet(), DiffusionConfig(num_steps=8), schedule=linear_schedule(16)
            )

    def test_num_classes_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDiffusion(tiny_unet(classes=1), DiffusionConfig(num_steps=8))

    def test_from_unet_config(self):
        model = DiscreteDiffusion.from_unet_config(
            UNetConfig(
                in_channels=4, num_classes=2, image_size=8, model_channels=8,
                channel_mult=(1, 2), num_res_blocks=1, attention_resolutions=(), dropout=0.0,
            ),
            DiffusionConfig(num_steps=4),
        )
        assert model.config.num_steps == 4


class TestLoss:
    def test_loss_is_finite_and_positive(self, model, data):
        loss, metrics = model.loss(data[:4], rng=0)
        assert np.isfinite(loss.item())
        assert metrics["loss"] >= 0.0
        assert 1 <= metrics["step"] <= model.config.num_steps

    def test_loss_at_fixed_step_one_reduces_to_ce(self, model, data):
        _, metrics = model.loss(data[:2], rng=0, k=1)
        # at k=1 the KL term equals -log p(x0|x1) up to the entropy of a
        # delta distribution (zero), so kl ~= ce
        assert metrics["kl"] == pytest.approx(metrics["ce"], rel=1e-3, abs=1e-3)

    def test_loss_rejects_bad_shape(self, model):
        with pytest.raises(ValueError):
            model.loss(np.zeros((2, 8, 8), dtype=np.int64))

    def test_loss_backward_produces_gradients(self, model, data):
        loss, _ = model.loss(data[:2], rng=1)
        model.model.zero_grad()
        loss.backward()
        grads = [p.grad for p in model.model.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)


class TestAbsorbingTransitions:
    """States a clean pixel can never reach must not turn the loss into NaN."""

    @pytest.fixture(scope="class")
    def absorbing(self):
        config = DiffusionConfig(num_steps=8, num_states=3, transition_kind="absorbing")
        return DiscreteDiffusion(tiny_unet(classes=3), config)

    @pytest.mark.parametrize("step", [1, 4, 8])
    def test_loss_is_finite(self, absorbing, data, step):
        loss, metrics = absorbing.loss(data[:4], rng=0, k=step)
        assert np.isfinite(loss.item())
        assert np.isfinite(metrics["kl"]) and np.isfinite(metrics["ce"])

    def test_sampling_raises_no_runtime_warning(self, absorbing):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            samples = SamplingEngine(absorbing).sample(2, seed=0)
        assert samples.shape == (2, 4, 8, 8)
        assert ((samples >= 0) & (samples < 3)).all()


def taped_hybrid_loss(logits, posterior_all, target_prev, onehot_x0, lambda_ce):
    """Oracle: the hybrid loss composed from primitive tape ops, as it was
    written before it became one fused node."""
    logits_last = logits.transpose(0, 1, 3, 4, 2)
    probs_x0 = F.softmax(logits_last, axis=-1)
    predicted_prev = None
    for clean_state in range(logits.shape[2]):
        weight = probs_x0[..., clean_state : clean_state + 1]
        term = weight * Tensor(posterior_all[..., clean_state, :])
        predicted_prev = term if predicted_prev is None else predicted_prev + term
    eps = 1e-10
    log_predicted = (predicted_prev + eps).log()
    entropy = float((target_prev * np.log(np.clip(target_prev, eps, 1.0))).sum(axis=-1).mean())
    kl = -(Tensor(target_prev.astype(np.float32)) * log_predicted).sum(axis=-1).mean() + entropy
    ce = F.cross_entropy_with_logits(logits_last, onehot_x0, axis=-1)
    return kl + lambda_ce * ce, kl, ce


class TestFusedLoss:
    @pytest.mark.parametrize(
        "kind,num_states,step",
        [
            ("binary", 2, 1), ("binary", 2, 5), ("uniform", 3, 4), ("uniform", 3, 8),
            ("absorbing", 3, 1), ("absorbing", 3, 4), ("absorbing", 3, 8),
        ],
    )
    def test_matches_taped_composition(self, kind, num_states, step):
        rng = np.random.default_rng(step)
        transition = DiscreteTransitionModel(linear_schedule(8), num_states=num_states, kind=kind)
        x0 = rng.integers(0, num_states, size=(3, 2, 4, 4))
        xk = transition.sample_xk(x0, step, rng)
        logits = (rng.normal(size=(3, 2, num_states, 4, 4)) * 2).astype(np.float32)
        args = (
            transition.posterior_table(step, np.float32)[xk],
            transition.posterior_probs(xk, x0, step),
            one_hot(x0, num_states),
            0.05,
        )
        fused_logits = Tensor(logits, requires_grad=True)
        taped_logits = Tensor(logits, requires_grad=True)
        fused, kl, ce = _hybrid_loss(fused_logits, *args)
        taped, taped_kl, taped_ce = taped_hybrid_loss(taped_logits, *args)
        assert fused.item() == pytest.approx(taped.item(), rel=1e-6)
        assert kl == pytest.approx(taped_kl.item(), rel=1e-6)
        assert ce == pytest.approx(taped_ce.item(), rel=1e-6)
        upstream = np.float32(0.7)
        fused.backward(upstream)
        taped.backward(upstream)
        diff = np.linalg.norm(fused_logits.grad - taped_logits.grad)
        assert diff <= 1e-5 * np.linalg.norm(taped_logits.grad)

    def test_loss_and_unet_are_one_node_each(self, model, data):
        loss, _ = model.loss(data[:2], rng=0)
        nodes = [node for node in loss.graph() if node._backward_fn is not None]
        assert len(nodes) == 2


class TestTraining:
    def test_fit_decreases_loss_on_simple_data(self, data):
        model = DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=8, lambda_ce=0.1))
        # Evaluate at a fixed timestep and fixed corruption before/after
        # training so the comparison is not dominated by timestep noise.
        fixed_step = 4
        before, _ = model.loss(data[:6], rng=123, k=fixed_step)
        model.fit(data, iterations=60, batch_size=6, rng=0)
        after, _ = model.loss(data[:6], rng=123, k=fixed_step)
        assert after.item() < before.item()

    def test_fit_records_grad_norm(self, data):
        model = DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=4))
        history = model.fit(data, iterations=3, batch_size=4, rng=0)
        assert all("grad_norm" in h for h in history)

    def test_fit_rejects_bad_dataset_shape(self, model):
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 8, 8), dtype=np.int64), iterations=1)


class TestSampling:
    """The model sampled through :class:`SamplingEngine`, its only sampler."""

    def test_sample_shape_and_binary_values(self, model):
        samples = SamplingEngine(model).sample(3, seed=0)
        assert samples.shape == (3, 4, 8, 8)
        assert set(np.unique(samples)).issubset({0, 1})

    def test_sample_reproducible_with_seed(self, model):
        a = SamplingEngine(model).sample(2, seed=42)
        b = SamplingEngine(model, batch_size=1).sample(2, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_sample_chain_returned(self, model):
        final, chain = SamplingEngine(model).sample_chain(1, seed=0, chain_stride=2)
        assert len(chain) >= 2
        np.testing.assert_array_equal(chain[-1], final)
        # the chain starts from (roughly uniform) noise
        assert 0.2 < chain[0].mean() < 0.8

    def test_greedy_final_step_is_deterministic_given_chain(self, model):
        # The greedy last step emits the mode of p(x_0 | x_1) for the chain's
        # x_1, with no draw.
        final, chain = SamplingEngine(model).sample_chain(2, seed=7, greedy_final=True)
        np.testing.assert_array_equal(final, model.predict_x0_probs(chain[-2], 1).argmax(axis=2))

    def test_sampling_leaves_model_in_train_mode(self, model):
        model.model.train()
        SamplingEngine(model).sample(1, seed=0)
        assert model.model.training
