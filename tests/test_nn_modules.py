"""Unit tests for the module system, layers, optimiser, fit loop and serialisation."""

import numpy as np
import pytest
from tape import Tensor, module_node

from repro.nn import (
    Adam,
    Conv2d,
    Dropout,
    Embedding,
    GroupNorm,
    Identity,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
    Sigmoid,
    SiLU,
    clip_grad_norm,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn import functional as F


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.act = SiLU()
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def infer(self, x, cache=None, train=False):
        return self.fc2.infer(self.act.infer(self.fc1.infer(x, cache), cache), cache)

    def backward(self, grad, cache, input_grad=True):
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad, cache), cache), cache)


def _sum_backward(net, x):
    """Accumulate the gradients of ``net.infer(x).sum()`` into ``net``'s parameters."""
    cache = []
    out = net.infer(x, cache)
    net.backward(np.ones_like(out), cache)


class TestModuleSystem:
    def test_parameter_registration_recursive(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert sum(p.size for p in net.parameters()) == 4 * 8 + 8 + 8 * 2 + 2

    def test_zero_grad_clears_all(self):
        net = TinyNet()
        _sum_backward(net, np.ones((3, 4), dtype=np.float32))
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net = TinyNet()
        state = net.state_dict()
        other = TinyNet()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_dict_rejects_missing_keys(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_checkpoint_roundtrip(self, tmp_path):
        net = TinyNet()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(net, path)
        other = TinyNet()
        load_checkpoint(other, path)
        x = np.ones((2, 4), dtype=np.float32)
        np.testing.assert_allclose(net.infer(x), other.infer(x))


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        out = layer.infer(np.ones((7, 5), dtype=np.float32))
        assert out.shape == (7, 3)

    def test_linear_without_bias(self):
        layer = Linear(5, 3, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert sum(1 for _ in layer.parameters()) == 1

    def test_conv2d_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = layer.infer(np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert out.shape == (2, 8, 4, 4)

    def test_groupnorm_validates_divisibility(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 8)

    def test_groupnorm_identity_stats(self):
        layer = GroupNorm(2, 4)
        x = np.random.default_rng(0).normal(size=(2, 4, 3, 3)).astype(np.float32)
        out = layer.infer(x)
        assert abs(out.mean()) < 0.1

    def test_layernorm_shape(self):
        layer = LayerNorm(6)
        out = layer.infer(np.ones((2, 5, 6), dtype=np.float32))
        assert out.shape == (2, 5, 6)

    def test_identity_passthrough(self):
        x = np.arange(4, dtype=np.float32)
        assert np.array_equal(Identity().infer(x), x)

    def test_embedding_lookup_and_range_check(self):
        layer = Embedding(10, 4, rng=np.random.default_rng(0))
        out = layer.infer(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        with pytest.raises(IndexError):
            layer.infer(np.array([10]))

    def test_dropout_respects_training_flag(self):
        layer = Dropout(0.9, rng=np.random.default_rng(0))
        x = np.ones((100,), dtype=np.float32)
        np.testing.assert_array_equal(layer.infer(x), x)
        np.testing.assert_array_equal(layer.infer(x, train=False), x)
        assert (layer.infer(x, train=True) == 0.0).any()


def _protocol_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(2, 3, 3, padding=1, rng=rng),
        GroupNorm(1, 3),
        SiLU(),
        Dropout(0.3, rng=rng),
        Conv2d(3, 1, 3, stride=2, padding=1, rng=rng),
        Sigmoid(),
    )


def _call_and_grads(net, forward, input_grad=True):
    x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 6, 6)), requires_grad=input_grad)
    out = forward(net, x)
    out.backward(np.random.default_rng(2).normal(size=out.shape).astype(np.float32))
    return out, x.grad, [p.grad for p in net.parameters()]


def _per_layer(net, x):
    for layer in net.layers:
        x = module_node(layer, x)
    return x


class TestModuleProtocol:
    """A composite's ``infer``/``backward`` equal its layers chained one by one."""

    def test_composite_call_records_one_node(self):
        # The oracle wraps a whole composite as one node over its reverse pass.
        net = _protocol_net()
        x = Tensor(np.ones((2, 2, 6, 6), dtype=np.float32), requires_grad=True)
        out = module_node(net, x)
        assert out._parents == (x,)
        assert sum(1 for node in out.graph() if node._backward_fn is not None) == 1

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_composite_equals_per_layer_tape(self, input_grad):
        # Same kernels and VJPs, chained by Sequential.backward instead of by
        # the tape: values, dropout draws and gradients agree bit for bit.
        out, dx, grads = _call_and_grads(_protocol_net(), module_node, input_grad)
        ref_out, ref_dx, ref_grads = _call_and_grads(_protocol_net(), _per_layer, input_grad)
        np.testing.assert_array_equal(out.data, ref_out.data)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(grad, ref)
        if input_grad:
            np.testing.assert_array_equal(dx, ref_dx)
        else:
            assert dx is None and ref_dx is None


class TestOptimisers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0], dtype=np.float32)
        param = Parameter(np.zeros(2, dtype=np.float32))

        def backward():
            # The gradient of sum((param - target)²).
            param.accumulate(2.0 * (param.data - target))

        return param, target, backward

    def test_adam_converges_on_quadratic(self):
        param, target, backward = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=5e-2)

    def test_adam_weight_decay_shrinks_weights(self):
        param = Parameter(np.full(4, 10.0, dtype=np.float32))
        opt = Adam([param], lr=0.1, weight_decay=0.5)
        for _ in range(100):
            opt.zero_grad()
            param.accumulate(np.zeros(4, dtype=np.float32))
            opt.step()
        assert np.abs(param.data).max() < 10.0

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_clip_grad_norm_scales_down(self):
        param = Parameter(np.zeros(3, dtype=np.float32))
        param.grad = np.array([3.0, 4.0, 0.0], dtype=np.float32)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-4)

    def test_clip_grad_norm_no_scale_when_small(self):
        param = Parameter(np.zeros(2, dtype=np.float32))
        param.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_grad_norm([param], max_norm=1.0)
        np.testing.assert_allclose(param.grad, [0.3, 0.4])


class TestTraining:
    def test_small_network_fits_nonlinear_regression(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        y = np.tanh(x[:, :1] * 2.0 - x[:, 1:2]).astype(np.float32)
        net = Sequential(
            Linear(4, 16, rng=rng), SiLU(), Linear(16, 1, rng=rng)
        )
        rows = np.concatenate([x, y], axis=1)

        def loss(batch, gen):
            cache = []
            value, grad = F.mse_loss(net.infer(batch[:, :4], cache), batch[:, 4:])
            return lambda: net.backward(grad, cache, input_grad=False), {"loss": value}

        history = fit(loss, rows, net.parameters(), 300, 64, rng, lr=1e-2)
        assert [entry["iteration"] for entry in history] == list(range(300))
        assert "grad_norm" not in history[0]
        assert history[-1]["loss"] < history[0]["loss"] * 0.2

    def test_fit_clips_only_when_asked(self):
        param = Parameter(np.zeros(3, dtype=np.float32))

        def loss(batch, gen):
            return lambda: param.accumulate(np.array([30.0, 40.0, 0.0], np.float32)), {"loss": 0.0}

        data = np.zeros((4, 1), dtype=np.float32)
        history = fit(loss, data, [param], 2, 2, np.random.default_rng(0), lr=0.1, grad_clip=1.0)
        assert [entry["grad_norm"] for entry in history] == [pytest.approx(50.0)] * 2
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-4)


class ReferenceAdam:
    """The per-parameter Adam loop the flat-buffer optimizer replaced."""

    def __init__(self, parameters, lr=2e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def _param_pair(seed=0):
    """Two identical parameter lists with a mix of shapes."""
    rng = np.random.default_rng(seed)
    shapes = [(4, 3, 3, 3), (4,), (6, 5), (1,), (2, 2, 2)]
    arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
    return [Parameter(a.copy()) for a in arrays], [Parameter(a.copy()) for a in arrays]


def _set_grads(params, rng, skip=()):
    for i, p in enumerate(params):
        p.grad = None if i in skip else rng.normal(size=p.shape).astype(np.float32)


class TestFlatAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_step_equals_per_parameter_loop(self, weight_decay):
        flat_params, ref_params = _param_pair()
        flat = Adam(flat_params, lr=0.05, weight_decay=weight_decay)
        ref = ReferenceAdam(ref_params, lr=0.05, weight_decay=weight_decay)
        for step in range(6):
            _set_grads(flat_params, np.random.default_rng(step))
            _set_grads(ref_params, np.random.default_rng(step))
            flat.step()
            ref.step()
            for a, b in zip(flat_params, ref_params):
                np.testing.assert_array_equal(a.data, b.data)

    def test_parameter_without_grad_is_untouched(self):
        flat_params, ref_params = _param_pair(1)
        flat = Adam(flat_params, lr=0.05)
        ref = ReferenceAdam(ref_params, lr=0.05)
        for step in range(5):
            # Parameter 1 has no gradient on steps 1 and 2; on step 3 no
            # parameter has one.  Its data must not move and its moments must
            # not decay, which later steps would show against the reference.
            skip = {1} if step in (1, 2) else set(range(5)) if step == 3 else set()
            before = [p.data.copy() for p in flat_params]
            _set_grads(flat_params, np.random.default_rng(step), skip)
            _set_grads(ref_params, np.random.default_rng(step), skip)
            flat.step()
            ref.step()
            for i, (a, b) in enumerate(zip(flat_params, ref_params)):
                np.testing.assert_array_equal(a.data, b.data)
                if i in skip:
                    np.testing.assert_array_equal(a.data, before[i])

    def test_loading_weights_after_construction_feeds_the_next_step(self, tmp_path):
        net, source = TinyNet(), TinyNet()
        for p in source.parameters():
            p.data[...] += 1.0
        opt = Adam(net.parameters(), lr=0.1)
        save_checkpoint(source, tmp_path / "ckpt.npz")
        for load in (lambda: net.load_state_dict(source.state_dict()),
                     lambda: load_checkpoint(net, tmp_path / "ckpt.npz")):
            load()
            for a, b in zip(net.parameters(), source.parameters()):
                np.testing.assert_array_equal(a.data, b.data)
            loaded = [p.data.copy() for p in net.parameters()]
            _sum_backward(net, np.ones((3, 4), dtype=np.float32))
            opt.step()
            opt.zero_grad()
            for p, start in zip(net.parameters(), loaded):
                # Adam's first-step update has magnitude ~lr in every entry.
                assert np.abs(p.data - start).max() < 0.11
                assert np.abs(p.data - start).min() > 0.0

    def test_second_optimizer_on_the_same_parameters(self):
        net = TinyNet()
        first = Adam(net.parameters(), lr=0.1)
        second = Adam(net.parameters(), lr=0.1)
        x = np.ones((3, 4), dtype=np.float32)
        for opt in (first, second, first):
            before = [p.data.copy() for p in net.parameters()]
            net.zero_grad()
            _sum_backward(net, x)
            opt.step()
            assert all(not np.array_equal(p.data, b) for p, b in zip(net.parameters(), before))

    def test_second_fit_call_still_trains(self):
        from repro.diffusion import DiffusionConfig, DiscreteDiffusion
        from repro.nn import UNet, UNetConfig

        unet = UNet(UNetConfig(in_channels=2, image_size=8, model_channels=8, channel_mult=(1, 2),
                               num_res_blocks=1, attention_resolutions=(4,), dropout=0.0))
        diffusion = DiscreteDiffusion(unet, DiffusionConfig(num_steps=4, learning_rate=1e-2))
        data = np.random.default_rng(0).integers(0, 2, size=(8, 2, 8, 8))
        diffusion.fit(data, iterations=2, batch_size=4, rng=0)
        after_first = unet.state_dict()
        diffusion.fit(data, iterations=2, batch_size=4, rng=1)
        moved = [not np.array_equal(after_first[k], v) for k, v in unet.state_dict().items()]
        assert all(moved)
