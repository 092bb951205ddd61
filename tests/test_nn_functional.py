"""Unit tests for repro.nn.functional: the array kernels, their VJPs through
the layers that wrap them, and the closed-form losses."""

import numpy as np
import pytest
from tape import Tensor, module_node, softmax
from taped_oracles import (
    ref_conv2d,
    ref_embedding,
    ref_group_norm,
    ref_layer_norm,
    ref_linear,
    ref_log_softmax,
    ref_silu,
    ref_softmax,
)

from repro.diffusion import DiscreteDiffusion
from repro.nn import Conv2d, Dropout, Embedding, GroupNorm, LayerNorm, Linear, SiLU, UNet
from repro.nn import functional as F
from repro.scenarios import builtin_registry


def naive_conv2d(x, w, b, stride, padding):
    """Reference convolution implemented with plain loops."""
    n, c, h, width = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for oi in range(oc):
            for yi in range(out_h):
                for xi in range(out_w):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum() + (b[oi] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=(4,)).astype(np.float32)
        out = F._conv2d_forward(x, w, b, stride, padding)[0]
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F._conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((3, 4, 3, 3)), None, 1, 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float64)
        w = rng.normal(size=(2, 2, 3, 3)).astype(np.float64)
        b = rng.normal(size=(2,)).astype(np.float64)
        layer = Conv2d(2, 2, 3, padding=1)

        def loss_value(xv, wv, bv):
            layer.weight.data[...] = wv
            layer.bias.data[...] = bv
            return float((layer.infer(xv.astype(np.float32)) ** 2).sum())

        layer.weight.data[...] = w
        layer.bias.data[...] = b
        xt = Tensor(x.astype(np.float32), requires_grad=True)
        out = module_node(layer, xt)
        (out * out).sum().backward()

        eps = 1e-3
        for target, grad in ((x, xt.grad), (w, layer.weight.grad), (b, layer.bias.grad)):
            flat = target.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                plus = loss_value(x, w, b)
                flat[i] = orig - eps
                minus = loss_value(x, w, b)
                flat[i] = orig
                numeric[i] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(grad.reshape(-1), numeric, rtol=5e-2, atol=5e-2)


class TestPoolingAndUpsampling:
    def test_upsample_nearest_values(self):
        up = F.upsample_nearest_array(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2), 2)
        assert up.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(up[0, 0, :2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(up[0, 0, 2:, 2:], np.full((2, 2), 3.0))

    def test_upsample_gradient_sums_blocks(self):
        grad = F.upsample_nearest_backward(np.ones((1, 1, 4, 4), dtype=np.float32), 2)
        np.testing.assert_array_equal(grad, np.full((1, 1, 2, 2), 4.0))


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        probs = F.softmax_array(x, axis=-1)
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_softmax_stability_with_large_logits(self):
        probs = F.softmax_array(np.array([[1000.0, 1000.0]], dtype=np.float32), axis=-1)
        np.testing.assert_allclose(probs, [[0.5, 0.5]], rtol=1e-5)

    def test_log_softmax_consistency(self):
        # The log-softmax inside the cross-entropy agrees with log(softmax).
        x = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)
        targets = np.eye(3, dtype=np.float32)[[0, 2, 1, 1]]
        loss, _ = F.cross_entropy(x, targets)
        expected = -(targets * np.log(F.softmax_array(x) + 1e-12)).sum(axis=-1).mean()
        assert loss == pytest.approx(expected, abs=1e-4)

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32)
        targets = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        assert F.cross_entropy(logits, targets)[0] < 1e-3

    def test_cross_entropy_uniform_prediction(self):
        logits = np.zeros((5, 2), dtype=np.float32)
        targets = np.eye(2, dtype=np.float32)[np.zeros(5, dtype=int)]
        assert F.cross_entropy(logits, targets)[0] == pytest.approx(np.log(2), rel=1e-3)


class TestNormalisation:
    def test_group_norm_normalises_groups(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, scale=2.0, size=(2, 4, 5, 5)).astype(np.float32)
        out = GroupNorm(2, 4).infer(x)
        grouped = out.reshape(2, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=-1), np.zeros((2, 2)), atol=1e-4)
        np.testing.assert_allclose(grouped.std(axis=-1), np.ones((2, 2)), atol=1e-2)

    def test_group_norm_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            F._group_norm_forward(np.zeros((1, 3, 2, 2)), 2, np.ones(3), np.zeros(3), 1e-5)

    def test_layer_norm_normalises_last_axis(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=-1.0, scale=3.0, size=(4, 8)).astype(np.float32)
        out = LayerNorm(8).infer(x)
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-4)


class TestDropoutAndEmbeddingInputs:
    def test_dropout_identity_in_eval(self):
        x = np.ones((4, 4), dtype=np.float32)
        np.testing.assert_array_equal(Dropout(0.5, np.random.default_rng(0)).infer(x), x)

    def test_dropout_scales_surviving_units(self):
        x = Tensor(np.ones((1000,), dtype=np.float32), requires_grad=True)
        out = module_node(Dropout(0.5, np.random.default_rng(0)), x, train=True)
        assert set(np.unique(out.numpy())).issubset({0.0, 2.0})
        assert abs(out.numpy().mean() - 1.0) < 0.15
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, out.numpy())

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0)).infer(np.ones(3, np.float32), train=True)

    def test_sinusoidal_embedding_shape_and_range(self):
        emb = F.sinusoidal_embedding(np.array([0, 1, 100]), 16)
        assert emb.shape == (3, 16)
        assert np.abs(emb).max() <= 1.0 + 1e-6

    def test_sinusoidal_embedding_distinguishes_timesteps(self):
        emb = F.sinusoidal_embedding(np.array([1, 2]), 32)
        assert not np.allclose(emb[0], emb[1])

    def test_sinusoidal_embedding_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            F.sinusoidal_embedding(np.array([1]), 15)


# --------------------------------------------------------------------------- #
# One-node layers against the primitive-op compositions they replaced
# --------------------------------------------------------------------------- #
# Each layer call is wrapped as one oracle tape node over its infer and
# backward (tests/tape.py).  The references (tests/taped_oracles.py) are the
# taped implementations the kernels superseded: an as_strided im2col +
# einsum convolution with a col2im backward, and the other layers composed
# from primitive Tensor ops.  VJPs must agree to a tolerance fixed up front.
VJP_TOL = {"rtol": 1e-5, "atol": 1e-6}


def _leaves(arrays, grad_flags):
    return [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, grad_flags)]


def assert_vjp_matches(op, ref, arrays, grad_flags=None, seed=0):
    """Same upstream gradient through ``op`` and ``ref``; compare outputs and leaf grads."""
    grad_flags = grad_flags or [True] * len(arrays)
    new_leaves = _leaves(arrays, grad_flags)
    ref_leaves = _leaves(arrays, grad_flags)
    out = op(*new_leaves)
    expected = ref(*ref_leaves)
    np.testing.assert_allclose(out.data, expected.data, **VJP_TOL)
    upstream = np.random.default_rng(seed).normal(size=out.shape).astype(np.float32)
    out.backward(upstream)
    expected.backward(upstream)
    for new, old, flag in zip(new_leaves, ref_leaves, grad_flags):
        if flag:
            np.testing.assert_allclose(new.grad, old.grad, **VJP_TOL)
        else:
            assert new.grad is None
    return out, new_leaves, upstream


def assert_matches_finite_differences(op, arrays, out, leaves, upstream, seed=1, eps=1e-2):
    """Directional derivative of <op(arrays), upstream> against the VJP."""
    rng = np.random.default_rng(seed)
    directions = [rng.normal(size=a.shape) for a in arrays]

    def objective(step):
        moved = [Tensor((a + step * d).astype(np.float32)) for a, d in zip(arrays, directions)]
        return float((op(*moved).data.astype(np.float64) * upstream).sum())

    numeric = (objective(eps) - objective(-eps)) / (2 * eps)
    analytic = sum(
        float((leaf.grad.astype(np.float64) * d).sum())
        for leaf, d in zip(leaves, directions)
        if leaf.grad is not None
    )
    assert numeric == pytest.approx(analytic, rel=2e-2, abs=2e-2)


def layer_op(layer):
    """``op(x, *params)``: one call of ``layer`` with ``params`` as its parameters.

    The given tensors replace the layer's parameters, so its VJP accumulates
    into them and the helpers above can treat the layer like a function.
    """
    names = [name for name, _ in layer.named_parameters()]

    def op(x, *params):
        for name, param in zip(names, params):
            layer._parameters[name] = param
            object.__setattr__(layer, name, param)
        return module_node(layer, x)

    return op


def _array(rng, shape, scale=1.0):
    return (rng.normal(size=shape) * scale).astype(np.float32)


CONV_CASES = {
    "3x3-pad1": dict(x=(2, 3, 6, 6), w=(4, 3, 3, 3), stride=1, padding=1, bias=True),
    "3x3-stride2-pad1": dict(x=(2, 4, 8, 8), w=(4, 4, 3, 3), stride=2, padding=1, bias=True),
    "3x3-stride2-odd": dict(x=(1, 2, 7, 5), w=(3, 2, 3, 3), stride=2, padding=1, bias=True),
    "1x1": dict(x=(2, 6, 4, 4), w=(5, 6, 1, 1), stride=1, padding=0, bias=True),
    "3x3-no-bias": dict(x=(2, 3, 5, 5), w=(2, 3, 3, 3), stride=1, padding=1, bias=False),
    "3x3-valid": dict(x=(1, 2, 6, 6), w=(3, 2, 3, 3), stride=1, padding=0, bias=True),
}


def _conv_layer(spec):
    oc, ic, k, _ = spec["w"]
    return Conv2d(ic, oc, k, stride=spec["stride"], padding=spec["padding"], bias=spec["bias"])


class TestSingleNodeConv2d:
    @pytest.mark.parametrize("case", sorted(CONV_CASES))
    def test_forward_is_the_array_kernel(self, case):
        spec = CONV_CASES[case]
        rng = np.random.default_rng(0)
        x, w = _array(rng, spec["x"]), _array(rng, spec["w"])
        b = _array(rng, spec["w"][:1]) if spec["bias"] else None
        params = [Tensor(w)] + ([] if b is None else [Tensor(b)])
        taped = layer_op(_conv_layer(spec))(Tensor(x), *params)
        np.testing.assert_array_equal(
            taped.data, F._conv2d_forward(x, w, b, spec["stride"], spec["padding"])[0]
        )

    @pytest.mark.parametrize("case", sorted(CONV_CASES))
    def test_vjp_matches_reference_and_finite_differences(self, case):
        spec = CONV_CASES[case]
        rng = np.random.default_rng(1)
        arrays = [_array(rng, spec["x"]), _array(rng, spec["w"], 0.5)]
        if spec["bias"]:
            arrays.append(_array(rng, spec["w"][:1]))
        op = layer_op(_conv_layer(spec))

        def ref(*t):
            return ref_conv2d(*t, stride=spec["stride"], padding=spec["padding"])

        out, leaves, upstream = assert_vjp_matches(op, ref, arrays)
        assert_matches_finite_differences(op, arrays, out, leaves, upstream)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(2)
        arrays = [_array(rng, (2, 3, 6, 6)), _array(rng, (4, 3, 3, 3)), _array(rng, (4,))]
        assert_vjp_matches(
            layer_op(Conv2d(3, 4, 3, padding=1)),
            lambda *t: ref_conv2d(*t, padding=1),
            arrays,
            grad_flags=[False, True, True],
        )


class TestSingleNodeLinear:
    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 7, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_forward_and_vjp(self, x_shape, bias):
        rng = np.random.default_rng(3)
        arrays = [_array(rng, x_shape), _array(rng, (6, 4))]
        if bias:
            arrays.append(_array(rng, (6,)))
        op = layer_op(Linear(4, 6, bias=bias))
        taped = op(*(Tensor(a) for a in arrays))
        np.testing.assert_array_equal(taped.data, F.linear_array(*arrays))
        out, leaves, upstream = assert_vjp_matches(op, ref_linear, arrays)
        assert_matches_finite_differences(op, arrays, out, leaves, upstream)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(4)
        arrays = [_array(rng, (3, 7, 4)), _array(rng, (6, 4)), _array(rng, (6,))]
        assert_vjp_matches(
            layer_op(Linear(4, 6)), ref_linear, arrays, grad_flags=[False, True, True]
        )


class TestSingleNodeGroupNorm:
    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_forward_and_vjp(self, groups):
        rng = np.random.default_rng(5)
        arrays = [
            (_array(rng, (2, 8, 4, 4), 2.0) + 1.5).astype(np.float32),
            (1.0 + _array(rng, (8,), 0.3)).astype(np.float32),
            _array(rng, (8,), 0.3),
        ]
        op = layer_op(GroupNorm(groups, 8))

        def ref(*t):
            return ref_group_norm(t[0], groups, t[1], t[2])

        taped = op(*(Tensor(a) for a in arrays))
        expected = F._group_norm_forward(arrays[0], groups, *arrays[1:], 1e-5)[0]
        np.testing.assert_array_equal(taped.data, expected)
        out, leaves, upstream = assert_vjp_matches(op, ref, arrays)
        assert_matches_finite_differences(op, arrays, out, leaves, upstream)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(6)
        arrays = [_array(rng, (2, 8, 3, 3)), np.ones(8, np.float32), np.zeros(8, np.float32)]
        assert_vjp_matches(
            layer_op(GroupNorm(2, 8)),
            lambda *t: ref_group_norm(t[0], 2, t[1], t[2]),
            arrays,
            grad_flags=[False, True, True],
        )


class TestSingleNodeLayerNorm:
    @pytest.mark.parametrize("x_shape", [(5, 8), (3, 7, 8)], ids=["2d", "3d"])
    def test_forward_is_the_tape_and_vjp_matches(self, x_shape):
        rng = np.random.default_rng(10)
        arrays = [
            (_array(rng, x_shape, 3.0) - 1.0).astype(np.float32),
            (1.0 + _array(rng, (8,), 0.3)).astype(np.float32),
            _array(rng, (8,), 0.3),
        ]
        op = layer_op(LayerNorm(8))
        # The kernel keeps the composition's arithmetic, so forwards agree bit for bit.
        np.testing.assert_array_equal(
            op(*(Tensor(a) for a in arrays)).data,
            ref_layer_norm(*(Tensor(a) for a in arrays)).data,
        )
        out, leaves, upstream = assert_vjp_matches(op, ref_layer_norm, arrays)
        assert_matches_finite_differences(op, arrays, out, leaves, upstream)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(11)
        arrays = [_array(rng, (4, 8)), np.ones(8, np.float32), np.zeros(8, np.float32)]
        assert_vjp_matches(
            layer_op(LayerNorm(8)), ref_layer_norm, arrays, grad_flags=[False, True, True]
        )


class TestSingleNodeEmbedding:
    def test_forward_and_vjp_match_the_gather(self):
        # Repeated indices: the VJP must add, not assign, into a row.
        indices = np.array([[1, 4, 1], [0, 4, 4]])
        weight = _array(np.random.default_rng(12), (6, 5))
        layer, new, old = Embedding(6, 5), Tensor(weight, True), Tensor(weight, True)
        out = layer_op(layer)(indices, new)
        expected = ref_embedding(old, indices)
        np.testing.assert_array_equal(out.data, expected.data)
        assert out._parents == (new,)
        upstream = np.random.default_rng(13).normal(size=out.shape).astype(np.float32)
        out.backward(upstream)
        expected.backward(upstream)
        np.testing.assert_allclose(new.grad, old.grad, **VJP_TOL)
        assert not new.grad[[2, 3, 5]].any()


class TestSingleNodeSoftmaxAndSilu:
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax(self, axis):
        # The oracle node runs the library's softmax_array and softmax_backward.
        arrays = [_array(np.random.default_rng(7), (3, 4, 5), 2.0)]
        taped = softmax(Tensor(arrays[0]), axis=axis)
        np.testing.assert_array_equal(taped.data, F.softmax_array(arrays[0], axis=axis))
        out, leaves, upstream = assert_vjp_matches(
            lambda t: softmax(t, axis=axis), lambda t: ref_softmax(t, axis=axis), arrays
        )
        assert_matches_finite_differences(
            lambda t: softmax(t, axis=axis), arrays, out, leaves, upstream
        )

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_log_softmax(self, axis):
        # The closed-form cross-entropy (log-softmax and its VJP) against the
        # primitive composition, on soft targets along ``axis``.
        rng = np.random.default_rng(8)
        logits = _array(rng, (3, 4, 5), 2.0)
        targets = F.softmax_array(_array(rng, (3, 4, 5), 2.0), axis=axis)
        loss, grad = F.cross_entropy(
            np.moveaxis(logits, axis, -1), np.moveaxis(targets, axis, -1)
        )
        leaf = Tensor(logits, requires_grad=True)
        expected = -(Tensor(targets) * ref_log_softmax(leaf, axis=axis)).sum(axis=axis).mean()
        expected.backward()
        assert loss == pytest.approx(expected.item(), rel=1e-6)
        np.testing.assert_allclose(np.moveaxis(grad, -1, axis), leaf.grad, **VJP_TOL)

    def test_silu(self):
        arrays = [_array(np.random.default_rng(9), (4, 6), 2.0)]
        silu = SiLU()

        def op(t):
            return module_node(silu, t)

        np.testing.assert_array_equal(op(Tensor(arrays[0])).data, F.silu_array(arrays[0]))
        out, leaves, upstream = assert_vjp_matches(op, ref_silu, arrays)
        assert_matches_finite_differences(op, arrays, out, leaves, upstream)

    def test_each_is_one_node(self):
        # The oracle wrappers record one node per call, so each VJP under
        # test runs whole; substituted parameter leaves are parents too.
        x = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        for out in (softmax(x), module_node(SiLU(), x)):
            assert out._parents == (x,)
        weight = Tensor(np.zeros((4, 3), np.float32), requires_grad=True)
        bias = Tensor(np.zeros(4, np.float32), requires_grad=True)
        assert layer_op(Linear(3, 4))(x, weight, bias)._parents == (x, weight, bias)


def test_hotspot_training_step_graph_stays_small(monkeypatch):
    """One hotspot-expansion training iteration runs ONE U-Net reverse pass.

    The loss gradient is closed form and the U-Net is one ``backward`` call.
    The per-layer tape recorded 192 nodes for the same step, and the
    primitive-op tape before it 547.
    """
    plan = builtin_registry().resolve("hotspot-expansion").lower()
    config = plan.config
    diffusion = DiscreteDiffusion(UNet(config.unet_config()), config.diffusion)
    unet = config.unet_config()
    x0 = np.random.default_rng(0).integers(
        0, 2, size=(config.batch_size, unet.in_channels, unet.image_size, unet.image_size)
    )
    calls = []
    reverse = UNet.backward

    def counting(self, *args, **kwargs):
        calls.append(self)
        return reverse(self, *args, **kwargs)

    monkeypatch.setattr(UNet, "backward", counting)
    history = diffusion.fit(x0, iterations=1, batch_size=config.batch_size, rng=0)
    assert calls == [diffusion.model]
    assert history[0]["grad_norm"] > 0.0
