"""Unit tests for the U-Net backbone and its reverse pass."""

import numpy as np
import pytest
from tape import Tensor, concatenate, module_node, softmax
from taped_oracles import ref_silu, ref_upsample_nearest

from repro.nn import UNet, UNetConfig
from repro.nn import functional as F
from repro.nn.unet import ResidualBlock, SelfAttention2d, TimestepEmbedding, _norm_groups


def tiny_config(**overrides) -> UNetConfig:
    base = dict(
        in_channels=4,
        num_classes=2,
        image_size=8,
        model_channels=8,
        channel_mult=(1, 2),
        num_res_blocks=1,
        attention_resolutions=(4,),
        dropout=0.0,
        seed=0,
    )
    base.update(overrides)
    return UNetConfig(**base)


def one_hot_input(x, num_classes=2):
    n, c, h, w = x.shape
    encoded = np.zeros((n, c, num_classes, h, w), dtype=np.float32)
    for cls in range(num_classes):
        encoded[:, :, cls][x == cls] = 1.0
    return encoded.reshape(n, c * num_classes, h, w)


def call(module, x, *args):
    """One training-mode call of ``module`` as an oracle tape node."""
    return module_node(module, x, *args, train=True)


class TestHelpers:
    def test_norm_groups_divides(self):
        assert _norm_groups(16) == 8
        assert _norm_groups(12) == 4
        assert _norm_groups(7) == 1

    def test_timestep_embedding_shape(self):
        emb = TimestepEmbedding(8, 32, np.random.default_rng(0))
        out = emb.infer(np.array([1, 5, 9]))
        assert out.shape == (3, 32)

    def test_residual_block_preserves_spatial_shape(self):
        rng = np.random.default_rng(0)
        block = ResidualBlock(4, 8, 16, 0.0, rng)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        t = rng.normal(size=(2, 16)).astype(np.float32)
        assert block.infer(x, t).shape == (2, 8, 6, 6)

    def test_attention_preserves_shape(self):
        rng = np.random.default_rng(0)
        attn = SelfAttention2d(8, rng)
        x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
        assert attn.infer(x).shape == (2, 8, 4, 4)


class TestUNetConfig:
    def test_paper_defaults(self):
        cfg = UNetConfig(in_channels=16, image_size=32, paper_defaults=True)
        assert cfg.model_channels == 128
        assert cfg.channel_mult == (1, 2, 2, 2)

    def test_rejects_indivisible_image_size(self):
        with pytest.raises(ValueError):
            UNetConfig(in_channels=4, image_size=6, channel_mult=(1, 2, 2))


class TestUNetForwardBackward:
    def test_output_shape(self):
        net = UNet(tiny_config())
        x = np.random.default_rng(0).integers(0, 2, size=(2, 4, 8, 8))
        out = net.infer(one_hot_input(x), np.array([1, 3]))
        assert out.shape == (2, 4, 2, 8, 8)

    def test_output_depends_on_timestep(self):
        net = UNet(tiny_config())
        x = np.random.default_rng(0).integers(0, 2, size=(1, 4, 8, 8))
        out_a = net.infer(one_hot_input(x), np.array([1]))
        out_b = net.infer(one_hot_input(x), np.array([7]))
        assert not np.allclose(out_a, out_b)

    def test_gradients_reach_every_parameter(self):
        net = UNet(tiny_config())
        x = np.random.default_rng(0).integers(0, 2, size=(2, 4, 8, 8))
        cache = []
        logits = net.infer(one_hot_input(x), np.array([2, 5]), cache, train=True)
        target = np.zeros(logits.shape, dtype=np.float32)
        target[:, :, 0] = 1.0
        _, grad = F.cross_entropy(np.moveaxis(logits, 2, -1), np.moveaxis(target, 2, -1))
        net.backward(np.moveaxis(grad, -1, 2), cache)
        assert cache == []
        missing = [name for name, p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_three_level_configuration_runs(self):
        net = UNet(tiny_config(image_size=16, channel_mult=(1, 2, 2), in_channels=1))
        x = np.random.default_rng(0).integers(0, 2, size=(1, 1, 16, 16))
        out = net.infer(one_hot_input(x), np.array([1]))
        assert out.shape == (1, 1, 2, 16, 16)

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        net_a, net_b = UNet(cfg), UNet(cfg)
        x = np.random.default_rng(1).integers(0, 2, size=(1, 4, 8, 8))
        out_a = net_a.infer(one_hot_input(x), np.array([3]))
        out_b = net_b.infer(one_hot_input(x), np.array([3]))
        np.testing.assert_allclose(out_a, out_b)

    def test_parameter_count_grows_with_width(self):
        small = sum(p.size for p in UNet(tiny_config(model_channels=8)).parameters())
        large = sum(p.size for p in UNet(tiny_config(model_channels=16)).parameters())
        assert large > small * 2


# --------------------------------------------------------------------------- #
# Oracle: the per-layer taped forward the one-node U-Net replaced
# --------------------------------------------------------------------------- #
# These are the deleted ``forward`` methods of the U-Net submodules: each
# layer is its own tape node (SiLU and upsampling primitive tape ops), so the
# tape differentiates the network layer by layer and sums the skip and
# time-embedding gradients itself.  ``UNet.backward`` must reproduce their
# gradients.


def taped_time_embedding(emb, timesteps):
    base = F.sinusoidal_embedding(timesteps, emb.model_channels)
    hidden = ref_silu(call(emb.dense_in, Tensor(base)))
    return ref_silu(call(emb.dense_out, hidden))


def taped_residual_block(block, x, time_emb):
    hidden = call(block.conv1, ref_silu(call(block.norm1, x)))
    time_term = call(block.time_proj, ref_silu(time_emb))
    batch, channels = time_term.shape
    hidden = hidden + time_term.reshape(batch, channels, 1, 1)
    hidden = call(block.conv2, call(block.dropout, ref_silu(call(block.norm2, hidden))))
    return hidden + call(block.skip, x)


def taped_attention(attn, x):
    batch, channels, height, width = x.shape
    qkv = call(attn.qkv, call(attn.norm, x))
    qkv_flat = qkv.reshape(batch, 3, channels, height * width)
    q, k, v = qkv_flat[:, 0], qkv_flat[:, 1], qkv_flat[:, 2]
    scale = 1.0 / np.sqrt(channels)
    weights = softmax((q.transpose(0, 2, 1) @ k) * scale, axis=-1)
    out = (v @ weights.transpose(0, 2, 1)).reshape(batch, channels, height, width)
    return x + call(attn.proj, out)


def taped_block(kind, module, hidden, time_emb):
    if kind == "res":
        return taped_residual_block(module, hidden, time_emb)
    if kind == "attn":
        return taped_attention(module, hidden)
    if kind == "down":
        return call(module.conv, hidden)
    return call(module.conv, ref_upsample_nearest(hidden, 2))


def taped_unet(net, x_onehot, timesteps):
    config = net.config
    time_emb = taped_time_embedding(net.time_embedding, timesteps)
    hidden = call(net.conv_in, x_onehot)
    skips = [hidden]
    for kind, module in net.down_blocks:
        hidden = taped_block(kind, module, hidden, time_emb)
        if kind == "attn":
            skips[-1] = hidden
        else:
            skips.append(hidden)
    hidden = taped_residual_block(net.mid_block1, hidden, time_emb)
    hidden = taped_attention(net.mid_attn, hidden)
    hidden = taped_residual_block(net.mid_block2, hidden, time_emb)
    for kind, module in net.up_blocks:
        if kind == "res":
            hidden = concatenate([hidden, skips.pop()], axis=1)
        hidden = taped_block(kind, module, hidden, time_emb)
    out = call(net.conv_out, ref_silu(call(net.norm_out, hidden)))
    return out.reshape(
        x_onehot.shape[0],
        config.in_channels,
        config.num_classes,
        config.image_size,
        config.image_size,
    )


# Set from float32, not from a measurement: machine epsilon is 1.2e-7, and
# the two passes sum the same terms in a different order through ~30 layers
# (and the oracle embeds one row per sample where ``infer`` broadcasts one
# shared row), so ~100 epsilon bounds the drift.  Observed: ~1.5e-6.
GRAD_RTOL = 1e-5


def _input(config, batch, seed=0):
    rng = np.random.default_rng(seed)
    shape = (batch, config.in_channels * config.num_classes, config.image_size, config.image_size)
    return rng.random(shape, dtype=np.float32)


def _run(net, forward, inputs, timesteps, input_grad, seed=1):
    """Sum of ``<forward(x_i), u_i>`` over the calls, backpropagated once."""
    leaves = [Tensor(x, requires_grad=input_grad) for x in inputs]
    outs = [forward(net, leaf, steps) for leaf, steps in zip(leaves, timesteps)]
    rng = np.random.default_rng(seed)
    total = None
    for out in outs:
        term = (out * Tensor(rng.normal(size=out.shape).astype(np.float32))).sum()
        total = term if total is None else total + term
    total.backward()
    grads = {name: p.grad for name, p in net.named_parameters()}
    return [out.data for out in outs], grads, [leaf.grad for leaf in leaves]


def assert_reverse_pass_matches_oracle(config, timesteps, input_grad=True):
    """Same weights, inputs and upstream gradients through both forwards."""
    inputs = [_input(config, len(steps), seed=i) for i, steps in enumerate(timesteps)]
    results = [
        _run(UNet(config), forward, inputs, timesteps, input_grad)
        for forward in (call, taped_unet)
    ]
    (outs, grads, input_grads), (ref_outs, ref_grads, ref_input_grads) = results
    for out, ref in zip(outs, ref_outs):
        np.testing.assert_allclose(out, ref, rtol=GRAD_RTOL, atol=GRAD_RTOL)
    assert grads.keys() == ref_grads.keys()
    assert all(g is not None for g in grads.values())
    flat = np.concatenate([grads[name].ravel() for name in grads])
    ref_flat = np.concatenate([ref_grads[name].ravel() for name in grads])
    scale = np.linalg.norm(ref_flat)
    assert np.linalg.norm(flat - ref_flat) <= GRAD_RTOL * scale
    for name in grads:
        # Per parameter against the global scale: some gradients are
        # mathematically zero (a bias right before a one-channel-per-group
        # norm), so their own norm is rounding noise.
        assert np.linalg.norm(grads[name] - ref_grads[name]) <= GRAD_RTOL * scale, name
    for dx, ref in zip(input_grads, ref_input_grads):
        if input_grad:
            assert np.linalg.norm(dx - ref) <= GRAD_RTOL * np.linalg.norm(ref)
        else:
            assert dx is None and ref is None


class TestReversePass:
    def test_tiny_config(self):
        assert_reverse_pass_matches_oracle(tiny_config(), [np.full(3, 5)])

    def test_three_level_with_attention_at_16(self):
        config = tiny_config(
            in_channels=2, image_size=16, channel_mult=(1, 2, 2), num_res_blocks=2,
            attention_resolutions=(16,),
        )
        assert_reverse_pass_matches_oracle(config, [np.array([2, 7])])

    def test_dropout_in_train_mode_draws_identical_masks(self):
        config = tiny_config(dropout=0.5)
        assert_reverse_pass_matches_oracle(config, [np.full(2, 4)])
        # Both forwards consumed the same draws from the shared generator.
        nets = [UNet(config), UNet(config)]
        x = _input(config, 2)
        call(nets[0], Tensor(x), np.full(2, 4))
        taped_unet(nets[1], Tensor(x), np.full(2, 4))
        assert nets[0].mid_block1.dropout._rng.random() == nets[1].mid_block1.dropout._rng.random()

    def test_single_class_model(self):
        assert_reverse_pass_matches_oracle(tiny_config(num_classes=1), [np.array([4, 6])])

    def test_mixed_timesteps(self):
        assert_reverse_pass_matches_oracle(tiny_config(), [np.array([1, 5, 2, 5])])

    def test_two_calls_in_one_graph(self):
        assert_reverse_pass_matches_oracle(tiny_config(), [np.full(2, 3), np.array([1, 6, 2])])

    def test_constant_input_gets_no_gradient(self):
        assert_reverse_pass_matches_oracle(tiny_config(), [np.full(2, 3)], input_grad=False)

    def test_backward_can_run_twice(self):
        # The oracle node pops a copy of its cache, not the cache.
        net = UNet(tiny_config())
        out = call(net, Tensor(_input(net.config, 2)), np.full(2, 3))
        out.backward(np.ones(out.shape, dtype=np.float32))
        first = {name: p.grad for name, p in net.named_parameters()}
        net.zero_grad()
        out.zero_grad()
        out.backward(np.ones(out.shape, dtype=np.float32))
        for name, p in net.named_parameters():
            np.testing.assert_array_equal(p.grad, first[name])


class TestOneNode:
    def test_forward_records_one_node(self):
        # The whole network is one oracle node over infer and backward.
        net = UNet(tiny_config())
        x = Tensor(_input(net.config, 2))
        out = call(net, x, np.full(2, 3))
        assert out._parents == (x,)
        assert sum(1 for node in out.graph() if node._backward_fn is not None) == 1


# --------------------------------------------------------------------------- #
# Convolution input gradient: gather + matmul against the scatter it replaced
# --------------------------------------------------------------------------- #
def _scatter_columns(grad_cols, x_shape, weight_shape, stride, padding):
    """Adjoint of the tap gather: sum column gradients back onto the input."""
    n, c, h, w = x_shape
    kh, kw = weight_shape[2:]
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        return grad_cols.reshape(n, c, h, w)
    out_h, out_w, taps = F._conv_tap_geometry(h, w, kh, kw, stride, padding)
    grad_cols = grad_cols.reshape(n, c, kh * kw, out_h, out_w)
    grad_x = np.zeros(x_shape, dtype=grad_cols.dtype)
    for tap, dst_rows, dst_cols, src_rows, src_cols in taps:
        grad_x[:, :, src_rows, src_cols] += grad_cols[:, :, tap, dst_rows, dst_cols]
    return grad_x


CONV_GEOMETRIES = [
    ((kernel, kernel), stride, padding, size)
    for kernel in (1, 3, 5)
    for stride in (1, 2)
    for padding in (0, 1, 2)
    for size in ((8, 8), (7, 5), (9, 6))
    if padding <= kernel - 1
] + [
    (kernel, stride, padding, (7, 6))
    for kernel in ((3, 1), (1, 3), (5, 3))
    for stride in (1, 2)
    for padding in (0, 1)
    if padding <= min(kernel) - 1
]


class TestConvInputGradient:
    @pytest.mark.parametrize("kernel,stride,padding,size", CONV_GEOMETRIES)
    def test_matches_scatter(self, kernel, stride, padding, size):
        rng = np.random.default_rng([*kernel, stride, padding, *size])
        x_shape = (2, 3, *size)
        weight = rng.normal(size=(4, 3, *kernel)).astype(np.float32)
        out_h = (size[0] + 2 * padding - kernel[0]) // stride + 1
        out_w = (size[1] + 2 * padding - kernel[1]) // stride + 1
        grad = rng.normal(size=(2, 4, out_h, out_w)).astype(np.float32)
        grad_cols = np.matmul(weight.reshape(4, -1).T, grad.reshape(2, 4, -1))
        expected = _scatter_columns(grad_cols, x_shape, weight.shape, stride, padding)
        got = F.conv2d_input_grad(grad, weight, x_shape, stride, padding)
        assert got.shape == x_shape
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_padding_beyond_kernel_is_rejected(self):
        weight = np.zeros((2, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="padding <= kernel size - 1"):
            F.conv2d_input_grad(np.zeros((1, 2, 10, 10), np.float32), weight, (1, 2, 6, 6), 1, 3)
