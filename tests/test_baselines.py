"""Tests for the baseline topology generators (Table I competitors)."""

import numpy as np
import pytest
from tape import ParameterLeaf, Tensor, module_node, softmax
from taped_oracles import ref_embedding, ref_layer_norm, ref_silu, ref_upsample_nearest

from repro.baselines import (
    CAEConfig,
    CAEGenerator,
    LayouTransformerConfig,
    LayouTransformerGenerator,
    LegalGANConfig,
    LegalGANPostProcessor,
    LegalizedGenerator,
    RuleBasedGenerator,
    VCAEConfig,
    VCAEGenerator,
    matrix_to_tokens,
    tokens_to_matrix,
    validate_matrices,
)
from repro.baselines.cae import ConvDecoder, ConvEncoder
from repro.baselines.legalgan import _DenoisingCNN
from repro.baselines.transformer import SequenceModel
from repro.nn import functional as F


@pytest.fixture(scope="module")
def train_matrices(tiny_dataset):
    return tiny_dataset.topology_matrices("train")


class TestValidation:
    def test_validate_matrices_accepts_binary_stack(self, train_matrices):
        out = validate_matrices(train_matrices)
        assert out.dtype == np.uint8

    def test_validate_matrices_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            validate_matrices(np.zeros((4, 4)))

    def test_validate_matrices_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_matrices(np.zeros((0, 4, 4)))

    def test_validate_matrices_rejects_non_binary(self):
        with pytest.raises(ValueError):
            validate_matrices(np.full((2, 4, 4), 2))


class TestRuleBased:
    def test_generate_shape_and_binary(self, train_matrices):
        generator = RuleBasedGenerator().fit(train_matrices, rng=0)
        out = generator.generate(5, rng=1)
        assert out.shape == (5,) + train_matrices.shape[1:]
        assert set(np.unique(out)).issubset({0, 1})

    def test_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RuleBasedGenerator().generate(2)

    def test_requires_even_square_matrices(self):
        with pytest.raises(ValueError):
            RuleBasedGenerator().fit(np.zeros((2, 5, 5), dtype=np.uint8))

    def test_output_reuses_training_quadrants(self, train_matrices):
        generator = RuleBasedGenerator(units_per_quadrant=8).fit(train_matrices, rng=0)
        out = generator.generate(3, rng=0)
        half = train_matrices.shape[1] // 2
        # every generated quadrant must exist in the unit library
        units = {u.tobytes() for u in generator._units}
        assert out[0, :half, :half].tobytes() in units


class TestCAEAndVCAE:
    def test_cae_generate_shapes(self, train_matrices):
        generator = CAEGenerator(CAEConfig(iterations=15, base_channels=8, latent_dim=8))
        out = generator.fit(train_matrices, rng=0).generate(4, rng=1)
        assert out.shape == (4,) + train_matrices.shape[1:]
        assert set(np.unique(out)).issubset({0, 1})

    def test_cae_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CAEGenerator().generate(1)

    def test_cae_reconstruction_improves_with_training(self, train_matrices):
        short = CAEGenerator(CAEConfig(iterations=2, base_channels=8, latent_dim=8, seed=0))
        long = CAEGenerator(CAEConfig(iterations=80, base_channels=8, latent_dim=8, seed=0))
        short.fit(train_matrices, rng=0)
        long.fit(train_matrices, rng=0)

        def reconstruction_error(generator):
            x = train_matrices[:8, None].astype(np.float32)
            recon = generator.decoder.infer(generator.encoder.infer(x))
            return float(((recon - x) ** 2).mean())

        assert reconstruction_error(long) < reconstruction_error(short)

    def test_cae_requires_size_divisible_by_four(self):
        with pytest.raises(ValueError):
            CAEGenerator(CAEConfig(iterations=1)).fit(np.zeros((4, 6, 6), dtype=np.uint8))

    def test_vcae_generate_shapes(self, train_matrices):
        generator = VCAEGenerator(VCAEConfig(iterations=15, base_channels=8, latent_dim=8))
        out = generator.fit(train_matrices, rng=0).generate(4, rng=1)
        assert out.shape == (4,) + train_matrices.shape[1:]
        assert set(np.unique(out)).issubset({0, 1})

    def test_vcae_decoder_output_varies_with_latent(self, train_matrices):
        generator = VCAEGenerator(VCAEConfig(iterations=15, base_channels=8, latent_dim=8))
        generator.fit(train_matrices, rng=0)
        rng = np.random.default_rng(0)
        z_a = rng.standard_normal((1, 8)).astype(np.float32)
        z_b = rng.standard_normal((1, 8)).astype(np.float32)
        probs_a = generator.decoder.infer(z_a)
        probs_b = generator.decoder.infer(z_b)
        assert not np.allclose(probs_a, probs_b)

    def test_vcae_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            VCAEGenerator().generate(1)


class TestLegalGAN:
    def test_postprocessor_learns_to_denoise(self, train_matrices):
        post = LegalGANPostProcessor(LegalGANConfig(iterations=120, base_channels=8, corruption_rate=0.08))
        post.fit(train_matrices, rng=0)
        rng = np.random.default_rng(0)
        clean = train_matrices[:8]
        flips = (rng.random(clean.shape) < 0.08).astype(np.uint8)
        corrupted = np.abs(clean.astype(np.int64) - flips).astype(np.uint8)
        repaired = post.legalize(corrupted)
        err_before = float((corrupted != clean).mean())
        err_after = float((repaired != clean).mean())
        assert err_after < err_before

    def test_legalize_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LegalGANPostProcessor().legalize(np.zeros((1, 8, 8), dtype=np.uint8))

    def test_legalized_generator_composes(self, train_matrices):
        combo = LegalizedGenerator(
            CAEGenerator(CAEConfig(iterations=10, base_channels=8, latent_dim=8)),
            LegalGANPostProcessor(LegalGANConfig(iterations=10, base_channels=8)),
        )
        combo.fit(train_matrices, rng=0)
        out = combo.generate(3, rng=0)
        assert out.shape == (3,) + train_matrices.shape[1:]
        assert combo.name == "CAE+LegalGAN"


class TestLayouTransformer:
    def test_tokenisation_roundtrip(self):
        matrix = np.zeros((8, 8), dtype=np.uint8)
        matrix[1, 2:5] = 1
        matrix[4:6, 6] = 1
        tokens = matrix_to_tokens(matrix, 8)
        assert tokens[0] == 8 and tokens[-1] == 9
        np.testing.assert_array_equal(tokens_to_matrix(tokens, 8), matrix)

    def test_tokens_to_matrix_skips_malformed_triples(self):
        # row index out of range and reversed run are both ignored
        tokens = [8, 20, 1, 2, 3, 5, 2, 9]
        matrix = tokens_to_matrix(tokens, 8)
        assert matrix.sum() == 0

    def test_fit_and_generate_shapes(self, train_matrices):
        generator = LayouTransformerGenerator(
            LayouTransformerConfig(iterations=10, dim=16, layers=1, max_runs=10)
        )
        out = generator.fit(train_matrices, rng=0).generate(2, rng=1)
        assert out.shape == (2,) + train_matrices.shape[1:]
        assert set(np.unique(out)).issubset({0, 1})

    def test_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LayouTransformerGenerator().generate(1)

    def test_training_reduces_sequence_loss(self, train_matrices):
        config = LayouTransformerConfig(iterations=60, dim=16, layers=1, max_runs=10, seed=0)
        generator = LayouTransformerGenerator(config)
        generator.fit(train_matrices, rng=0)
        tokens = generator._encode_batch(train_matrices[:8])
        inputs, targets = tokens[:, :-1], tokens[:, 1:]
        logits = generator.model.infer(inputs)
        one_hot_targets = np.zeros(logits.shape, dtype=np.float32)
        np.put_along_axis(one_hot_targets, targets[..., None], 1.0, axis=-1)
        trained_loss, _ = F.cross_entropy(logits, one_hot_targets)
        vocab = train_matrices.shape[1] + 2
        assert trained_loss < np.log(vocab)


# --------------------------------------------------------------------------- #
# Composite modules against the per-layer tape they replaced
# --------------------------------------------------------------------------- #
# Each baseline network's ``backward`` chains its layers' VJPs by hand.  The
# oracles are the deleted taped ``forward`` methods, with every layer its own
# oracle node and SiLU / sigmoid / upsampling / attention on the primitive
# tape.  Rounding may differ, so the comparison is at float32 tolerance.
GRAD_RTOL = 1e-5


def call(module, x):
    return module_node(module, x)


def taped_encoder(encoder, x):
    hidden = ref_silu(call(encoder.conv2, ref_silu(call(encoder.conv1, x))))
    return call(encoder.proj, hidden.reshape(hidden.shape[0], -1))


def taped_decoder(decoder, z):
    hidden = ref_silu(call(decoder.expand, z)).reshape(z.shape[0], *decoder.hidden_shape)
    hidden = ref_silu(call(decoder.conv1, ref_upsample_nearest(hidden, 2)))
    hidden = ref_silu(call(decoder.conv2, ref_upsample_nearest(hidden, 2)))
    return call(decoder.head, hidden).sigmoid()


def taped_sequential(net, x):
    for layer in net.layers:
        x = call(layer, x)
    return x


def taped_attention(attn, x):
    _, seq_len, dim = x.shape
    q, k, v = (call(layer, x) for layer in (attn.query, attn.key, attn.value))
    scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(dim))
    mask = np.triu(np.full((seq_len, seq_len), -1e9, dtype=np.float32), k=1)
    return call(attn.proj, softmax(scores + Tensor(mask), axis=-1) @ v)


def taped_sequence_model(model, tokens):
    """The transformer's forward with attention, LayerNorm and Embedding on the primitive tape."""

    def norm(layer, x):
        return ref_layer_norm(x, ParameterLeaf(layer.weight), ParameterLeaf(layer.bias), layer.eps)

    positions = np.arange(tokens.shape[1])
    x = ref_embedding(ParameterLeaf(model.token_embedding.weight), tokens)
    x = x + ref_embedding(ParameterLeaf(model.position_embedding.weight), positions)
    for block in model.blocks:
        x = x + taped_attention(block.attn, norm(block.norm1, x))
        x = x + call(block.mlp_out, call(block.act, call(block.mlp_in, norm(block.norm2, x))))
    return call(model.head, norm(model.norm, x))


def _run(module, forward, inputs, input_grad):
    module.zero_grad()
    leaf = Tensor(inputs, requires_grad=True) if input_grad else inputs
    out = forward(module, leaf)
    out.backward(np.random.default_rng(9).normal(size=out.shape).astype(np.float32))
    return out.data, [p.grad for p in module.parameters()], getattr(leaf, "grad", None)


def assert_matches_per_layer_tape(module, oracle, inputs, input_grad=True):
    out, grads, dx = _run(module, call, inputs, input_grad)
    ref_out, ref_grads, ref_dx = _run(module, oracle, inputs, input_grad)
    np.testing.assert_allclose(out, ref_out, rtol=GRAD_RTOL, atol=GRAD_RTOL)
    assert all(g is not None for g in grads)
    flat = np.concatenate([g.ravel() for g in grads])
    ref_flat = np.concatenate([g.ravel() for g in ref_grads])
    scale = np.linalg.norm(ref_flat)
    assert np.linalg.norm(flat - ref_flat) <= GRAD_RTOL * scale
    for grad, ref in zip(grads, ref_grads):
        assert np.linalg.norm(grad - ref) <= GRAD_RTOL * scale
    if input_grad:
        assert np.linalg.norm(dx - ref_dx) <= GRAD_RTOL * np.linalg.norm(ref_dx)


class TestCompositeReversePass:
    def _images(self, channels=1):
        return np.random.default_rng(0).random((3, channels, 16, 16), dtype=np.float32)

    def test_cae_encoder(self):
        encoder = ConvEncoder(16, 4, 8, np.random.default_rng(1))
        assert_matches_per_layer_tape(encoder, taped_encoder, self._images(), input_grad=False)
        assert_matches_per_layer_tape(encoder, taped_encoder, self._images())

    def test_cae_decoder(self):
        decoder = ConvDecoder(16, 4, 8, np.random.default_rng(2))
        z = np.random.default_rng(3).normal(size=(3, 8)).astype(np.float32)
        assert_matches_per_layer_tape(decoder, taped_decoder, z)

    def test_legalgan_network(self):
        net = _DenoisingCNN(4, np.random.default_rng(4))
        assert_matches_per_layer_tape(net, taped_sequential, self._images(), input_grad=False)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_layoutransformer_layer_norm_and_embedding(self, layers):
        # The attention's reverse pass, LayerNorm's closed-form VJP and
        # Embedding's scatter-add against the primitive-op composition and
        # the tape's gather.  Repeated tokens exercise the scatter-add.
        model = SequenceModel(18, 32, 16, layers, np.random.default_rng(7))
        tokens = np.random.default_rng(8).integers(0, 18, size=(3, 12))
        assert_matches_per_layer_tape(model, taped_sequence_model, tokens, input_grad=False)
