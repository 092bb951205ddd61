"""Parity and behaviour tests for the batched gradient-free sampling engine.

The engine's contract is strong: for a fixed seed, the generated topology
tensors are *element-wise identical* no matter how the samples are chunked —
one at a time (the sequential sampler), one big batch, or any chunk size in
between.  The forward pass it runs, ``UNet.infer`` without a cache, must be
batch-invariant and apply no dropout.
"""

import numpy as np
import pytest
from tape import Tensor

from repro.diffusion import DiffusionConfig, DiscreteDiffusion
from repro.nn import UNet, UNetConfig
from repro.pipeline import SamplingEngine, resolve_seed


def tiny_unet(channels=4, size=8, classes=2, dropout=0.0):
    return UNet(
        UNetConfig(
            in_channels=channels,
            num_classes=classes,
            image_size=size,
            model_channels=8,
            channel_mult=(1, 2),
            num_res_blocks=1,
            attention_resolutions=(4,),
            dropout=dropout,
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def diffusion():
    return DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=8, lambda_ce=0.05))


@pytest.fixture(scope="module")
def engine(diffusion):
    return SamplingEngine(diffusion, batch_size=8)


class TestInferenceForwardParity:
    def test_infer_is_batch_invariant(self):
        net = tiny_unet()
        rng = np.random.default_rng(2)
        x = rng.random((5, 8, 8, 8)).astype(np.float32)
        timesteps = np.full(5, 4, dtype=np.int64)
        batched = net.infer(x, timesteps)
        for i in range(5):
            single = net.infer(x[i : i + 1], timesteps[i : i + 1])
            np.testing.assert_array_equal(batched[i : i + 1], single)

    def test_group_norm_array_matches_taped_on_large_mean_inputs(self):
        # Regression: a two-moment variance (E[x²]−E[x]²) cancels in float32
        # once a feature map's mean dwarfs its spread; the array kernel must
        # use the centred variance, like the primitive-op composition.
        from taped_oracles import ref_group_norm

        from repro.nn.modules import GroupNorm

        norm = GroupNorm(4, 8)
        rng = np.random.default_rng(0)
        x = (rng.normal(0.0, 0.01, size=(2, 8, 6, 6)) + 30.0).astype(np.float32)
        taped = ref_group_norm(
            Tensor(x), 4, Tensor(norm.weight.data), Tensor(norm.bias.data)
        ).numpy()
        inferred = norm.infer(x)
        np.testing.assert_allclose(taped, inferred, rtol=1e-3, atol=1e-3)

    def test_infer_skips_dropout(self):
        net = tiny_unet(dropout=0.5)
        rng = np.random.default_rng(3)
        x = rng.random((2, 8, 8, 8)).astype(np.float32)
        timesteps = np.full(2, 2, dtype=np.int64)
        np.testing.assert_array_equal(net.infer(x, timesteps), net.infer(x, timesteps))


class TestEngineParity:
    def test_batched_equals_sequential(self, diffusion, engine):
        batched = engine.sample(6, seed=0)
        sequential = SamplingEngine(diffusion, batch_size=1).sample(6, seed=0)
        np.testing.assert_array_equal(batched, sequential)

    def test_chunking_does_not_change_samples(self, diffusion, engine):
        reference = engine.sample(7, seed=11)
        for chunk in (2, 3, 5, 7):
            chunked = SamplingEngine(diffusion, batch_size=chunk).sample(7, seed=11)
            np.testing.assert_array_equal(reference, chunked)

    def test_prefix_stability(self, engine):
        many = engine.sample(6, seed=4)
        few = engine.sample(3, seed=4)
        np.testing.assert_array_equal(many[:3], few)

    def test_first_index_offsets_the_stream(self, engine):
        # A windowed pull equals the same window of one monolithic call:
        # the streaming graph's chunked sampling rests on this.
        full = engine.sample(6, seed=4)
        window = engine.sample(3, seed=4, first_index=2)
        np.testing.assert_array_equal(full[2:5], window)

    def test_first_index_rejects_negative(self, engine):
        with pytest.raises(ValueError):
            engine.sample(2, seed=0, first_index=-1)

    def test_shapes_and_values(self, engine):
        samples = engine.sample(3, seed=0)
        assert samples.shape == (3, 4, 8, 8)
        assert set(np.unique(samples)).issubset({0, 1})

    def test_chain_parity_and_consistency(self, diffusion, engine):
        samples, chain, _ = engine.sample_chain(2, seed=0, chain_stride=2)
        _, chain_seq, _ = SamplingEngine(diffusion, batch_size=1).sample_chain(
            2, seed=0, chain_stride=2
        )
        assert len(chain) == len(chain_seq) >= 2
        for batched_state, seq_state in zip(chain, chain_seq):
            np.testing.assert_array_equal(batched_state, seq_state)
        np.testing.assert_array_equal(chain[-1], samples)
        # the chain starts from (roughly uniform) noise
        assert 0.2 < chain[0].mean() < 0.8

    def test_rejects_bad_arguments(self, diffusion, engine):
        with pytest.raises(ValueError):
            SamplingEngine(diffusion, batch_size=0)
        with pytest.raises(ValueError):
            engine.sample(0, seed=0)


class TestEngineReport:
    def test_report_phases_and_throughput(self, diffusion):
        engine = SamplingEngine(diffusion, batch_size=2)
        samples, report = engine.sample_with_report(5, seed=0)
        assert samples.shape[0] == 5
        assert report.num_samples == 5
        assert report.num_chunks == 3
        assert report.total_seconds > 0
        assert report.model_seconds > 0
        assert report.samples_per_second > 0
        assert 0.0 < report.model_fraction <= 1.0
        assert "samples/s" in report.format()

    def test_last_report_retained(self, engine):
        engine.sample(2, seed=0)
        assert engine.last_report is not None
        assert engine.last_report.num_samples == 2


class TestSeedResolution:
    def test_int_passthrough(self):
        assert resolve_seed(7) == 7

    def test_generator_draws_deterministically(self):
        a = resolve_seed(np.random.default_rng(0))
        b = resolve_seed(np.random.default_rng(0))
        assert a == b

    def test_none_gives_random_seed(self):
        assert isinstance(resolve_seed(None), int)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_seed("seed")


class TestPosteriorTables:
    def test_table_matches_direct_formula(self, diffusion):
        transition = diffusion.transition
        for k in (1, 3, transition.num_steps):
            table = transition.posterior_table(k)
            q_k = transition.q_matrix(k)
            q_bar_prev = transition.q_bar_matrix(k - 1)
            q_bar_k = transition.q_bar_matrix(k)
            for v in range(2):
                for i in range(2):
                    expected = q_k[:, v] * q_bar_prev[i, :] / q_bar_k[i, v]
                    np.testing.assert_allclose(table[v, i], expected)

    def test_gathered_posteriors_normalised(self, diffusion):
        transition = diffusion.transition
        rng = np.random.default_rng(0)
        xk = rng.integers(0, 2, size=(2, 4, 8, 8))
        probs = transition.posterior_table(3)[xk]
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_float32_table_cached_separately(self, diffusion):
        transition = diffusion.transition
        t64 = transition.posterior_table(2)
        t32 = transition.posterior_table(2, dtype=np.float32)
        assert t64.dtype == np.float64
        assert t32.dtype == np.float32
        np.testing.assert_allclose(t64, t32, atol=1e-6)

    def test_tables_are_immutable(self, diffusion):
        table = diffusion.transition.posterior_table(1)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.5


class TestPipelineIntegration:
    def test_generate_topologies_deterministic(self, trained_tiny_pipeline):
        a = trained_tiny_pipeline.generate_topologies(3, rng=9)
        b = trained_tiny_pipeline.generate_topologies(3, rng=9)
        np.testing.assert_array_equal(a, b)

    def test_generation_is_chunk_invariant(self, trained_tiny_pipeline):
        engine = trained_tiny_pipeline.sampling_engine()
        wide = engine.sample(5, seed=1)
        narrow = SamplingEngine(engine.diffusion, batch_size=2).sample(5, seed=1)
        np.testing.assert_array_equal(wide, narrow)

    def test_last_sampling_report_populated(self, trained_tiny_pipeline):
        trained_tiny_pipeline.generate_topologies(2, rng=0)
        report = trained_tiny_pipeline.last_sampling_report
        assert report is not None
        assert report.num_samples == 2

    def test_engine_requires_model(self):
        from repro.pipeline import DiffPatternConfig, DiffPatternPipeline

        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        with pytest.raises(RuntimeError):
            pipeline.sampling_engine()
