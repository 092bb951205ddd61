"""Few-step respaced sampling: schedule math, bit-identity, knob routing.

The contract under test (see ``docs/sampling.md``):

* a ``RespacedSchedule`` with ``steps`` equal to the chain length is
  *bit-identical* to the full-chain sampler, at every chunk size;
* a strided schedule changes the sampled values but keeps the engine's
  chunk-invariance / ``first_index`` determinism contract intact;
* composed jump-posterior tables equal the brute-force matrix products;
* the ``sampling.steps`` knob routes through ``DiffPatternConfig``, the
  scenario registry and the CLI override mapping, rejecting invalid values
  with errors that name the culprit.
"""

import numpy as np
import pytest

from repro.diffusion import (
    DiffusionConfig,
    DiscreteDiffusion,
    RespacedSchedule,
    respaced_timesteps,
)
from repro.pipeline import DiffPatternConfig, SamplingEngine
from repro.scenarios import ScenarioError, builtin_registry

from test_sampling_engine import tiny_unet


@pytest.fixture(scope="module")
def diffusion():
    return DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=8, lambda_ce=0.05))


@pytest.fixture(scope="module")
def transition(diffusion):
    return diffusion.transition


class TestRespacedTimesteps:
    def test_full_chain_is_every_step(self):
        assert respaced_timesteps(8, 8) == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_single_step_keeps_only_the_top(self):
        assert respaced_timesteps(32, 1) == (32,)

    def test_even_spacing_anchors_the_chain_top(self):
        taus = respaced_timesteps(32, 6)
        assert taus == (1, 7, 13, 20, 26, 32)
        assert taus[-1] == 32

    def test_strictly_increasing_for_every_count(self):
        for chain in (1, 2, 7, 32, 100):
            for steps in range(1, chain + 1):
                taus = respaced_timesteps(chain, steps)
                assert len(taus) == steps
                assert taus[-1] == chain
                assert all(b > a for a, b in zip(taus, taus[1:]))

    @pytest.mark.parametrize("steps", [0, -1, 9, 2.5, True, "6"])
    def test_rejects_invalid_steps(self, steps):
        with pytest.raises(ValueError):
            respaced_timesteps(8, steps)


class TestRespacedSchedule:
    def test_default_is_the_full_chain(self, transition):
        schedule = RespacedSchedule(transition)
        assert schedule.num_steps == schedule.chain_steps == 8
        assert schedule.jumps[0] == (8, 7)
        assert schedule.jumps[-1] == (1, 0)

    def test_strided_jump_structure(self, transition):
        schedule = RespacedSchedule(transition, steps=3)
        assert schedule.timesteps == (1, 4, 8)
        assert schedule.jumps == ((8, 4), (4, 1), (1, 0))

    def test_jump_matrix_is_the_product_of_skipped_steps(self, transition):
        schedule = RespacedSchedule(transition, steps=3)
        brute = np.eye(2)
        for k in range(5, 9):
            brute = brute @ transition.q_matrix(k)
        np.testing.assert_allclose(schedule.jump_matrix(8, 4), brute)
        # jump over the whole chain equals the cumulative matrix
        np.testing.assert_allclose(
            schedule.jump_matrix(8, 0), transition.q_bar_matrix(8)
        )

    def test_jump_matrix_rejects_bad_bounds(self, transition):
        schedule = RespacedSchedule(transition, steps=3)
        for cur, prev in ((4, 4), (3, 4), (9, 0), (0, -1)):
            with pytest.raises(ValueError):
                schedule.jump_matrix(cur, prev)

    def test_composed_table_matches_bayes_quotient(self, transition):
        schedule = RespacedSchedule(transition, steps=3)
        table = schedule.posterior_table(8, 4)
        q_jump = schedule.jump_matrix(8, 4)
        q_bar_prev = transition.q_bar_matrix(4)
        q_bar_cur = transition.q_bar_matrix(8)
        for v in range(2):
            for i in range(2):
                expected = q_jump[:, v] * q_bar_prev[i, :] / q_bar_cur[i, v]
                expected /= expected.sum()
                np.testing.assert_allclose(table[v, i], expected)
        np.testing.assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_step_jump_is_the_transition_table(self, transition):
        # Delegation, not recomputation: the exact cached object comes back,
        # which is what makes steps == K bit-identical to the full chain.
        schedule = RespacedSchedule(transition, steps=8)
        assert schedule.posterior_table(5, 4) is transition.posterior_table(5)

    def test_final_jump_has_no_table(self, transition):
        schedule = RespacedSchedule(transition, steps=3)
        with pytest.raises(ValueError):
            schedule.posterior_table(1, 0)

    def test_tables_cached_and_immutable(self, transition):
        schedule = RespacedSchedule(transition, steps=3)
        table = schedule.posterior_table(8, 4, dtype=np.float32)
        assert table is schedule.posterior_table(8, 4, dtype=np.float32)
        assert table.dtype == np.float32
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.5


class TestEngineBitIdentity:
    def test_steps_equal_to_chain_is_bit_identical(self, diffusion):
        full = SamplingEngine(diffusion, batch_size=8)
        respaced = SamplingEngine(diffusion, batch_size=8, steps=8)
        np.testing.assert_array_equal(
            full.sample(6, seed=0), respaced.sample(6, seed=0)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_bit_identity_holds_at_every_chunk_size(self, diffusion, chunk):
        reference = SamplingEngine(diffusion, batch_size=8).sample(7, seed=3)
        respaced = SamplingEngine(diffusion, batch_size=chunk, steps=8)
        np.testing.assert_array_equal(reference, respaced.sample(7, seed=3))

    def test_strided_changes_values_deterministically(self, diffusion):
        full = SamplingEngine(diffusion, batch_size=8)
        strided = SamplingEngine(diffusion, batch_size=8, steps=3)
        a = strided.sample(6, seed=0)
        assert not np.array_equal(a, full.sample(6, seed=0))
        np.testing.assert_array_equal(a, strided.sample(6, seed=0))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_strided_is_chunk_invariant(self, diffusion, chunk):
        reference = SamplingEngine(diffusion, batch_size=8, steps=3).sample(7, seed=11)
        strided = SamplingEngine(diffusion, batch_size=chunk, steps=3)
        np.testing.assert_array_equal(reference, strided.sample(7, seed=11))

    def test_strided_first_index_windows(self, diffusion):
        strided = SamplingEngine(diffusion, batch_size=8, steps=3)
        full = strided.sample(6, seed=4)
        window = strided.sample(3, seed=4, first_index=2)
        np.testing.assert_array_equal(full[2:5], window)

    def test_single_step_schedule_samples(self, diffusion):
        # steps=1: one network call, straight from stationary noise to x_0.
        engine = SamplingEngine(diffusion, batch_size=8, steps=1)
        samples = engine.sample(4, seed=0)
        assert samples.shape == (4, 4, 8, 8)
        assert set(np.unique(samples)).issubset({0, 1})
        assert engine.last_report.num_steps == 1

    def test_rejects_invalid_steps(self, diffusion):
        for steps in (0, 9, -2):
            with pytest.raises(ValueError):
                SamplingEngine(diffusion, steps=steps)


class TestReportAccounting:
    def test_model_evals_count_chunks_times_steps(self, diffusion):
        engine = SamplingEngine(diffusion, batch_size=2, steps=3)
        _, report = engine.sample_with_report(5, seed=0)
        assert report.num_steps == 3
        assert report.chain_steps == 8
        assert report.num_chunks == 3
        assert report.model_evals == 3 * 3
        assert report.evals_per_sample == pytest.approx(9 / 5)

    def test_full_chain_report_is_unchanged(self, diffusion):
        engine = SamplingEngine(diffusion, batch_size=8)
        _, report = engine.sample_with_report(2, seed=0)
        assert report.num_steps == report.chain_steps == 8
        assert "respaced" not in report.format()

    def test_respaced_format_names_both_counts(self, diffusion):
        engine = SamplingEngine(diffusion, batch_size=8, steps=3)
        _, report = engine.sample_with_report(2, seed=0)
        assert "3 of 8 steps (respaced)" in report.format()


class TestConfigAndScenarioRouting:
    def test_config_validates_range(self):
        config = DiffPatternConfig.tiny()
        assert config.diffusion.num_steps == 8
        for bad in (0, 9, -1):
            with pytest.raises(ValueError):
                DiffPatternConfig(diffusion=config.diffusion, sampling_steps=bad)

    def test_fewstep_builtin_lowers_to_six_of_thirty_two(self):
        plan = builtin_registry().resolve("fewstep-tables").lower()
        assert plan.config.sampling_steps == 6
        assert plan.config.diffusion.num_steps == 32
        # inherits the paper-tables pin
        assert plan.config.solver_mode == "slsqp"
        assert "6 of 32 steps (respaced)" in plan.summary()

    def test_hotspot_expansion_uses_the_fewstep_sampler(self):
        plan = builtin_registry().resolve("hotspot-expansion").lower()
        assert plan.config.sampling_steps == 6

    def test_zero_means_full_chain(self):
        spec = builtin_registry().resolve("fewstep-tables")
        plan = spec.with_overrides({"sampling": {"steps": 0}}).lower()
        assert plan.config.sampling_steps is None
        assert "full chain" in plan.summary()

    def test_out_of_range_steps_name_the_scenario(self):
        spec = builtin_registry().resolve("paper-tables")
        with pytest.raises(ScenarioError, match="paper-tables.*sampling.steps"):
            spec.with_overrides({"sampling": {"steps": 99}}).lower()

    def test_range_checked_against_overridden_chain(self):
        # 6 steps is valid against the 32-step chain but not against a
        # 4-step override applied in the same spec.
        spec = builtin_registry().resolve("fewstep-tables")
        with pytest.raises(ScenarioError, match="sampling.steps"):
            spec.with_overrides({"diffusion": {"num_steps": 4}}).lower()
        plan = spec.with_overrides(
            {"diffusion": {"num_steps": 4}, "sampling": {"steps": 2}}
        ).lower()
        assert plan.config.sampling_steps == 2

    def test_unknown_sampling_key_rejected(self):
        with pytest.raises(ScenarioError, match="stride"):
            builtin_registry().resolve("smoke").with_overrides(
                {"sampling": {"stride": 4}}
            )

    def test_cli_knob_maps_to_the_sampling_section(self):
        from repro.cli import knob_overrides

        assert knob_overrides(steps=6) == {"sampling": {"steps": 6}}
        assert "sampling" not in knob_overrides(seed=1)


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.pipeline import DiffPatternPipeline

        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        pipeline.prepare_data(16, rng=0)
        pipeline.train(iterations=3, rng=0)
        return pipeline

    def test_engine_rebuilds_when_steps_change(self, pipeline):
        pipeline.config.sampling_steps = None
        full_engine = pipeline.sampling_engine()
        assert full_engine.steps == 8
        pipeline.config.sampling_steps = 3
        strided_engine = pipeline.sampling_engine()
        assert strided_engine is not full_engine
        assert strided_engine.steps == 3
        assert pipeline.sampling_engine() is strided_engine  # cached again
        pipeline.config.sampling_steps = None

    def test_steps_equal_to_chain_matches_default_end_to_end(self, pipeline):
        pipeline.config.sampling_steps = None
        base = pipeline.generate_topologies(4, rng=5)
        pipeline.config.sampling_steps = 8
        np.testing.assert_array_equal(base, pipeline.generate_topologies(4, rng=5))
        pipeline.config.sampling_steps = None

    def test_fingerprint_tracks_the_schedule(self, pipeline):
        pipeline.config.sampling_steps = None
        full = pipeline.generation_graph().fingerprint(8, 0, 1)
        pipeline.config.sampling_steps = 3
        strided = pipeline.generation_graph().fingerprint(8, 0, 1)
        pipeline.config.sampling_steps = None
        assert full["sampling_steps"] == 8
        assert strided["sampling_steps"] == 3
        assert full != strided
