"""Integration tests for the end-to-end DiffPattern pipeline and harnesses."""

import numpy as np
import pytest

from repro.baselines import CAEConfig, CAEGenerator
from repro.drc import DesignRuleChecker
from repro.legalization import LARGER_SPACE_RULES, NORMAL_RULES, SMALLER_AREA_RULES
from repro.pipeline import (
    DiffPatternConfig,
    DiffPatternPipeline,
    DiffPatternTopologyGenerator,
    attach_reference_geometry,
    compare_complexity_distributions,
    evaluate_baseline,
    evaluate_diffpattern,
    evaluate_real_patterns,
    format_table,
    geometry_signatures,
    measure_solving_time,
    patterns_from_single_topology,
    patterns_under_rule_scenarios,
    render_pattern,
    render_topology,
    run_denoising_chain,
    run_efficiency_experiment,
)
from repro.squish import unfold


class TestConfig:
    def test_presets_have_consistent_unet(self):
        for preset in (DiffPatternConfig.tiny(), DiffPatternConfig.laptop(), DiffPatternConfig.paper()):
            unet = preset.unet_config()
            assert unet.in_channels == preset.dataset.channels
            assert unet.image_size == preset.tensor_size

    def test_paper_preset_matches_paper_numbers(self):
        paper = DiffPatternConfig.paper()
        assert paper.diffusion.num_steps == 1000
        assert paper.dataset.channels == 16
        assert paper.tensor_size == 32
        assert paper.model_channels == 128

    def test_rules_propagate_to_dataset(self):
        config = DiffPatternConfig.tiny(rules=LARGER_SPACE_RULES)
        assert config.dataset.rules == LARGER_SPACE_RULES


class TestPipelinePhases:
    def test_prepare_data_and_train(self, trained_tiny_pipeline):
        assert trained_tiny_pipeline.dataset is not None
        assert trained_tiny_pipeline.training_history

    def test_generate_topologies_shape(self, trained_tiny_pipeline):
        topologies = trained_tiny_pipeline.generate_topologies(3, rng=0)
        size = trained_tiny_pipeline.config.dataset.matrix_size
        assert topologies.shape == (3, size, size)
        assert set(np.unique(topologies)).issubset({0, 1})

    def test_generate_before_training_raises(self):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        with pytest.raises(RuntimeError):
            pipeline.generate_topologies(1)

    def test_train_before_data_raises(self):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        with pytest.raises(RuntimeError):
            pipeline.train(iterations=1)

    def test_legalize_counts_are_consistent(self, trained_tiny_pipeline, tiny_dataset):
        # Use real (legal) topologies so the pre-filter keeps them all and the
        # solver outcome is deterministic regardless of training quality.
        topologies = tiny_dataset.topology_matrices("test")[:4]
        result = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0)
        assert result.prefilter_reject_rate == 0.0
        assert len(result.kept_topologies) == 4
        assert result.num_patterns + result.unsolved >= len(result.kept_topologies) - result.unsolved

    def test_legalized_patterns_are_drc_clean(self, trained_tiny_pipeline, tiny_dataset):
        topologies = tiny_dataset.topology_matrices("test")[:4]
        result = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0)
        checker = DesignRuleChecker(trained_tiny_pipeline.config.rules)
        assert result.num_patterns > 0
        assert result.legality == 1.0
        assert all(checker.is_legal(p) for p in result.patterns)

    def test_diffpattern_l_mode_multiplies_patterns(self, trained_tiny_pipeline, tiny_dataset):
        topologies = tiny_dataset.topology_matrices("test")[:2]
        single = trained_tiny_pipeline.legalize(topologies, num_solutions=1, rng=0)
        multi = trained_tiny_pipeline.legalize(topologies, num_solutions=3, rng=0)
        assert multi.num_patterns > single.num_patterns

    def test_checkpoint_roundtrip(self, trained_tiny_pipeline, tmp_path):
        path = tmp_path / "diffpattern.npz"
        trained_tiny_pipeline.save_model(path)
        fresh = DiffPatternPipeline(trained_tiny_pipeline.config)
        fresh.dataset = trained_tiny_pipeline.dataset
        fresh.load_model(path)
        a = trained_tiny_pipeline.generate_topologies(2, rng=3)
        b = fresh.generate_topologies(2, rng=3)
        np.testing.assert_array_equal(a, b)

    def test_save_model_requires_model(self, tmp_path):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        with pytest.raises(RuntimeError):
            pipeline.save_model(tmp_path / "x.npz")

    def test_run_end_to_end(self):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        result = pipeline.run(
            num_training_patterns=24, num_generated=4, train_iterations=5, rng=0
        )
        assert result.topologies.shape[0] == 4
        # With an essentially untrained model most topologies are filtered
        # out; the invariant is that whatever survives is legal.
        assert result.legality in (0.0, 1.0)


class TestAdapterAndComparison:
    def test_topology_generator_adapter(self, trained_tiny_pipeline, tiny_dataset):
        adapter = DiffPatternTopologyGenerator(trained_tiny_pipeline)
        adapter.fit(tiny_dataset.topology_matrices("train"), rng=0)
        out = adapter.generate(2, rng=0)
        assert out.shape[0] == 2

    def test_adapter_requires_prepared_pipeline(self):
        pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
        adapter = DiffPatternTopologyGenerator(pipeline)
        with pytest.raises(RuntimeError):
            adapter.fit(np.zeros((2, 16, 16), dtype=np.uint8))

    def test_attach_reference_geometry(self, tiny_dataset):
        topologies = tiny_dataset.topology_matrices("test")[:3]
        references = tiny_dataset.reference_geometries("train")
        patterns = attach_reference_geometry(list(topologies), references, rng=0)
        assert len(patterns) == 3
        assert all(p.width == tiny_dataset.config.rules.pattern_size for p in patterns)

    def test_attach_reference_geometry_requires_matching_shape(self, tiny_dataset):
        references = tiny_dataset.reference_geometries("train")
        with pytest.raises(ValueError):
            attach_reference_geometry([np.zeros((4, 4), dtype=np.uint8)], references)

    def test_evaluate_real_patterns_row(self, tiny_dataset, rules):
        row = evaluate_real_patterns(tiny_dataset, rules)
        assert row.legality == 1.0
        assert row.generated_patterns == len(tiny_dataset)
        assert row.generated_diversity > 0

    def test_evaluate_baseline_row(self, tiny_dataset, rules):
        generator = CAEGenerator(CAEConfig(iterations=5, base_channels=8, latent_dim=8))
        row = evaluate_baseline("CAE", generator, tiny_dataset, rules, num_generated=4, rng=0)
        assert row.generated_patterns == 4
        assert 0.0 <= row.legality <= 1.0

    def test_evaluate_diffpattern_row_is_fully_legal(self, trained_tiny_pipeline):
        row = evaluate_diffpattern(trained_tiny_pipeline, num_generated=4, num_solutions=1, rng=0)
        assert row.name == "DiffPattern-S"
        # every produced pattern passed the white-box legaliser
        assert row.legality in (0.0, 1.0)
        if row.generated_patterns:
            assert row.legality == 1.0

    def test_format_table_contains_all_methods(self, tiny_dataset, rules):
        rows = [evaluate_real_patterns(tiny_dataset, rules)]
        text = format_table(rows)
        assert "Real Patterns" in text and "Legality" in text


class TestEfficiencyHarness:
    def test_measure_solving_time_positive(self, tiny_dataset, rules):
        topologies = tiny_dataset.topology_matrices("test")[:3]
        seconds = measure_solving_time(list(topologies), rules, rng=0)
        assert seconds > 0

    def test_run_efficiency_experiment(self, trained_tiny_pipeline):
        report = run_efficiency_experiment(trained_tiny_pipeline, num_samples=2, rng=0)
        assert report.sampling.seconds_per_sample > 0
        assert report.solving_random.seconds_per_sample > 0
        assert report.solving_existing.seconds_per_sample > 0
        assert "Solving-E" in report.format() or "Solving" in report.format()


class TestFigureHarnesses:
    def test_denoising_chain(self, trained_tiny_pipeline):
        chain = run_denoising_chain(trained_tiny_pipeline, chain_stride=2, rng=0)
        assert len(chain.matrices) >= 2
        assert len(chain.fill_ratios()) == len(chain.matrices)
        # The chain starts from (roughly uniform) noise.
        assert 0.3 < chain.fill_ratios()[0] < 0.7

    #: Chain labels of the tiny K = 8 model: x_K, the state after every
    #: stride-th jump, x_0.  The respaced 3-step engine walks 8 -> 4 -> 1 -> 0.
    CHAIN_LABELS = {
        (None, 1): (8, 7, 6, 5, 4, 3, 2, 1, 0),
        (None, 2): (8, 6, 4, 2, 0),
        (None, 3): (8, 5, 2, 0),
        (3, 1): (8, 4, 1, 0),
        (3, 2): (8, 1, 0),
        (3, 3): (8, 0),
    }

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("sampling_steps", [None, 3], ids=["full", "respaced"])
    def test_denoising_chain_labels_are_the_recorded_timesteps(
        self, trained_tiny_pipeline, monkeypatch, sampling_steps, stride
    ):
        # At stride 1 the chain holds every state the walk visits, x_K first;
        # every label of a strided chain must pick out the same state there.
        monkeypatch.setattr(trained_tiny_pipeline.config, "sampling_steps", sampling_steps)
        engine = trained_tiny_pipeline.sampling_engine()
        every = run_denoising_chain(trained_tiny_pipeline, chain_stride=1, rng=0)
        assert every.steps == [*engine.schedule.timesteps[::-1], 0]
        chain = run_denoising_chain(trained_tiny_pipeline, chain_stride=stride, rng=0)
        assert tuple(chain.steps) == self.CHAIN_LABELS[sampling_steps, stride]
        assert len(chain.steps) == len(chain.matrices)
        for step, matrix in zip(chain.steps, chain.matrices):
            np.testing.assert_array_equal(matrix, every.matrices[every.steps.index(step)])
        # Recording the chain leaves the sample itself unchanged.
        np.testing.assert_array_equal(chain.matrices[-1], unfold(engine.sample(1, seed=0)[0]))

    def test_patterns_from_single_topology_are_distinct(self, two_shape_topology, rules):
        patterns = patterns_from_single_topology(two_shape_topology, rules, num_patterns=4, rng=0)
        assert len(patterns) == 4
        assert len(set(geometry_signatures(patterns))) > 1
        assert all(np.array_equal(p.topology, two_shape_topology) for p in patterns)

    def test_patterns_under_rule_scenarios(self, two_shape_topology):
        scenarios = [
            ("normal", NORMAL_RULES),
            ("larger space", LARGER_SPACE_RULES),
            ("smaller area", SMALLER_AREA_RULES),
        ]
        results = patterns_under_rule_scenarios(two_shape_topology, scenarios, rng=0)
        assert [r.name for r in results] == ["normal", "larger space", "smaller area"]
        assert all(r.legal for r in results if r.pattern is not None)
        assert any(r.pattern is not None for r in results)

    def test_complexity_comparison(self, tiny_dataset):
        real = tiny_dataset.real_patterns("train")
        generated = tiny_dataset.real_patterns("test")
        comparison = compare_complexity_distributions(real, generated)
        assert 0.0 <= comparison.overlap() <= 1.0
        (real_mean, _), (gen_mean, _) = comparison.mean_complexity()
        assert real_mean >= 0 and gen_mean >= 0

    def test_render_helpers(self, two_shape_topology, tiny_dataset):
        art = render_topology(two_shape_topology)
        assert "#" in art and "." in art
        pattern_art = render_pattern(tiny_dataset.real_patterns()[0], width=24)
        assert len(pattern_art.splitlines()) >= 1
