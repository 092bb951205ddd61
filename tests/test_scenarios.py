"""Scenario spec validation, composition, file round-trip and lowering parity."""

from __future__ import annotations

import json

import pytest

from repro.diffusion import DiffusionConfig
from repro.pipeline import DiffPatternConfig
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    ScenarioRegistry,
    ScenarioSpec,
    builtin_registry,
    dump_scenarios,
    load_scenarios,
)


# --------------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------------- #
class TestSpecValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            ScenarioSpec.from_dict("bad", {"rulez": {"space_min": 32}})

    def test_unknown_key_in_section_rejected(self):
        for payload, key in (
            ({"rules": {"space_mim": 32}}, "space_mim"),
            # Removed knobs are unknown keys like any typo.
            ({"engine": {"batch_solve": False}}, "batch_solve"),
            ({"run": {"stream": False}}, "stream"),
            ({"engine": {"stream_chunk_size": 4}}, "stream_chunk_size"),
            ({"engine": {"legalize_chunk_size": 2}}, "legalize_chunk_size"),
        ):
            with pytest.raises(ScenarioError, match=key):
                ScenarioSpec.from_dict("bad", payload)

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            ScenarioSpec.from_dict("bad", {"rules": 32})

    def test_bad_preset_rejected(self):
        with pytest.raises(ScenarioError, match="preset"):
            ScenarioSpec.from_dict("bad", {"preset": "huge"})

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            ScenarioSpec.from_dict("bad", ["not", "a", "mapping"])

    def test_invalid_value_surfaces_at_lowering(self):
        spec = ScenarioSpec.from_dict("bad", {"rules": {"space_min": -1}})
        with pytest.raises(ScenarioError, match="space_min"):
            spec.lower()

    def test_unresolved_extends_refuses_to_lower(self):
        spec = ScenarioSpec.from_dict("child", {"extends": "parent"})
        with pytest.raises(ScenarioError, match="resolve"):
            spec.lower()

    def test_type_invalid_training_value_is_scenario_error(self):
        spec = ScenarioSpec.from_dict("bad", {"training": {"iterations": "fast"}})
        with pytest.raises(ScenarioError, match="fast"):
            spec.lower()

    def test_type_invalid_model_value_is_scenario_error(self):
        spec = ScenarioSpec.from_dict("bad", {"model": {"model_channels": "big"}})
        with pytest.raises(ScenarioError, match="big"):
            spec.lower()

    def test_type_invalid_engine_value_is_scenario_error(self):
        spec = ScenarioSpec.from_dict("bad", {"engine": {"workers": "many"}})
        with pytest.raises(ScenarioError, match="many"):
            spec.lower()

    def test_engine_zero_means_auto(self):
        spec = ScenarioSpec.from_dict("auto", {"engine": {"workers": 0}})
        assert spec.lower().config.workers is None

    def test_tuple_fields_coerced_from_lists(self):
        spec = ScenarioSpec.from_dict("m", {"model": {"channel_mult": [1, 2, 4]}})
        assert spec.lower().config.channel_mult == (1, 2, 4)

    def test_solver_mode_reaches_config(self):
        spec = ScenarioSpec.from_dict("pinned", {"engine": {"solver_mode": "slsqp"}})
        assert spec.lower().config.solver_mode == "slsqp"

    def test_solver_mode_defaults_to_auto(self):
        assert ScenarioSpec.from_dict("plain", {}).lower().config.solver_mode == "auto"

    def test_invalid_solver_mode_is_scenario_error(self):
        spec = ScenarioSpec.from_dict("bad", {"engine": {"solver_mode": "newton"}})
        with pytest.raises(ScenarioError, match="newton"):
            spec.lower()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("engine", "sample_batch_size", 0),
            ("engine", "workers", -1),
            ("training", "batch_size", 0),
            ("training", "num_patterns", 0),
            ("training", "iterations", -1),
            ("run", "num_generated", 0),
            ("run", "num_solutions", 0),
        ],
    )
    def test_out_of_range_size_fails_at_lowering(self, section, key, value):
        # Rejected at lowering, before a run spends its training time.
        spec = builtin_registry().resolve("smoke").with_overrides({section: {key: value}})
        with pytest.raises(ScenarioError, match=rf"'smoke': {section}\.{key} must be >="):
            spec.lower()

    def test_smallest_sizes_lower(self):
        spec = ScenarioSpec.from_dict(
            "small",
            {
                "engine": {"sample_batch_size": 1, "workers": 1},
                "training": {"batch_size": 1, "num_patterns": 1, "iterations": 0},
                "run": {"num_generated": 1, "num_solutions": 1},
            },
        )
        plan = spec.lower()
        assert (plan.config.sample_batch_size, plan.config.train_iterations) == (1, 0)
        assert (plan.num_training_patterns, plan.num_generated) == (1, 1)


# --------------------------------------------------------------------------- #
# registry / override chains
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_unknown_scenario_lists_available(self):
        with pytest.raises(ScenarioError, match="available:"):
            builtin_registry().resolve("no-such-scenario")

    def test_unknown_extends_target(self):
        registry = ScenarioRegistry()
        registry.register_dict("child", {"extends": "ghost"})
        with pytest.raises(ScenarioError, match="ghost"):
            registry.resolve("child")

    def test_cyclic_extends_chain(self):
        registry = ScenarioRegistry()
        registry.register_dict("a", {"extends": "b"})
        registry.register_dict("b", {"extends": "a"})
        with pytest.raises(ScenarioError, match="cyclic"):
            registry.resolve("a")

    def test_self_extends_chain(self):
        registry = ScenarioRegistry()
        registry.register_dict("selfish", {"extends": "selfish"})
        with pytest.raises(ScenarioError, match="cyclic"):
            registry.resolve("selfish")

    def test_duplicate_registration_rejected(self):
        registry = builtin_registry()
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register_dict("smoke", {})
        registry.register_dict("smoke", {"preset": "tiny"}, replace=True)

    def test_child_overrides_parent_per_key(self):
        registry = ScenarioRegistry()
        registry.register_dict(
            "base", {"preset": "tiny", "rules": {"space_min": 48, "width_min": 40}}
        )
        registry.register_dict("child", {"extends": "base", "rules": {"space_min": 96}})
        resolved = registry.resolve("child")
        assert resolved.extends is None
        rules = resolved.lower().config.rules
        assert rules.space_min == 96       # child wins
        assert rules.width_min == 40       # parent survives

    def test_grandparent_chain_flattens(self):
        registry = ScenarioRegistry()
        registry.register_dict("a", {"preset": "tiny", "run": {"seed": 1}})
        registry.register_dict("b", {"extends": "a", "run": {"num_generated": 5}})
        registry.register_dict("c", {"extends": "b", "run": {"num_solutions": 3}})
        plan = registry.resolve("c").lower()
        assert (plan.seed, plan.num_generated, plan.num_solutions) == (1, 5, 3)

    def test_with_overrides_validates(self):
        spec = builtin_registry().resolve("smoke")
        with pytest.raises(ScenarioError, match="unknown key"):
            spec.with_overrides({"run": {"num_genrated": 4}})

    def test_every_builtin_resolves_and_lowers(self):
        registry = builtin_registry()
        assert set(registry.names()) == set(BUILTIN_SCENARIOS)
        for name in registry.names():
            plan = registry.resolve(name).lower()
            assert plan.num_generated >= 1
            assert plan.config.tensor_size >= 1


# --------------------------------------------------------------------------- #
# file round-trip
# --------------------------------------------------------------------------- #
class TestFiles:
    def test_toml_loads_and_extends_builtin(self, tmp_path):
        path = tmp_path / "extra.toml"
        path.write_text(
            "[night]\n"
            'extends = "dense"\n'
            "[night.run]\n"
            "num_generated = 99\n"
        )
        registry = builtin_registry()
        specs = load_scenarios(path, registry=registry)
        assert [spec.name for spec in specs] == ["night"]
        plan = registry.resolve("night").lower()
        assert plan.num_generated == 99
        assert plan.dedup is True                    # inherited from dense

    def test_json_round_trip_preserves_lowering(self, tmp_path):
        registry = builtin_registry()
        specs = [registry.get(name) for name in registry.names()]
        path = dump_scenarios(specs, tmp_path / "all.json")
        reloaded = ScenarioRegistry()
        load_scenarios(path, registry=reloaded)
        assert reloaded.names() == registry.names()
        for name in registry.names():
            assert (
                reloaded.resolve(name).lower().config
                == registry.resolve(name).lower().config
            )

    def test_bad_suffix_rejected(self, tmp_path):
        path = tmp_path / "extra.yaml"
        path.write_text("night: {}\n")
        with pytest.raises(ScenarioError, match=".toml or .json"):
            load_scenarios(path)

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[night\n")
        with pytest.raises(ScenarioError, match="cannot parse"):
            load_scenarios(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenarios(tmp_path / "ghost.toml")

    def test_invalid_spec_in_file_registers_nothing(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"ok": {}, "bad": {"rules": {"space_mim": 1}}}))
        registry = ScenarioRegistry()
        with pytest.raises(ScenarioError, match="space_mim"):
            load_scenarios(path, registry=registry)
        assert registry.names() == []               # validate-all-then-register

    def test_collision_with_builtin_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"smoke": {"preset": "tiny"}}))
        with pytest.raises(ScenarioError, match="already registered"):
            load_scenarios(path, registry=builtin_registry())


# --------------------------------------------------------------------------- #
# lowering parity
# --------------------------------------------------------------------------- #
class TestLoweringParity:
    def test_paper_tables_matches_legacy_bench_config(self):
        """The benchmark scenario lowers bit-identically to the literal the
        benchmark conftest hand-rolled before the registry existed."""
        legacy = DiffPatternConfig.tiny()
        legacy.diffusion = DiffusionConfig(num_steps=32, lambda_ce=0.05)
        legacy.train_iterations = 900
        legacy.solver_mode = "slsqp"  # the scenario pins the bit-identical solve
        plan = builtin_registry().resolve("paper-tables").lower()
        assert plan.config == legacy
        assert plan.num_training_patterns == 256
        assert plan.num_generated == 24

    def test_bench_overrides_keep_parity_at_full_scale(self):
        """The conftest's override layering reproduces the same config when
        the overrides equal the scenario's own values."""
        plan = builtin_registry().resolve("paper-tables").with_overrides(
            {
                "diffusion": {"num_steps": 32},
                "training": {"iterations": 900, "num_patterns": 256},
                "engine": {"workers": 1},
                "run": {"num_generated": 24},
            }
        ).lower()
        assert plan.config == builtin_registry().resolve("paper-tables").lower().config

    def test_rules_single_sourced_into_dataset(self):
        plan = builtin_registry().resolve("sparse").lower()
        assert plan.config.rules.space_min == 96
        assert plan.config.dataset.rules is plan.config.rules

    def test_run_seed_reaches_config(self):
        spec = ScenarioSpec.from_dict("seeded", {"run": {"seed": 17}})
        plan = spec.lower()
        assert plan.seed == 17
        assert plan.config.seed == 17

    def test_lowering_is_repeatable(self):
        spec = builtin_registry().resolve("rule-migration")
        assert spec.lower().config == spec.lower().config

    def test_stream_pulls_sample_batch_size_per_step(self):
        registry = builtin_registry()
        assert registry.resolve("smoke").lower().config.sample_batch_size == 4
        assert registry.resolve("dense").lower().config.sample_batch_size == 32
        assert "sample_batch=4," in registry.resolve("smoke").lower().summary()

    def test_paper_tables_lineage_pins_slsqp_but_hotspot_opts_out(self):
        registry = builtin_registry()
        assert registry.resolve("paper-tables").lower().config.solver_mode == "slsqp"
        # rule-migration inherits the pin through extends...
        assert registry.resolve("rule-migration").lower().config.solver_mode == "slsqp"
        # ...while hotspot-expansion explicitly opts back into the fast path.
        assert registry.resolve("hotspot-expansion").lower().config.solver_mode == "auto"
