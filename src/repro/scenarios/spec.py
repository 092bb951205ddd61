"""Declarative scenario specifications and their lowering to pipeline configs.

A *scenario* names one complete workload regime of the DiffPattern system:
which design rules are active, how large the topology grid is, how the
diffusion model is shaped and trained, how many patterns are generated with
how many geometric solutions each, and how the run is streamed, sharded and
persisted.  PRs 1-3 built the machinery (batched sampling, sharded
legalization, streaming graph + resumable library); scenarios are the
declarative layer that names whole configurations of that machinery so they
can be launched from the CLI (``python -m repro generate --scenario NAME``),
from the examples, and from the benchmark harnesses without hand-rolled
config literals.

A specification is a small nested mapping with a fixed schema::

    {
        "description": "...",
        "extends": "other-scenario",        # optional inheritance
        "preset": "tiny" | "laptop" | "paper",
        "rules":     {... DesignRules fields ...},
        "dataset":   {"matrix_size": ..., "channels": ..., "test_fraction": ...},
        "diffusion": {... DiffusionConfig fields ...},
        "prefilter": {... PrefilterConfig fields ...},
        "model":     {"model_channels": ..., "channel_mult": ..., ...},
        "training":  {"iterations": ..., "batch_size": ..., "num_patterns": ...},
        "engine":    {"sample_batch_size": ..., "workers": ..., ...},
        "sampling":  {"steps": ...},        # 0 = walk the full chain

        "run":       {"num_generated": ..., "num_solutions": ..., "seed": ...,
                      "dedup": ..., "retain_topologies": ...},
    }

Unknown sections and unknown keys raise :class:`ScenarioError` immediately —
a typo in a scenario file must fail loudly, not silently fall back to a
default.  The per-section key sets are derived from the underlying config
dataclasses, so a new ``DiffusionConfig`` field is automatically legal in
scenario files.

:meth:`ScenarioSpec.lower` turns a (resolved) specification into a
:class:`RunPlan`: a fully-built :class:`~repro.pipeline.DiffPatternConfig`
plus the run-shaping values (`num_generated`, `num_solutions`, seed, dedup
and retention flags) that live outside the config object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ..data import DatasetConfig
from ..diffusion import DiffusionConfig
from ..legalization import SOLVER_MODES, DesignRules
from ..prefilter import PrefilterConfig

__all__ = ["ScenarioError", "ScenarioSpec", "RunPlan", "SECTION_KEYS"]


class ScenarioError(ValueError):
    """A scenario specification is malformed, unknown, or inconsistent."""


#: Presets map to the :class:`~repro.pipeline.DiffPatternConfig` classmethod
#: constructors of the same name.
PRESETS = ("tiny", "laptop", "paper")

#: DiffPatternConfig fields settable through the ``model`` section.
_MODEL_KEYS = (
    "model_channels",
    "channel_mult",
    "num_res_blocks",
    "attention_resolutions",
    "dropout",
)

#: DiffPatternConfig fields settable through the ``engine`` section.
_ENGINE_KEYS = (
    "sample_batch_size",
    "workers",
    "legalize_chunk_size",
    "stream_chunk_size",
    "solver_mode",
)

#: Engine fields that hold strings (everything else coerces through int).
_ENGINE_STR_KEYS = ("solver_mode",)

#: DiffPatternConfig fields settable through the ``sampling`` section.
#: ``steps`` strides the reverse sampler (``sampling_steps`` on the config);
#: ``0`` means "walk the full chain" (TOML has no null literal).
_SAMPLING_KEYS = ("steps",)

_TRAINING_KEYS = ("iterations", "batch_size", "num_patterns")

_RUN_KEYS = (
    "num_generated",
    "num_solutions",
    "seed",
    "dedup",
    "retain_topologies",
)


def _dataclass_keys(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


#: section name -> allowed keys.  ``dataset`` excludes ``rules``: the rule
#: set is single-sourced from the ``rules`` section and injected at lowering.
SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "rules": _dataclass_keys(DesignRules),
    "dataset": tuple(k for k in _dataclass_keys(DatasetConfig) if k != "rules"),
    "diffusion": _dataclass_keys(DiffusionConfig),
    "prefilter": _dataclass_keys(PrefilterConfig),
    "model": _MODEL_KEYS,
    "training": _TRAINING_KEYS,
    "engine": _ENGINE_KEYS,
    "sampling": _SAMPLING_KEYS,
    "run": _RUN_KEYS,
}

_TOP_LEVEL_KEYS = ("description", "extends", "preset")

#: Config fields that are tuples of ints; TOML/JSON deliver lists.
_TUPLE_KEYS = ("channel_mult", "attention_resolutions")

#: Engine fields where ``0`` in a scenario file means "auto" (``None`` in the
#: config) — TOML has no null literal.
_AUTO_KEYS = ("workers", "legalize_chunk_size", "stream_chunk_size")


def _numeric(key: str, value: Any) -> "int | float":
    """Strict numeric coercion for scalar ``model`` fields.

    Rejects strings outright — ``int("8")`` would mask a quoting mistake in
    a scenario file as a valid value.
    """
    if isinstance(value, str):
        raise ValueError(f"{key} must be a number, not {value!r}")
    return float(value) if key == "dropout" else int(value)


def _coerce(section: str, key: str, value: Any) -> Any:
    if key in _TUPLE_KEYS and isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    if section == "engine" and key in _AUTO_KEYS and value == 0:
        return None
    if section == "sampling" and key == "steps" and value == 0:
        return None
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario specification (possibly still unresolved).

    Instances are immutable; :meth:`merged_over` and :meth:`with_overrides`
    return new specs.  ``extends`` is a *name* — resolving it against a
    registry is the job of :class:`~repro.scenarios.ScenarioRegistry`.
    """

    name: str
    description: str = ""
    extends: "str | None" = None
    preset: "str | None" = None
    #: section name -> {key: value} overrides, already validated and coerced.
    sections: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction / validation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Validate a raw mapping (e.g. one TOML table) into a spec.

        Raises
        ------
        ScenarioError
            On a non-mapping payload, an unknown section, an unknown key
            inside a section, a non-mapping section value, or an invalid
            ``preset``.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(f"scenario {name!r}: specification must be a mapping")
        unknown = set(data) - set(_TOP_LEVEL_KEYS) - set(SECTION_KEYS)
        if unknown:
            raise ScenarioError(
                f"scenario {name!r}: unknown section(s) {sorted(unknown)}; "
                f"allowed: {sorted(SECTION_KEYS)} plus {list(_TOP_LEVEL_KEYS)}"
            )
        preset = data.get("preset")
        if preset is not None and preset not in PRESETS:
            raise ScenarioError(
                f"scenario {name!r}: preset {preset!r} is not one of {PRESETS}"
            )
        extends = data.get("extends")
        if extends is not None and not isinstance(extends, str):
            raise ScenarioError(f"scenario {name!r}: extends must be a scenario name")
        sections: dict[str, dict[str, Any]] = {}
        for section, allowed in SECTION_KEYS.items():
            payload = data.get(section)
            if payload is None:
                continue
            if not isinstance(payload, Mapping):
                raise ScenarioError(
                    f"scenario {name!r}: section {section!r} must be a mapping"
                )
            bad = set(payload) - set(allowed)
            if bad:
                raise ScenarioError(
                    f"scenario {name!r}: unknown key(s) {sorted(bad)} in section "
                    f"{section!r}; allowed: {sorted(allowed)}"
                )
            sections[section] = {
                key: _coerce(section, key, value) for key, value in payload.items()
            }
        return cls(
            name=name,
            description=str(data.get("description", "")),
            extends=extends,
            preset=preset,
            sections=sections,
        )

    def as_dict(self) -> dict[str, Any]:
        """The inverse of :meth:`from_dict` (lossless round-trip codec)."""
        payload: dict[str, Any] = {}
        if self.description:
            payload["description"] = self.description
        if self.extends is not None:
            payload["extends"] = self.extends
        if self.preset is not None:
            payload["preset"] = self.preset
        for section, values in self.sections.items():
            if values:
                payload[section] = {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in values.items()
                }
        return payload

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def merged_over(self, parent: "ScenarioSpec") -> "ScenarioSpec":
        """This spec's values layered over ``parent`` (child wins per key).

        The result keeps this spec's name and drops ``extends`` (the chain is
        consumed by the merge); the parent's remaining ``extends`` link, if
        any, is inherited so a registry can keep walking the chain.
        """
        sections: dict[str, dict[str, Any]] = {
            section: dict(values) for section, values in parent.sections.items()
        }
        for section, values in self.sections.items():
            sections.setdefault(section, {}).update(values)
        return ScenarioSpec(
            name=self.name,
            description=self.description or parent.description,
            extends=parent.extends,
            preset=self.preset if self.preset is not None else parent.preset,
            sections=sections,
        )

    def with_overrides(self, overrides: Mapping[str, Mapping[str, Any]]) -> "ScenarioSpec":
        """A copy with extra section overrides applied (validated like a spec).

        This is how call sites layer run-time knobs (CLI flags, benchmark
        fast-mode scales) on top of a named scenario without mutating it.
        """
        child = ScenarioSpec.from_dict(self.name, dict(overrides))
        return child.merged_over(self)

    # ------------------------------------------------------------------ #
    # lowering
    # ------------------------------------------------------------------ #
    def lower(self) -> "RunPlan":
        """Build the concrete :class:`RunPlan` this scenario describes.

        The preset classmethod (default ``tiny``) constructs the base
        :class:`~repro.pipeline.DiffPatternConfig`; every section then
        overrides its slice of the config.  The ``rules`` section is applied
        *through* the preset constructor so the dataset and the pipeline
        share one :class:`~repro.legalization.DesignRules` instance.

        Raises
        ------
        ScenarioError
            If the spec still carries an unresolved ``extends`` link, or a
            value fails the underlying config dataclass validation.
        """
        from ..pipeline import DiffPatternConfig

        if self.extends is not None:
            raise ScenarioError(
                f"scenario {self.name!r} still extends {self.extends!r}; "
                "resolve it through a ScenarioRegistry before lowering"
            )
        preset = self.preset if self.preset is not None else "tiny"
        try:
            rules = DesignRules(**self.sections.get("rules", {}))
            config = getattr(DiffPatternConfig, preset)(rules=rules)
            dataset_overrides = self.sections.get("dataset", {})
            if dataset_overrides:
                config.dataset = replace(config.dataset, **dataset_overrides)
            diffusion_overrides = self.sections.get("diffusion", {})
            if diffusion_overrides:
                config.diffusion = replace(config.diffusion, **diffusion_overrides)
            prefilter_overrides = self.sections.get("prefilter", {})
            if prefilter_overrides:
                config.prefilter = replace(config.prefilter, **prefilter_overrides)
            # setattr would accept any payload silently; the numeric coercions
            # make a type-invalid value (e.g. model_channels = "big") fail
            # here, pointing at the scenario, not deep inside U-Net setup.
            for key, value in self.sections.get("model", {}).items():
                setattr(config, key, value if key in _TUPLE_KEYS else _numeric(key, value))
            for key, value in self.sections.get("engine", {}).items():
                if key in _ENGINE_STR_KEYS:
                    setattr(config, key, str(value))
                else:
                    setattr(config, key, None if value is None else int(value))
            # Engine fields bypass __post_init__, so re-validate the solve
            # strategy here where the error names the scenario.
            if config.solver_mode not in SOLVER_MODES:
                raise ScenarioError(
                    f"scenario {self.name!r}: solver_mode must be one of "
                    f"{SOLVER_MODES}, got {config.solver_mode!r}"
                )
            sampling = self.sections.get("sampling", {})
            if "steps" in sampling:
                value = sampling["steps"]
                config.sampling_steps = None if value is None else int(value)
            # Like the engine fields this bypasses __post_init__, and the
            # chain length may itself have been overridden above — re-check
            # the range here where the error names the scenario.
            if config.sampling_steps is not None and not (
                1 <= config.sampling_steps <= config.diffusion.num_steps
            ):
                raise ScenarioError(
                    f"scenario {self.name!r}: sampling.steps must lie in "
                    f"[1, {config.diffusion.num_steps}] (the trained chain "
                    f"length), got {config.sampling_steps}"
                )
            training = self.sections.get("training", {})
            if "iterations" in training:
                config.train_iterations = int(training["iterations"])
            if "batch_size" in training:
                config.batch_size = int(training["batch_size"])
            run = self.sections.get("run", {})
            if "seed" in run:
                config.seed = int(run["seed"])
            return RunPlan(
                scenario=self.name,
                description=self.description,
                config=config,
                num_training_patterns=int(training.get("num_patterns", 200)),
                num_generated=int(run.get("num_generated", 32)),
                num_solutions=int(run.get("num_solutions", 1)),
                seed=int(run.get("seed", config.seed)),
                dedup=bool(run.get("dedup", False)),
                retain_topologies=bool(run.get("retain_topologies", True)),
            )
        except ScenarioError:
            raise
        except (TypeError, ValueError) as error:
            raise ScenarioError(f"scenario {self.name!r}: {error}") from error


@dataclass
class RunPlan:
    """A lowered scenario: the config plus everything a run needs around it.

    ``config`` drives :class:`~repro.pipeline.DiffPatternPipeline`;
    the remaining fields parameterise
    :meth:`~repro.pipeline.DiffPatternPipeline.run` and the optional
    :class:`~repro.library.PatternLibrary` binding.
    """

    scenario: str
    description: str
    config: Any  # DiffPatternConfig (typed loosely to avoid an import cycle)
    num_training_patterns: int
    num_generated: int
    num_solutions: int
    seed: int
    dedup: bool
    retain_topologies: bool

    def summary(self) -> str:
        """One-paragraph human description of what this plan will run."""
        cfg = self.config
        lines = [
            f"scenario           {self.scenario}",
            f"  rules            space>={cfg.rules.space_min} width>={cfg.rules.width_min} "
            f"area in [{cfg.rules.area_min}, {cfg.rules.area_max}]",
            f"  dataset          matrix {cfg.dataset.matrix_size}x{cfg.dataset.matrix_size}, "
            f"{cfg.dataset.channels} channels, {self.num_training_patterns} training patterns",
            f"  diffusion        {cfg.diffusion.num_steps} steps, "
            f"{cfg.train_iterations} training iterations",
            f"  generation       {self.num_generated} topologies x "
            f"{self.num_solutions} solution(s), seed {self.seed}",
            f"  engine           sample_batch={cfg.sample_batch_size}, "
            f"workers={cfg.workers}, stream_chunk={cfg.stream_chunk_size}, "
            f"solver={cfg.solver_mode}, "
            f"dedup={'on' if self.dedup else 'off'}",
            f"  sampling         "
            + (
                f"{cfg.sampling_steps} of {cfg.diffusion.num_steps} steps (respaced)"
                if cfg.sampling_steps is not None
                and cfg.sampling_steps != cfg.diffusion.num_steps
                else f"full chain ({cfg.diffusion.num_steps} steps)"
            ),
        ]
        if self.description:
            lines.insert(1, f"  description      {self.description}")
        return "\n".join(lines)
