"""Named scenario registry with inheritance resolution and built-ins.

The registry maps scenario names to :class:`~repro.scenarios.ScenarioSpec`
objects and resolves ``extends`` chains (child-over-parent merge, cycle and
unknown-target detection).  :func:`builtin_registry` returns a fresh registry
pre-populated with the seven shipped scenarios:

=================== =========================================================
``smoke``           Seconds-scale end-to-end run; the CI / CLI smoke gate.
``paper-tables``    Paper-faithful Table I/II regime at benchmark scale —
                    lowers bit-identically to the config the benchmark
                    harness has always used.
``fewstep-tables``  ``paper-tables`` sampled over a respaced 6-step chain
                    (5.3x fewer U-Net evaluations; quality-gated by
                    ``benchmarks/bench_fewstep_sampling.py``).
``dense``           High-volume DiffPattern-L library build (laptop preset,
                    4 geometric solutions per topology, deduplicated store).
``sparse``          ``dense`` under the Fig. 8b migrated rules (3x minimum
                    spacing) with the thin-sliver prefilter enabled.
``rule-migration``  ``paper-tables`` re-legalised under the Fig. 8c rules
                    (5x smaller maximum area) — no retraining required.
``hotspot-expansion`` DiffPattern-L library multiplication for hotspot-
                    detector training data (8 solutions per topology,
                    respaced 6-step sampler for throughput).
=================== =========================================================
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..legalization import LARGER_SPACE_RULES, SMALLER_AREA_RULES
from .spec import ScenarioError, ScenarioSpec

__all__ = ["ScenarioRegistry", "builtin_registry", "BUILTIN_SCENARIOS"]


#: Raw built-in specifications.  Kept as plain dicts (the same shape a TOML
#: file produces) so the builtins exercise exactly the user-facing codec.
BUILTIN_SCENARIOS: dict[str, dict] = {
    "smoke": {
        "description": "Seconds-scale end-to-end smoke run (CI gate scale)",
        "preset": "tiny",
        "training": {"iterations": 150, "num_patterns": 48},
        "engine": {"sample_batch_size": 4},
        "run": {"num_generated": 8, "num_solutions": 1, "seed": 0},
    },
    "paper-tables": {
        "description": "Paper-faithful Table I/II regime at benchmark scale",
        "preset": "tiny",
        "diffusion": {"num_steps": 32, "lambda_ce": 0.05},
        "training": {"iterations": 900, "num_patterns": 256},
        # Pinned to the full SLSQP solve: the committed Table I/II baselines
        # were recorded with it, and "slsqp" is the bit-identical mode (the
        # repair-first "auto" default is faster but yields different — still
        # legal — geometries).  Inherited by the scenarios extending this one.
        "engine": {"solver_mode": "slsqp"},
        "run": {"num_generated": 24, "num_solutions": 1, "seed": 0},
    },
    "fewstep-tables": {
        "description": "Table I/II regime on the respaced 6-step sampler (5.3x fewer U-Net evals)",
        "extends": "paper-tables",
        # 6 of the trained 32 steps: the default few-step operating point the
        # quality gate in benchmarks/bench_fewstep_sampling.py keeps in band.
        "sampling": {"steps": 6},
    },
    "dense": {
        "description": "High-volume DiffPattern-L library build under normal rules",
        "preset": "laptop",
        "training": {"num_patterns": 512},
        "engine": {"workers": 0},
        "run": {"num_generated": 256, "num_solutions": 4, "dedup": True, "seed": 0},
    },
    "sparse": {
        "description": "Sparse regime: Fig. 8b larger minimum spacing, sliver filter on",
        "extends": "dense",
        # Derived from the named Fig. 8b constant so the scenario and
        # repro.legalization.rules cannot diverge.
        "rules": {"space_min": LARGER_SPACE_RULES.space_min},
        "prefilter": {"reject_single_cell_polygons": True},
        "run": {"num_solutions": 1},
    },
    "rule-migration": {
        "description": "Fig. 8c rule migration: smaller area_max, same trained model",
        "extends": "paper-tables",
        "rules": {"area_max": SMALLER_AREA_RULES.area_max},
    },
    "hotspot-expansion": {
        "description": "DiffPattern-L library multiplication for hotspot training data",
        "extends": "paper-tables",
        # Library multiplication is throughput-bound, so this child opts back
        # into the repair-first fast path its parent pins off and samples the
        # respaced few-step chain instead of the full one.
        "engine": {"solver_mode": "auto"},
        "sampling": {"steps": 6},
        "run": {"num_solutions": 8, "num_generated": 16, "dedup": True},
    },
}

#: Safety bound on ``extends`` chains; real chains are 2-3 deep, so hitting
#: it means a cycle that slipped past direct detection.
_MAX_CHAIN = 32


class ScenarioRegistry:
    """Mutable name -> spec mapping with ``extends`` resolution."""

    def __init__(self, specs: "Iterable[ScenarioSpec] | None" = None) -> None:
        self._specs: dict[str, ScenarioSpec] = {}
        for spec in specs or ():
            self.register(spec)

    # ------------------------------------------------------------------ #
    def register(self, spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
        """Add ``spec`` under its name.

        Raises
        ------
        ScenarioError
            If the name is already registered and ``replace`` is not set —
            silently shadowing a built-in would make scenario files
            order-dependent.
        """
        if spec.name in self._specs and not replace:
            raise ScenarioError(
                f"scenario {spec.name!r} is already registered; "
                "pass replace=True to shadow it"
            )
        self._specs[spec.name] = spec
        return spec

    def register_dict(self, name: str, data: Mapping, replace: bool = False) -> ScenarioSpec:
        """Validate and register one raw mapping (TOML table / JSON object)."""
        return self.register(ScenarioSpec.from_dict(name, data), replace=replace)

    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Registered scenario names, sorted."""
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def get(self, name: str) -> ScenarioSpec:
        """The raw (unresolved) spec registered under ``name``.

        Raises
        ------
        ScenarioError
            For an unknown name; the message lists what is available.
        """
        try:
            return self._specs[name]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario {name!r}; available: {', '.join(self.names())}"
            ) from None

    def resolve(self, name: str) -> ScenarioSpec:
        """The spec under ``name`` with its whole ``extends`` chain flattened.

        Child values win per key; the returned spec has ``extends=None`` and
        lowers directly.

        Raises
        ------
        ScenarioError
            On an unknown name anywhere in the chain, or a cyclic chain
            (``a extends b extends a``).
        """
        spec = self.get(name)
        seen = [name]
        while spec.extends is not None:
            parent_name = spec.extends
            if parent_name in seen or len(seen) > _MAX_CHAIN:
                raise ScenarioError(
                    f"scenario {name!r}: cyclic extends chain {' -> '.join(seen + [parent_name])}"
                )
            seen.append(parent_name)
            spec = spec.merged_over(self.get(parent_name))
        return spec


def builtin_registry() -> ScenarioRegistry:
    """A fresh registry holding (only) the built-in scenarios."""
    registry = ScenarioRegistry()
    for name, data in BUILTIN_SCENARIOS.items():
        registry.register_dict(name, data)
    return registry
