"""DiffPattern reproduction: layout pattern generation via discrete diffusion.

A complete, self-contained reimplementation of the DAC 2023 paper
*DiffPattern: Layout Pattern Generation via Discrete Diffusion*, including
every substrate it depends on: a rectilinear layout geometry kernel, the
(deep) squish pattern representation, a pure-NumPy neural-network stack, the
discrete diffusion generator, the white-box legalisation solver, a design-rule
checker, synthetic data generation, the baseline generators it is compared
against, and benchmark harnesses that regenerate every table and figure of
the paper's evaluation.

Quick start::

    from repro import DiffPatternConfig, DiffPatternPipeline

    pipeline = DiffPatternPipeline(DiffPatternConfig.tiny())
    result = pipeline.run(num_training_patterns=64, num_generated=8)
    print(result.legality, result.pattern_diversity)
"""

from . import (
    baselines,
    data,
    diffusion,
    drc,
    geometry,
    legalization,
    library,
    metrics,
    nn,
    pipeline,
    prefilter,
    scenarios,
    squish,
)
from .data import DatasetConfig, LayoutPatternDataset, SyntheticLayoutGenerator
from .diffusion import DiffusionConfig, DiscreteDiffusion
from .drc import DesignRuleChecker
from .legalization import DesignRules, LegalizationEngine
from .library import PatternLibrary
from .pipeline import DiffPatternConfig, DiffPatternPipeline, GenerationResult
from .scenarios import RunPlan, ScenarioRegistry, ScenarioSpec, builtin_registry
from .squish import SquishPattern

__version__ = "0.2.0"

__all__ = [
    "geometry",
    "squish",
    "nn",
    "diffusion",
    "legalization",
    "drc",
    "prefilter",
    "metrics",
    "data",
    "baselines",
    "pipeline",
    "library",
    "scenarios",
    "ScenarioSpec",
    "ScenarioRegistry",
    "RunPlan",
    "builtin_registry",
    "PatternLibrary",
    "SquishPattern",
    "DesignRules",
    "LegalizationEngine",
    "DesignRuleChecker",
    "DiscreteDiffusion",
    "DiffusionConfig",
    "DatasetConfig",
    "LayoutPatternDataset",
    "SyntheticLayoutGenerator",
    "DiffPatternConfig",
    "DiffPatternPipeline",
    "GenerationResult",
    "__version__",
]
