"""End-to-end DiffPattern pipeline, comparison and experiment harnesses."""

from .comparison import (
    MethodRow,
    attach_reference_geometry,
    evaluate_baseline,
    evaluate_diffpattern,
    evaluate_real_patterns,
    format_table,
)
from .config import DiffPatternConfig
from .diffpattern import (
    DiffPatternPipeline,
    DiffPatternTopologyGenerator,
    GenerationResult,
)
from .efficiency import (
    EfficiencyReport,
    EfficiencyRow,
    StreamingMeasurement,
    measure_batch_legalization,
    measure_sampling_time,
    measure_solving_time,
    measure_streamed_generation,
    run_efficiency_experiment,
)
from .sampling_engine import SamplingEngine, SamplingReport, resolve_seed
from .stages import GenerationGraph, GenerationGraphReport, GenerationStream, StreamChunk
from .figures import (
    ComplexityComparison,
    DenoisingChain,
    RuleScenario,
    compare_complexity_distributions,
    compare_complexity_histograms,
    geometry_signatures,
    patterns_from_single_topology,
    patterns_under_rule_scenarios,
    render_pattern,
    render_topology,
    run_denoising_chain,
)

__all__ = [
    "DiffPatternConfig",
    "DiffPatternPipeline",
    "DiffPatternTopologyGenerator",
    "GenerationResult",
    "MethodRow",
    "evaluate_real_patterns",
    "evaluate_baseline",
    "evaluate_diffpattern",
    "attach_reference_geometry",
    "format_table",
    "EfficiencyRow",
    "EfficiencyReport",
    "StreamingMeasurement",
    "measure_batch_legalization",
    "measure_sampling_time",
    "measure_solving_time",
    "measure_streamed_generation",
    "run_efficiency_experiment",
    "SamplingEngine",
    "SamplingReport",
    "GenerationGraph",
    "GenerationGraphReport",
    "GenerationStream",
    "StreamChunk",
    "resolve_seed",
    "DenoisingChain",
    "run_denoising_chain",
    "patterns_from_single_topology",
    "geometry_signatures",
    "RuleScenario",
    "patterns_under_rule_scenarios",
    "ComplexityComparison",
    "compare_complexity_distributions",
    "compare_complexity_histograms",
    "render_topology",
    "render_pattern",
]
