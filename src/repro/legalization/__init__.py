"""White-box 2D legal pattern assessment (design rules, constraints, solver)."""

from .batched import (
    SOLVER_MODES,
    BatchCompiledConstraints,
    ChunkSolveOutcome,
    GeometrySolution,
    SolverOptions,
    solve_geometry_chunk,
)
from .compiled import (
    CompiledConstraints,
    clear_compilation_cache,
    compilation_cache_info,
    compile_constraints,
    compiled_for_topology,
)
from .constraints import (
    IntervalConstraint,
    TopologyConstraints,
    extract_constraints,
    polygon_area,
)
from .engine import LegalizationEngine, LegalizationReport, default_workers
from .legalizer import (
    LegalizationStats,
    LegalizedTopology,
    Legalizer,
    ReferenceIndex,
)
from .rules import (
    LARGER_SPACE_RULES,
    NORMAL_RULES,
    SMALLER_AREA_RULES,
    DesignRules,
)
from .solver import solve_geometry, solve_topology

__all__ = [
    "DesignRules",
    "NORMAL_RULES",
    "LARGER_SPACE_RULES",
    "SMALLER_AREA_RULES",
    "IntervalConstraint",
    "TopologyConstraints",
    "extract_constraints",
    "polygon_area",
    "CompiledConstraints",
    "compile_constraints",
    "compiled_for_topology",
    "compilation_cache_info",
    "clear_compilation_cache",
    "BatchCompiledConstraints",
    "ChunkSolveOutcome",
    "solve_geometry_chunk",
    "SOLVER_MODES",
    "SolverOptions",
    "GeometrySolution",
    "solve_geometry",
    "solve_topology",
    "Legalizer",
    "LegalizedTopology",
    "LegalizationStats",
    "LegalizationEngine",
    "LegalizationReport",
    "ReferenceIndex",
    "default_workers",
]
