"""White-box 2D legal pattern assessment (design rules, constraints, solver).

:class:`LegalizationEngine` is the entry point; each of its chunks is one
:func:`solve_geometry_chunk` call, and a single topology is a chunk of one.
"""

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
    compiled_for_topology,
)
from .constraints import (
    IntervalConstraint,
    TopologyConstraints,
    extract_constraints,
    polygon_area,
)
from .engine import (
    LegalizationEngine,
    LegalizationReport,
    LegalizationStats,
    LegalizedTopology,
    ReferenceIndex,
    default_workers,
)
from .rules import (
    LARGER_SPACE_RULES,
    NORMAL_RULES,
    SMALLER_AREA_RULES,
    DesignRules,
)

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
    "compiled_for_topology",
    "compilation_cache_info",
    "clear_compilation_cache",
    "BatchCompiledConstraints",
    "ChunkSolveOutcome",
    "solve_geometry_chunk",
    "SOLVER_MODES",
    "SolverOptions",
    "GeometrySolution",
    "LegalizedTopology",
    "LegalizationStats",
    "LegalizationEngine",
    "LegalizationReport",
    "ReferenceIndex",
    "default_workers",
]
