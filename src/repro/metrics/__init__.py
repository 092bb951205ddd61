"""Evaluation metrics: pattern complexity, library diversity, validity."""

from .complexity import pattern_complexity, topology_complexity
from .diversity import (
    ComplexityHistogram,
    complexity_distribution,
    diversity_from_complexities,
    pattern_diversity,
    shannon_entropy,
    topology_diversity,
)
from .validity import ValidityConfig, ValidityScorer

__all__ = [
    "pattern_complexity",
    "topology_complexity",
    "complexity_distribution",
    "ComplexityHistogram",
    "shannon_entropy",
    "diversity_from_complexities",
    "pattern_diversity",
    "topology_diversity",
    "ValidityScorer",
    "ValidityConfig",
]
