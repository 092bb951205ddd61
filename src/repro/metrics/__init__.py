"""Evaluation metrics: pattern complexity and library diversity."""

from .complexity import pattern_complexity, topology_complexity
from .diversity import (
    ComplexityHistogram,
    complexity_distribution,
    diversity_from_complexities,
    pattern_diversity,
    shannon_entropy,
    topology_diversity,
)

__all__ = [
    "pattern_complexity",
    "topology_complexity",
    "complexity_distribution",
    "ComplexityHistogram",
    "shannon_entropy",
    "diversity_from_complexities",
    "pattern_diversity",
    "topology_diversity",
]
