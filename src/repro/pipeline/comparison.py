"""Table I harness: pattern diversity and legality across generation methods.

Reproduces the structure of the paper's main comparison: every method
generates topologies; geometry is then attached — heuristically (inherited
from real patterns) for the baselines, through the white-box legaliser for
DiffPattern — and the resulting libraries are scored for diversity (Eq. 4)
and legality (DRC-clean fraction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import TopologyGenerator
from ..data import LayoutPatternDataset
from ..drc import DesignRuleChecker
from ..legalization import DesignRules
from ..metrics import pattern_diversity
from ..squish import SquishPattern
from ..utils import as_rng
from .diffpattern import DiffPatternPipeline


@dataclass
class MethodRow:
    """One row of Table I."""

    name: str
    generated_topologies: int
    generated_patterns: int
    generated_diversity: float
    legal_patterns: int
    legality: float
    legal_diversity: float

    def as_dict(self) -> dict[str, object]:
        return {
            "method": self.name,
            "topologies": self.generated_topologies,
            "patterns": self.generated_patterns,
            "diversity": round(self.generated_diversity, 4),
            "legal_patterns": self.legal_patterns,
            "legality_%": round(100.0 * self.legality, 2),
            "legal_diversity": round(self.legal_diversity, 4),
        }


def attach_reference_geometry(
    topologies: "np.ndarray | list[np.ndarray]",
    references: list[tuple[np.ndarray, np.ndarray]],
    rng: "int | np.random.Generator | None" = None,
) -> list[SquishPattern]:
    """Attach geometry to baseline topologies by inheriting real delta vectors.

    Pixel-based baselines emit only a topology matrix; following previous
    work, the geometric vectors are borrowed from a random real pattern of
    matching shape.  No legality check is involved — that is the point of the
    comparison.
    """
    gen = as_rng(rng)
    patterns = []
    for topology in topologies:
        topology = np.asarray(topology, dtype=np.uint8)
        rows, cols = topology.shape
        candidates = [
            (dx, dy) for dx, dy in references if len(dx) == cols and len(dy) == rows
        ]
        if not candidates:
            raise ValueError("no reference geometry matches the topology shape")
        dx, dy = candidates[int(gen.integers(0, len(candidates)))]
        patterns.append(SquishPattern(topology, dx.copy(), dy.copy()))
    return patterns


def evaluate_real_patterns(dataset: LayoutPatternDataset, rules: DesignRules) -> MethodRow:
    """The 'Real Patterns' reference row (whole dataset, as in the paper)."""
    patterns = dataset.real_patterns("all")
    checker = DesignRuleChecker(rules)
    legal = checker.legal_subset(patterns)
    return MethodRow(
        name="Real Patterns",
        generated_topologies=0,
        generated_patterns=len(patterns),
        generated_diversity=pattern_diversity(patterns),
        legal_patterns=len(legal),
        legality=len(legal) / len(patterns) if patterns else 0.0,
        legal_diversity=pattern_diversity(legal) if legal else 0.0,
    )


def evaluate_baseline(
    name: str,
    generator: TopologyGenerator,
    dataset: LayoutPatternDataset,
    rules: DesignRules,
    num_generated: int,
    rng: "int | np.random.Generator | None" = None,
    fit: bool = True,
) -> MethodRow:
    """Train a baseline, generate topologies, attach geometry, score the row."""
    gen = as_rng(rng)
    matrices = dataset.topology_matrices("train")
    if fit:
        generator.fit(matrices, rng=gen)
    topologies = generator.generate(num_generated, rng=gen)
    references = dataset.reference_geometries("train")
    patterns = attach_reference_geometry(list(topologies), references, rng=gen)
    checker = DesignRuleChecker(rules)
    legal = checker.legal_subset(patterns)
    return MethodRow(
        name=name,
        generated_topologies=len(topologies),
        generated_patterns=len(patterns),
        generated_diversity=pattern_diversity(patterns) if patterns else 0.0,
        legal_patterns=len(legal),
        legality=len(legal) / len(patterns) if patterns else 0.0,
        legal_diversity=pattern_diversity(legal) if legal else 0.0,
    )


def evaluate_diffpattern(
    pipeline: DiffPatternPipeline,
    num_generated: int,
    num_solutions: int = 1,
    name: "str | None" = None,
    rng: "int | np.random.Generator | None" = None,
    workers: "int | None" = None,
) -> MethodRow:
    """Score DiffPattern-S (``num_solutions=1``) or DiffPattern-L (>1).

    Generation and legalisation run through the streaming stage graph
    (element-wise identical to the old two-barrier evaluation for the same
    ``rng``); ``workers`` overrides the pipeline-config pool width for this
    evaluation only.
    """
    gen = as_rng(rng)
    result = pipeline.generate_and_legalize(
        num_generated, num_solutions=num_solutions, rng=gen, workers=workers
    )
    checker = DesignRuleChecker(pipeline.config.rules)
    legal = checker.legal_subset(result.patterns)
    label = name if name is not None else ("DiffPattern-S" if num_solutions == 1 else "DiffPattern-L")
    return MethodRow(
        name=label,
        generated_topologies=num_generated,
        generated_patterns=len(result.patterns),
        generated_diversity=result.pattern_diversity,
        legal_patterns=len(legal),
        legality=len(legal) / len(result.patterns) if result.patterns else 0.0,
        legal_diversity=pattern_diversity(legal) if legal else 0.0,
    )


def format_table(rows: list[MethodRow]) -> str:
    """Render rows in the layout of the paper's Table I."""
    header = (
        f"{'Method':<22}{'Topologies':>12}{'Patterns':>10}{'Diversity':>11}"
        f"{'Legal':>8}{'Legality%':>11}{'LegalDiv':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<22}{row.generated_topologies:>12}{row.generated_patterns:>10}"
            f"{row.generated_diversity:>11.4f}{row.legal_patterns:>8}"
            f"{100.0 * row.legality:>11.2f}{row.legal_diversity:>10.4f}"
        )
    return "\n".join(lines)
