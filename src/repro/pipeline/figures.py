"""Harnesses for the paper's qualitative figures (Fig. 6, 7, 8, 9).

Each function returns plain data (arrays / pattern lists) plus an ASCII
rendering helper so the benchmarks can print the same information the paper
shows graphically, without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..drc import DesignRuleChecker
from ..legalization import DesignRules, LegalizationEngine
from ..metrics import ComplexityHistogram, pattern_complexity
from ..squish import SquishPattern, unfold
from ..utils import child_rng, resolve_seed
from .diffpattern import DiffPatternPipeline


# --------------------------------------------------------------------------- #
# ASCII rendering helpers
# --------------------------------------------------------------------------- #
def render_topology(topology: np.ndarray, filled: str = "#", empty: str = ".") -> str:
    """Render a binary topology matrix as ASCII art."""
    arr = np.asarray(topology)
    return "\n".join("".join(filled if v else empty for v in row) for row in arr)


def render_pattern(pattern: SquishPattern, width: int = 48) -> str:
    """Render a squish pattern to a fixed-width ASCII raster (approximate)."""
    layout = pattern.to_layout()
    window = layout.window
    scale_x = width / max(window.width, 1)
    height = max(1, int(round(window.height * scale_x)))
    height = min(height, width)
    canvas = np.zeros((height, width), dtype=np.uint8)
    for rect in layout.all_rects():
        c1 = int((rect.x1 - window.x1) * scale_x)
        c2 = max(c1 + 1, int((rect.x2 - window.x1) * scale_x))
        r1 = int((rect.y1 - window.y1) * height / max(window.height, 1))
        r2 = max(r1 + 1, int((rect.y2 - window.y1) * height / max(window.height, 1)))
        canvas[r1:r2, c1:c2] = 1
    return render_topology(canvas)


# --------------------------------------------------------------------------- #
# Fig. 6 — denoising chain
# --------------------------------------------------------------------------- #
@dataclass
class DenoisingChain:
    """Intermediate topology matrices of one reverse-diffusion run.

    ``steps[j]`` is the timestep of ``matrices[j]``: from ``K`` (the
    stationary draw) down to 0 (the sample).
    """

    steps: list[int]
    matrices: list[np.ndarray]

    def fill_ratios(self) -> list[float]:
        """Fraction of shape pixels at each recorded step."""
        return [float(m.mean()) for m in self.matrices]


def run_denoising_chain(
    pipeline: DiffPatternPipeline,
    chain_stride: int = 1,
    rng: "int | np.random.Generator | None" = None,
) -> DenoisingChain:
    """Sample one topology, keeping the intermediate states (Fig. 6).

    The chain holds ``T_K``, the state after every ``chain_stride``-th
    reverse jump and ``T_0``; ``steps`` labels each state with its timestep
    (see :meth:`~repro.pipeline.sampling_engine.SamplingEngine.sample_chain`).
    """
    if pipeline.diffusion is None:
        raise RuntimeError("the pipeline has no trained diffusion model")
    _, chain, steps = pipeline.sampling_engine().sample_chain(
        1, seed=rng, chain_stride=chain_stride
    )
    return DenoisingChain(steps=list(steps), matrices=[unfold(state[0]) for state in chain])


# --------------------------------------------------------------------------- #
# Fig. 7 — many legal patterns from a single topology
# --------------------------------------------------------------------------- #
def patterns_from_single_topology(
    topology: np.ndarray,
    rules: DesignRules,
    num_patterns: int = 6,
    rng: "int | np.random.Generator | None" = None,
) -> list[SquishPattern]:
    """Generate several distinct legal patterns sharing one topology (Fig. 7).

    Runs through the legalization engine for its seeding contract.  A single
    topology never shards (its solutions are sequential draws from one
    per-index stream), so this is inherently serial.
    """
    engine = LegalizationEngine(rules, workers=1)
    results = engine.legalize_batch([topology], num_solutions=num_patterns, seed=rng)
    return results[0].patterns


def geometry_signatures(patterns: list[SquishPattern]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Hashable (delta_x, delta_y) signatures used to verify distinctness."""
    return [(tuple(p.delta_x.tolist()), tuple(p.delta_y.tolist())) for p in patterns]


# --------------------------------------------------------------------------- #
# Fig. 8 — same topology under different design rules
# --------------------------------------------------------------------------- #
@dataclass
class RuleScenario:
    """One design-rule scenario of Fig. 8 and its legalisation outcome."""

    name: str
    rules: DesignRules
    pattern: "SquishPattern | None"
    legal: bool


def patterns_under_rule_scenarios(
    topology: np.ndarray,
    scenarios: list[tuple[str, DesignRules]],
    rng: "int | np.random.Generator | None" = None,
) -> list[RuleScenario]:
    """Legalise the same topology under several rule sets without retraining.

    One single-topology engine run per scenario (each rule set needs its own
    engine); inherently serial, like :func:`patterns_from_single_topology`.
    """
    base_seed = resolve_seed(rng)
    results = []
    for index, (name, rules) in enumerate(scenarios):
        engine = LegalizationEngine(rules, workers=1)
        # Each scenario owns the stream at its position, so appending new
        # scenarios never perturbs the earlier ones' solutions (reordering
        # reassigns streams, since they are positional).
        outcome = engine.legalize_batch(
            [topology], num_solutions=1, seed=child_rng(base_seed, index)
        )[0]
        pattern = outcome.patterns[0] if outcome.solved else None
        legal = bool(pattern is not None and DesignRuleChecker(rules).is_legal(pattern))
        results.append(RuleScenario(name=name, rules=rules, pattern=pattern, legal=legal))
    return results


# --------------------------------------------------------------------------- #
# Fig. 9 — complexity distribution
# --------------------------------------------------------------------------- #
@dataclass
class ComplexityComparison:
    """Complexity distributions of the real and generated libraries."""

    real_distribution: np.ndarray
    generated_distribution: np.ndarray
    bins: int

    def overlap(self) -> float:
        """Histogram intersection in [0, 1]; higher means closer distributions."""
        return float(np.minimum(self.real_distribution, self.generated_distribution).sum())

    def mean_complexity(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Mean (cx, cy) of each library."""
        def mean_of(dist: np.ndarray) -> tuple[float, float]:
            xs = np.arange(dist.shape[0])
            ys = np.arange(dist.shape[1])
            total = dist.sum()
            if total == 0:
                return 0.0, 0.0
            return (
                float((dist.sum(axis=1) * xs).sum() / total),
                float((dist.sum(axis=0) * ys).sum() / total),
            )

        return mean_of(self.real_distribution), mean_of(self.generated_distribution)


def compare_complexity_distributions(
    real_patterns: list[SquishPattern],
    generated_patterns: list[SquishPattern],
    bins: "int | None" = None,
) -> ComplexityComparison:
    """Build the two 2-D complexity histograms of Fig. 9
    (:func:`compare_complexity_histograms` over the patterns' complexities)."""
    return compare_complexity_histograms(
        ComplexityHistogram([pattern_complexity(p) for p in real_patterns]),
        ComplexityHistogram([pattern_complexity(p) for p in generated_patterns]),
        bins=bins,
    )


def compare_complexity_histograms(
    real: ComplexityHistogram,
    generated: ComplexityHistogram,
    bins: "int | None" = None,
) -> ComplexityComparison:
    """Fig. 9 comparison from streaming accumulators instead of pattern lists.

    A streamed run (or a resumed :class:`~repro.library.PatternLibrary`)
    carries :class:`~repro.metrics.ComplexityHistogram` accumulators; this
    builds the two 2-D distributions without materialising the pattern
    libraries.  ``bins`` defaults to one more than the largest coordinate
    of either histogram (at least 2).
    """
    if bins is None:
        largest = max(real.max_coordinate(), generated.max_coordinate(), 0)
        bins = max(largest + 1, 2)
    real_dist, _, _ = real.distribution(bins=bins)
    generated_dist, _, _ = generated.distribution(bins=bins)
    return ComplexityComparison(
        real_distribution=real_dist, generated_distribution=generated_dist, bins=bins
    )
