"""Synthetic layout-clip generator (substitute for the ICCAD 2014 map).

The paper's dataset is produced by tiling a real 400x160 um^2 layout map into
2048x2048 nm^2 clips.  That map is not redistributable, so this module
synthesises clips with the same statistical role: DRC-clean rectilinear
metal-layer patterns with diverse scan-line complexity.

Construction guarantees legality under the generating rule set:

* interval lengths are sampled no smaller than ``max(width_min, space_min)``,
  so any single grid cell already satisfies the width rule and any single
  empty cell between shapes satisfies the space rule;
* shapes are placed with at least one empty grid cell between distinct
  polygons (so no merging and no bow-ties);
* a shape is only committed if its area lies within ``[area_min, area_max]``.

Every generated clip is nevertheless re-verified by the DRC checker in the
test suite, so the guarantee is enforced rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..legalization.rules import DesignRules
from ..squish import SquishPattern
from ..utils import as_rng


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic clip generator."""

    rules: DesignRules = DesignRules()
    min_intervals: int = 6
    max_intervals: int = 14
    min_shapes: int = 2
    max_shapes: int = 8
    max_place_attempts: int = 40
    wire_probability: float = 0.6  # bias towards wire-like (1-cell-thick) shapes

    def __post_init__(self) -> None:
        if self.min_intervals < 2 or self.max_intervals < self.min_intervals:
            raise ValueError("interval bounds must satisfy 2 <= min <= max")
        if self.min_shapes < 0 or self.max_shapes < self.min_shapes:
            raise ValueError("shape bounds must satisfy 0 <= min <= max")


class SyntheticLayoutGenerator:
    """Generates DRC-clean squish patterns of a fixed window size."""

    def __init__(self, config: "SyntheticConfig | None" = None) -> None:
        self.config = config if config is not None else SyntheticConfig()

    # ------------------------------------------------------------------ #
    def _sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Random positive integer intervals summing to the window size.

        Every interval is at least ``max(width_min, space_min)`` so that a
        one-cell feature or gap is automatically legal.
        """
        rules = self.config.rules
        total = rules.pattern_size
        minimum = max(rules.width_min, rules.space_min)
        if count * minimum > total:
            raise ValueError(
                f"{count} intervals of at least {minimum} nm cannot fit in {total} nm"
            )
        slack = total - count * minimum
        weights = rng.dirichlet(np.full(count, 1.5))
        extra = np.floor(weights * slack).astype(np.int64)
        remainder = slack - int(extra.sum())
        order = rng.permutation(count)
        for i in range(remainder):
            extra[order[i % count]] += 1
        return extra + minimum

    # ------------------------------------------------------------------ #
    @staticmethod
    def _candidate_footprint(
        kind: str, rows: int, cols: int, rng: np.random.Generator
    ) -> "list[tuple[int, int]] | None":
        """Cell offsets of a candidate shape, or None when the grid is too small."""
        if kind == "hwire":
            length = int(rng.integers(2, max(3, cols // 2) + 1))
            return [(0, c) for c in range(length)]
        if kind == "vwire":
            length = int(rng.integers(2, max(3, rows // 2) + 1))
            return [(r, 0) for r in range(length)]
        if kind == "rect":
            height = int(rng.integers(1, 4))
            width = int(rng.integers(1, 4))
            return [(r, c) for r in range(height) for c in range(width)]
        if kind == "lshape":
            arm_a = int(rng.integers(2, 4))
            arm_b = int(rng.integers(2, 4))
            cells = [(0, c) for c in range(arm_a)]
            cells += [(r, 0) for r in range(1, arm_b)]
            return cells
        return None

    def _place_shapes(
        self,
        grid: np.ndarray,
        delta_x: np.ndarray,
        delta_y: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Place shapes in-place, keeping a 1-cell margin between polygons."""
        config = self.config
        rules = config.rules
        rows, cols = grid.shape
        blocked = np.zeros_like(grid)  # cells adjacent to existing shapes
        target_shapes = int(rng.integers(config.min_shapes, config.max_shapes + 1))
        placed = 0
        attempts = 0
        kinds = ["hwire", "vwire", "rect", "lshape"]
        while placed < target_shapes and attempts < config.max_place_attempts:
            attempts += 1
            if rng.random() < config.wire_probability:
                kind = "hwire" if rng.random() < 0.5 else "vwire"
            else:
                kind = kinds[int(rng.integers(2, 4))]
            footprint = self._candidate_footprint(kind, rows, cols, rng)
            if not footprint:
                continue
            max_r = max(r for r, _ in footprint)
            max_c = max(c for _, c in footprint)
            if max_r >= rows or max_c >= cols:
                continue
            row0 = int(rng.integers(0, rows - max_r))
            col0 = int(rng.integers(0, cols - max_c))
            cells = [(row0 + r, col0 + c) for r, c in footprint]
            if any(grid[r, c] or blocked[r, c] for r, c in cells):
                continue
            area = sum(int(delta_x[c]) * int(delta_y[r]) for r, c in cells)
            if not rules.area_min <= area <= rules.area_max:
                continue
            for r, c in cells:
                grid[r, c] = 1
            for r, c in cells:
                for nr in range(max(0, r - 1), min(rows, r + 2)):
                    for nc in range(max(0, c - 1), min(cols, c + 2)):
                        if not grid[nr, nc]:
                            blocked[nr, nc] = 1
            placed += 1

    # ------------------------------------------------------------------ #
    def generate_pattern(self, rng: "int | np.random.Generator | None" = None) -> SquishPattern:
        """Generate one DRC-clean squish pattern."""
        gen = as_rng(rng)
        config = self.config
        while True:
            cols = int(gen.integers(config.min_intervals, config.max_intervals + 1))
            rows = int(gen.integers(config.min_intervals, config.max_intervals + 1))
            delta_x = self._sample_intervals(cols, gen)
            delta_y = self._sample_intervals(rows, gen)
            grid = np.zeros((rows, cols), dtype=np.uint8)
            self._place_shapes(grid, delta_x, delta_y, gen)
            if grid.sum() == 0:
                continue  # empty clips carry no information; resample
            return SquishPattern(grid, delta_x, delta_y)

    def generate_library(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> list[SquishPattern]:
        """Generate ``count`` independent DRC-clean patterns."""
        gen = as_rng(rng)
        return [self.generate_pattern(gen) for _ in range(count)]
