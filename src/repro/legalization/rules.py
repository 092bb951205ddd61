"""Design rules (Fig. 3 of the paper).

Three geometric rules govern pattern legality:

* **Space**  — the distance between two adjacent polygons, measured along the
  x or y axis, must be at least ``space_min``.
* **Width**  — the size of a shape in one direction must be at least
  ``width_min``.
* **Area**   — every polygon's area must lie in ``[area_min, area_max]``.

The rule values are pattern-independent constants supplied by the technology;
changing them requires no retraining because legalisation is decoupled from
topology generation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DesignRules:
    """Design-rule constants, all in nm / nm^2.

    ``pattern_size`` is the side length of the square layout window that the
    geometric vectors must sum to (2048 nm in the paper's dataset).
    """

    space_min: int = 32
    width_min: int = 32
    area_min: int = 3_000
    area_max: int = 600_000
    pattern_size: int = 2_048

    def __post_init__(self) -> None:
        if self.space_min <= 0 or self.width_min <= 0:
            raise ValueError("space_min and width_min must be positive")
        if self.area_min <= 0 or self.area_max <= 0:
            raise ValueError("area bounds must be positive")
        if self.area_min > self.area_max:
            raise ValueError("area_min must not exceed area_max")
        if self.pattern_size <= 0:
            raise ValueError("pattern_size must be positive")

    def with_space_min(self, space_min: int) -> "DesignRules":
        """A copy with a different minimum spacing (Fig. 8b scenario)."""
        return replace(self, space_min=space_min)

    def with_area_range(self, area_min: int, area_max: int) -> "DesignRules":
        """A copy with a different legal area range (Fig. 8c scenario)."""
        return replace(self, area_min=area_min, area_max=area_max)


#: The rule set used by the standard experiments ("Normal rule" in Fig. 8a).
NORMAL_RULES = DesignRules()

#: Fig. 8b: a noticeably larger minimum spacing.
LARGER_SPACE_RULES = NORMAL_RULES.with_space_min(96)

#: Fig. 8c: a much smaller maximum polygon area.
SMALLER_AREA_RULES = NORMAL_RULES.with_area_range(NORMAL_RULES.area_min, 120_000)
