"""Axis-aligned rectangles in integer (nanometre) coordinates.

Layout patterns in this library are rectilinear: every polygon can be
decomposed into axis-aligned rectangles.  The :class:`Rect` type is the basic
building block used by the layout container, the DRC checker and the synthetic
data generator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Rect:
    """A closed axis-aligned rectangle ``[x1, x2] x [y1, y2]`` in nm.

    Coordinates are stored normalised so that ``x1 <= x2`` and ``y1 <= y2``.
    A rectangle with zero width or height is considered degenerate and is
    rejected by :meth:`__post_init__`.
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            object.__setattr__(self, "x1", min(self.x1, self.x2))
            object.__setattr__(self, "x2", max(self.x1, self.x2))
            object.__setattr__(self, "y1", min(self.y1, self.y2))
            object.__setattr__(self, "y2", max(self.y1, self.y2))
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"degenerate rectangle: {self!r}")

    @property
    def width(self) -> int:
        """Horizontal extent in nm."""
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        """Vertical extent in nm."""
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        """Area in nm^2."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Geometric centre ``(cx, cy)``."""
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return a copy shifted by ``(dx, dy)``."""
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def intersects(self, other: "Rect") -> bool:
        """True when the two rectangles overlap with positive area."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    def touches(self, other: "Rect") -> bool:
        """True when the rectangles share at least an edge segment or overlap.

        Corner-only contact does not count as touching; two rectangles that
        meet only at a point form a bow-tie, which is an invalid layout shape.
        """
        if self.intersects(other):
            return True
        x_overlap = min(self.x2, other.x2) - max(self.x1, other.x1)
        y_overlap = min(self.y2, other.y2) - max(self.y1, other.y1)
        if x_overlap == 0 and y_overlap > 0:
            return True
        if y_overlap == 0 and x_overlap > 0:
            return True
        return False

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap region, or ``None`` if the rectangles do not overlap."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def union_bbox(self, other: "Rect") -> "Rect":
        """Bounding box of the two rectangles."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def contains_point(self, x: float, y: float) -> bool:
        """True when ``(x, y)`` lies inside or on the boundary."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def clipped(self, window: "Rect") -> "Rect | None":
        """Clip this rectangle to ``window``; ``None`` if nothing remains."""
        return self.intersection(window)
