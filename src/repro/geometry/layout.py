"""Layout pattern container.

A :class:`Layout` is a fixed window (e.g. 2048x2048 nm, the tile size used in
the paper's experiments) containing a set of rectilinear polygons on a single
layer.  It is the object exchanged between the squish encoder, the DRC
checker, the legalisation stage and the synthetic data generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polygon import RectilinearPolygon, polygons_from_grid
from .rectangle import Rect


@dataclass
class Layout:
    """A single-layer rectilinear layout clip.

    Parameters
    ----------
    window:
        The clip boundary.  All polygons must lie inside the window.
    polygons:
        The shapes of the clip.
    """

    window: Rect
    polygons: list[RectilinearPolygon] = field(default_factory=list)

    def __post_init__(self) -> None:
        for poly in self.polygons:
            if not self.window.contains_rect(poly.bbox):
                raise ValueError(
                    f"polygon bbox {poly.bbox} exceeds layout window {self.window}"
                )

    @property
    def num_polygons(self) -> int:
        """Number of shapes in the clip."""
        return len(self.polygons)

    @property
    def total_area(self) -> int:
        """Sum of polygon areas in nm^2."""
        return sum(p.area for p in self.polygons)

    @property
    def density(self) -> float:
        """Fraction of the window area covered by shapes."""
        return self.total_area / self.window.area

    def all_rects(self) -> list[Rect]:
        """Every covering rectangle of every polygon."""
        return [r for poly in self.polygons for r in poly.rects]

    def scanline_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Scan-line coordinates along x and y.

        Scan lines walk along every polygon edge plus the window boundary,
        exactly as in the squish-pattern definition (Fig. 2 of the paper).
        """
        xs = {self.window.x1, self.window.x2}
        ys = {self.window.y1, self.window.y2}
        for rect in self.all_rects():
            xs.update((rect.x1, rect.x2))
            ys.update((rect.y1, rect.y2))
        return (
            np.asarray(sorted(xs), dtype=np.int64),
            np.asarray(sorted(ys), dtype=np.int64),
        )

    @classmethod
    def from_grid(
        cls,
        grid: np.ndarray,
        dx: np.ndarray,
        dy: np.ndarray,
        origin: tuple[int, int] = (0, 0),
    ) -> "Layout":
        """Build a layout from a topology grid and interval vectors."""
        dx = np.asarray(dx, dtype=np.int64)
        dy = np.asarray(dy, dtype=np.int64)
        ox, oy = origin
        window = Rect(ox, oy, ox + int(dx.sum()), oy + int(dy.sum()))
        polygons = polygons_from_grid(grid, dx, dy, origin)
        return cls(window=window, polygons=polygons)

    def occupancy_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rasterise the layout onto its own scan-line grid.

        Returns ``(grid, dx, dy)`` — the exact inverse of :meth:`from_grid`
        (up to polygon grouping).  Cells are marked 1 when their centre lies
        inside any polygon rectangle.
        """
        xs, ys = self.scanline_coordinates()
        dx = np.diff(xs)
        dy = np.diff(ys)
        grid = np.zeros((len(dy), len(dx)), dtype=np.uint8)
        rects = self.all_rects()
        if rects:
            cx = (xs[:-1] + xs[1:]) / 2.0
            cy = (ys[:-1] + ys[1:]) / 2.0
            for rect in rects:
                col_mask = (cx > rect.x1) & (cx < rect.x2)
                row_mask = (cy > rect.y1) & (cy < rect.y2)
                grid[np.ix_(row_mask, col_mask)] = 1
        return grid, dx.astype(np.int64), dy.astype(np.int64)
