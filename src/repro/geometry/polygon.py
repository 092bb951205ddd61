"""Rectilinear polygons built from grid cells.

A :class:`RectilinearPolygon` is one 4-connected component of a topology
grid realised with concrete geometric vectors.  It is the unit on which the
'Area' design rule of Fig. 3 is evaluated and the unit emitted by the
sequence-based baseline (LayouTransformer) as a vertex loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rectangle import Rect


@dataclass
class RectilinearPolygon:
    """A rectilinear polygon represented as a set of covering rectangles.

    The rectangles are non-overlapping and together tile the polygon.  The
    polygon is assumed to be 4-connected (guaranteed when produced by
    :func:`repro.geometry.grid.connected_components`).
    """

    rects: list[Rect] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rects:
            raise ValueError("a polygon needs at least one rectangle")

    @property
    def area(self) -> int:
        """Total area in nm^2 (rectangles are disjoint by construction)."""
        return sum(r.area for r in self.rects)

    @property
    def bbox(self) -> Rect:
        """Axis-aligned bounding box."""
        box = self.rects[0]
        for r in self.rects[1:]:
            box = box.union_bbox(r)
        return box

    def translated(self, dx: int, dy: int) -> "RectilinearPolygon":
        """Return a shifted copy."""
        return RectilinearPolygon([r.translated(dx, dy) for r in self.rects])

    def contains_point(self, x: float, y: float) -> bool:
        """True when the point lies in any covering rectangle."""
        return any(r.contains_point(x, y) for r in self.rects)

    def vertices(self) -> list[tuple[int, int]]:
        """Return the boundary vertices in counter-clockwise order.

        Uses the classic corner-counting rule for rectilinear polygons: a
        lattice point is a boundary vertex iff an odd number (1 or 3) of the
        four incident unit cells is covered, or exactly two diagonal cells are
        covered (which cannot happen for valid, bow-tie-free polygons).
        """
        covered = set()
        for r in self.rects:
            covered.add((r.x1, r.y1, r.x2, r.y2))

        xs = sorted({v for r in self.rects for v in (r.x1, r.x2)})
        ys = sorted({v for r in self.rects for v in (r.y1, r.y2)})

        def cell_filled(x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> bool:
            cx = (x_lo + x_hi) / 2.0
            cy = (y_lo + y_hi) / 2.0
            return any(
                r.x1 < cx < r.x2 and r.y1 < cy < r.y2 for r in self.rects
            )

        corners: list[tuple[int, int]] = []
        x_edges = [-1] + xs + [xs[-1] + 1]
        y_edges = [-1] + ys + [ys[-1] + 1]
        for xi in range(1, len(x_edges) - 1):
            for yi in range(1, len(y_edges) - 1):
                x = x_edges[xi]
                y = y_edges[yi]
                quads = [
                    cell_filled(x_edges[xi - 1], x, y_edges[yi - 1], y),
                    cell_filled(x, x_edges[xi + 1], y_edges[yi - 1], y),
                    cell_filled(x_edges[xi - 1], x, y, y_edges[yi + 1]),
                    cell_filled(x, x_edges[xi + 1], y, y_edges[yi + 1]),
                ]
                if sum(quads) in (1, 3):
                    corners.append((x, y))
        corners.sort(key=lambda p: (np.arctan2(p[1] - self.bbox.center[1],
                                               p[0] - self.bbox.center[0])))
        return corners


def polygons_from_grid(
    grid: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    origin: tuple[int, int] = (0, 0),
) -> list[RectilinearPolygon]:
    """Group the rectangles of a topology grid into per-component polygons.

    ``dx`` must hold one interval per grid column and ``dy`` one per row.
    """
    from .grid import connected_components, runs_of_value, validate_grid

    arr = validate_grid(grid)
    labels, count = connected_components(arr)
    dx = np.asarray(dx, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.int64)
    if dx.shape != (arr.shape[1],) or dy.shape != (arr.shape[0],):
        raise ValueError(
            f"interval vectors of lengths ({dy.size}, {dx.size}) do not fit a {arr.shape} grid"
        )
    ox, oy = origin
    xs = np.concatenate(([0], np.cumsum(dx))) + ox
    ys = np.concatenate(([0], np.cumsum(dy))) + oy

    per_comp: dict[int, list[Rect]] = {i: [] for i in range(1, count + 1)}
    for r in range(arr.shape[0]):
        for c_start, c_end in runs_of_value(arr[r], 1):
            comp = int(labels[r, c_start])
            per_comp[comp].append(
                Rect(
                    int(xs[c_start]),
                    int(ys[r]),
                    int(xs[c_end + 1]),
                    int(ys[r + 1]),
                )
            )
    return [RectilinearPolygon(rects) for rects in per_comp.values() if rects]
