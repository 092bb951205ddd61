"""Rectilinear layout geometry substrate.

Provides rectangles, rectilinear polygons, layout clips, and binary-grid
operations (connected components, bow-tie detection, run extraction) used by
the squish representation, DRC checker and legalisation stages.
"""

from .grid import (
    connected_components,
    has_bowtie,
    interior_runs_2d,
    runs_2d,
    runs_of_value,
    validate_grid,
)
from .layout import Layout
from .polygon import RectilinearPolygon, polygons_from_grid
from .rectangle import Rect

__all__ = [
    "Rect",
    "RectilinearPolygon",
    "polygons_from_grid",
    "Layout",
    "validate_grid",
    "connected_components",
    "has_bowtie",
    "runs_of_value",
    "runs_2d",
    "interior_runs_2d",
]
