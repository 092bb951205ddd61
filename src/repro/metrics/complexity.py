"""Pattern complexity (Section II-C, Definition preceding Eq. 4).

The complexity of a layout pattern is the pair ``(cx, cy)``: the number of
scan lines along the x and y axes minus one, i.e. the number of distinct
intervals of the *canonical* squish representation.  Padded patterns must be
canonicalised first, otherwise artificial scan lines introduced by the
fixed-size extension would inflate the complexity.
"""

from __future__ import annotations

import numpy as np

from ..squish import SquishPattern, canonicalize


def topology_complexity(topology: np.ndarray) -> tuple[int, int]:
    """Complexity of a bare topology matrix.

    The matrix is reduced to its canonical form (no two adjacent identical
    rows/columns) by pairing it with unit geometric vectors, then the interval
    counts minus one are returned as ``(cx, cy)``.
    """
    arr = np.asarray(topology, dtype=np.uint8)
    rows, cols = arr.shape
    pattern = SquishPattern(
        arr, np.ones(cols, dtype=np.int64), np.ones(rows, dtype=np.int64)
    )
    return pattern_complexity(pattern)


def pattern_complexity(pattern: SquishPattern) -> tuple[int, int]:
    """Complexity ``(cx, cy)`` of a squish pattern."""
    canonical = canonicalize(pattern)
    cx, cy = canonical.complexity
    return max(cx - 1, 0), max(cy - 1, 0)
