"""Fixed-size extension of squish patterns (adaptive squish, ref. [14]).

Topology matrices extracted from different clips have different shapes.  The
neural generator needs a fixed input size, so every squish pattern is extended
to a square topology matrix with a fixed side length by splitting existing
intervals into equal parts (which does not change the geometry) and, when a
dimension has more intervals than the target, by merging mergeable adjacent
columns/rows (identical columns can be merged losslessly).
"""

from __future__ import annotations

import numpy as np

from .squish import SquishPattern


class PaddingError(ValueError):
    """Raised when a pattern cannot be extended/reduced to the target size."""


def _split_axis(
    topology: np.ndarray, delta: np.ndarray, target: int, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Grow ``axis`` to ``target`` intervals by splitting the widest intervals.

    Splitting an interval of length L into two intervals (ceil(L/2),
    floor(L/2)) and duplicating the corresponding row/column keeps the decoded
    geometry identical, because the duplicated cells carry the same bit.  The
    splits are replayed on the delta list alone, tracking which source
    row/column each interval copies, and the topology is gathered once.
    """
    d = [int(v) for v in delta]
    source = list(range(len(d)))
    while len(d) < target:
        # Split the widest interval (the first one on ties) if it can still
        # be split into two >=1 parts.
        widest = max(d, default=0)
        if widest < 2:
            raise PaddingError(
                "cannot extend pattern: all intervals already have length 1"
            )
        idx = d.index(widest)
        left = (widest + 1) // 2
        d[idx : idx + 1] = [left, widest - left]
        source.insert(idx, source[idx])
    return topology.take(source, axis=axis), np.asarray(d, dtype=np.int64)


def _merge_axis(
    topology: np.ndarray, delta: np.ndarray, target: int, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink ``axis`` to ``target`` intervals by merging identical neighbours.

    Two adjacent columns (or rows) can be merged losslessly iff their bits are
    identical; the merged interval is the sum of the two.  If no further
    lossless merge exists the pattern is rejected — the caller should use a
    larger target size instead of silently changing geometry.
    """
    topo = topology.copy()
    d = list(int(v) for v in delta)
    while len(d) > target:
        merged = False
        for i in range(len(d) - 1):
            a = topo.take(i, axis=axis)
            b = topo.take(i + 1, axis=axis)
            if np.array_equal(a, b):
                d[i] = d[i] + d[i + 1]
                del d[i + 1]
                topo = np.delete(topo, i + 1, axis=axis)
                merged = True
                break
        if not merged:
            raise PaddingError(
                f"cannot losslessly reduce axis {axis} to {target} intervals"
            )
    return topo, np.asarray(d, dtype=np.int64)


def pad_to_size(pattern: SquishPattern, size: int) -> SquishPattern:
    """Extend (or losslessly reduce) a pattern to a ``size x size`` topology.

    The decoded layout of the returned pattern is geometrically identical to
    the input — only the squish factorisation changes.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    topo = pattern.topology
    dx = pattern.delta_x
    dy = pattern.delta_y

    # Columns (axis=1 of topology) follow delta_x.
    if dx.shape[0] < size:
        topo, dx = _split_axis(topo, dx, size, axis=1)
    elif dx.shape[0] > size:
        topo, dx = _merge_axis(topo, dx, size, axis=1)
    # Rows (axis=0) follow delta_y.
    if dy.shape[0] < size:
        topo, dy = _split_axis(topo, dy, size, axis=0)
    elif dy.shape[0] > size:
        topo, dy = _merge_axis(topo, dy, size, axis=0)

    return SquishPattern(topo, dx, dy, origin=pattern.origin)


def canonicalize(pattern: SquishPattern) -> SquishPattern:
    """Merge every mergeable adjacent row/column (minimal squish form).

    This is the canonical representation used when computing pattern
    complexity: adjacent identical rows/columns carry no topology information
    and are collapsed, so (cx, cy) reflect true scan-line structure.
    """
    topo = pattern.topology.copy()
    dx = list(int(v) for v in pattern.delta_x)
    dy = list(int(v) for v in pattern.delta_y)

    def merge_all(topo: np.ndarray, d: list[int], axis: int):
        i = 0
        while i < len(d) - 1:
            a = topo.take(i, axis=axis)
            b = topo.take(i + 1, axis=axis)
            if np.array_equal(a, b):
                d[i] += d[i + 1]
                del d[i + 1]
                topo = np.delete(topo, i + 1, axis=axis)
            else:
                i += 1
        return topo, d

    topo, dx = merge_all(topo, dx, axis=1)
    topo, dy = merge_all(topo, dy, axis=0)
    return SquishPattern(
        topo,
        np.asarray(dx, dtype=np.int64),
        np.asarray(dy, dtype=np.int64),
        origin=pattern.origin,
    )
