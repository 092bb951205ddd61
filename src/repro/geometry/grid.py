"""Operations on binary topology grids.

A topology grid is a 2-D binary array where 1 marks "shape" (metal) and 0
marks "space".  Together with the geometric vectors produced by the squish
encoding it describes a rectilinear layout exactly.  This module provides the
grid-level geometry primitives used throughout the library:

* connected-component labelling (4-connectivity, the correct adjacency for
  rectilinear polygons),
* bow-tie (corner-touching) detection,
* run-length extraction along rows/columns (the basis of width / space rules).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np


def validate_grid(grid: np.ndarray) -> np.ndarray:
    """Check that ``grid`` is a 2-D binary array and return it as ``uint8``.

    Raises ``ValueError`` for wrong dimensionality or non-binary entries.
    """
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValueError(f"topology grid must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("topology grid must be non-empty")
    # Dtype-aware binary check: unsigned bytes only need an upper bound and
    # booleans are binary by construction; everything else gets the general
    # elementwise test (which also rejects fractional values and NaN).
    if arr.dtype == np.uint8:
        binary = bool((arr <= 1).all())
    elif arr.dtype == np.bool_:
        binary = True
    else:
        binary = bool(((arr == 0) | (arr == 1)).all())
    if not binary:
        raise ValueError("topology grid entries must be 0 or 1")
    return arr.astype(np.uint8)


def connected_components(grid: np.ndarray) -> tuple[np.ndarray, int]:
    """Label 4-connected components of the 1-cells.

    Returns ``(labels, count)`` where ``labels`` has the same shape as the
    grid, 0 for background and ``1..count`` for each component.
    """
    arr = validate_grid(grid)
    rows, cols = arr.shape
    labels = np.zeros((rows, cols), dtype=np.int32)
    current = 0
    for start_r in range(rows):
        for start_c in range(cols):
            if arr[start_r, start_c] == 0 or labels[start_r, start_c] != 0:
                continue
            current += 1
            queue: deque[tuple[int, int]] = deque([(start_r, start_c)])
            labels[start_r, start_c] = current
            while queue:
                r, c = queue.popleft()
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < rows and 0 <= nc < cols:
                        if arr[nr, nc] == 1 and labels[nr, nc] == 0:
                            labels[nr, nc] = current
                            queue.append((nr, nc))
    return labels, current


def has_bowtie(grid: np.ndarray) -> bool:
    """Detect corner-touching shapes (bow-ties).

    A bow-tie occurs when two diagonal cells are 1 while the two
    anti-diagonal cells of the same 2x2 window are 0.  Such a topology cannot
    be realised by non-degenerate rectilinear polygons and is filtered out by
    the topology pre-filter.
    """
    arr = validate_grid(grid)
    a = arr[:-1, :-1]
    b = arr[:-1, 1:]
    c = arr[1:, :-1]
    d = arr[1:, 1:]
    bowtie_main = (a == 1) & (d == 1) & (b == 0) & (c == 0)
    bowtie_anti = (b == 1) & (c == 1) & (a == 0) & (d == 0)
    return bool((bowtie_main | bowtie_anti).any())


def runs_of_value(line: np.ndarray, value: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, end)`` index ranges (inclusive) of consecutive cells
    equal to ``value`` in a 1-D array."""
    arr = np.asarray(line)
    n = arr.shape[0]
    i = 0
    while i < n:
        if arr[i] == value:
            j = i
            while j + 1 < n and arr[j + 1] == value:
                j += 1
            yield i, j
            i = j + 1
        else:
            i += 1


def runs_2d(grid: np.ndarray, value: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All maximal runs of ``value`` along the rows of a 2-D array, at once.

    Returns ``(line, start, end)`` index arrays (``end`` inclusive), ordered
    row-major — i.e. exactly the order a Python loop over
    :func:`runs_of_value` per row would visit them.  This is the shared
    run-length kernel behind constraint extraction and the DRC width/space
    checks; pass ``grid.T`` to get runs along columns (``line`` is then the
    column index).
    """
    eq = np.asarray(grid) == value
    rows, cols = eq.shape
    padded = np.zeros((rows, cols + 2), dtype=np.int8)
    padded[:, 1:-1] = eq
    edges = np.diff(padded, axis=1)
    line, start = np.nonzero(edges == 1)
    _, end = np.nonzero(edges == -1)
    # Every start has a matching end in the same row, and np.nonzero yields
    # both row-major, so the two arrays are aligned pairwise.
    return line, start, end - 1


def interior_runs_2d(
    grid: np.ndarray, value: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of ``value`` strictly between the first and last 1 of each row.

    The vectorized form of the per-line "interior run" rule: a run counts
    only when it lies between two shape cells of the same line (runs touching
    the window border are not space constraints).  Same ``(line, start,
    end)`` layout and ordering as :func:`runs_2d`.
    """
    arr = np.asarray(grid)
    line, start, end = runs_2d(arr, value)
    ones = arr == 1
    has_shape = ones.any(axis=1)
    first = np.argmax(ones, axis=1)
    last = arr.shape[1] - 1 - np.argmax(ones[:, ::-1], axis=1)
    keep = has_shape[line] & (start > first[line]) & (end < last[line])
    return line[keep], start[keep], end[keep]
