"""Deep Squish Pattern representation (Section III-B of the paper).

The squish topology matrix is a sparse one-channel binary image.  Deep squish
folds each ``sqrt(C) x sqrt(C)`` patch of the matrix into a single spatial
location with ``C`` channels, producing a topology *tensor* of shape
``(C, M, M)`` from a matrix of shape ``(sqrt(C)*M, sqrt(C)*M)``.  The fold is
lossless and assigns the same "weight" to every bit — unlike naive bit
concatenation, which creates an exponentially large state space with wildly
unbalanced bit significance (Fig. 5).
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import validate_grid


def _patch_side(channels: int) -> int:
    """Validate the channel count and return ``sqrt(channels)``."""
    if channels <= 0:
        raise ValueError("channels must be positive")
    side = math.isqrt(channels)
    if side * side != channels:
        raise ValueError(
            f"channels must be a perfect square (got {channels})"
        )
    return side


def fold(topology: np.ndarray, channels: int) -> np.ndarray:
    """Fold a binary topology matrix into a ``(C, M, M)`` topology tensor.

    ``topology`` must be square with a side divisible by ``sqrt(channels)``.
    Channel ``c`` of the output at spatial position ``(i, j)`` carries the bit
    at row ``i*s + c // s`` and column ``j*s + c % s`` of the input, where
    ``s = sqrt(channels)``.
    """
    arr = validate_grid(topology)
    side = _patch_side(channels)
    rows, cols = arr.shape
    if rows != cols:
        raise ValueError(f"topology must be square, got {arr.shape}")
    if rows % side != 0:
        raise ValueError(
            f"topology side {rows} is not divisible by patch side {side}"
        )
    m = rows // side
    # (m, s, m, s) -> (s, s, m, m) -> (C, m, m)
    tensor = (
        arr.reshape(m, side, m, side)
        .transpose(1, 3, 0, 2)
        .reshape(channels, m, m)
    )
    return np.ascontiguousarray(tensor)


def unfold(tensor: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fold`: recover the flat binary topology matrix."""
    arr = np.asarray(tensor)
    if arr.ndim != 3:
        raise ValueError(f"topology tensor must be 3-D (C, M, M), got {arr.shape}")
    channels, m, m2 = arr.shape
    if m != m2:
        raise ValueError(f"topology tensor spatial dims must match, got {arr.shape}")
    side = _patch_side(channels)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("topology tensor entries must be 0 or 1")
    matrix = (
        arr.reshape(side, side, m, m)
        .transpose(2, 0, 3, 1)
        .reshape(side * m, side * m)
    )
    return np.ascontiguousarray(matrix.astype(np.uint8))


def naive_pack(topology: np.ndarray, bits: int) -> np.ndarray:
    """Naive bit concatenation baseline from Fig. 5 (for comparison only).

    Packs each ``sqrt(bits) x sqrt(bits)`` patch into a single integer state
    in ``[0, 2**bits)``.  This representation is also lossless but gives the
    first bit a weight of ``2**(bits-1)`` and the last a weight of 1, and its
    state count grows exponentially with the patch size — exactly the
    numerical-imbalance problem deep squish avoids.
    """
    arr = validate_grid(topology)
    side = _patch_side(bits)
    rows, cols = arr.shape
    if rows != cols or rows % side != 0:
        raise ValueError("topology must be square with side divisible by sqrt(bits)")
    m = rows // side
    patches = arr.reshape(m, side, m, side).transpose(0, 2, 1, 3).reshape(m, m, bits)
    weights = 2 ** np.arange(bits - 1, -1, -1, dtype=np.int64)
    return (patches.astype(np.int64) * weights).sum(axis=-1)
