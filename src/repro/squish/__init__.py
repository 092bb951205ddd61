"""Squish and Deep Squish pattern representations (lossless layout encodings)."""

from .deep_squish import fold, naive_pack, unfold
from .padding import PaddingError, canonicalize, pad_to_size
from .squish import SquishPattern

__all__ = [
    "SquishPattern",
    "pad_to_size",
    "canonicalize",
    "PaddingError",
    "fold",
    "unfold",
    "naive_pack",
]
