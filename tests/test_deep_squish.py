"""Unit tests for the Deep Squish (fold/unfold) representation."""

import numpy as np
import pytest

from repro.squish import fold, naive_pack, unfold
from repro.squish.deep_squish import _patch_side


def naive_unpack(packed, bits):
    """Inverse of :func:`repro.squish.naive_pack`."""
    arr = np.asarray(packed, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("packed array must be 2-D")
    if (arr < 0).any() or (arr >= 2**bits).any():
        raise ValueError(f"packed states must lie in [0, 2**{bits})")
    side = _patch_side(bits)
    m, m2 = arr.shape
    if m != m2:
        raise ValueError("packed array must be square")
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    patches = ((arr[..., None] >> shifts) & 1).reshape(m, m, side, side)
    return patches.transpose(0, 2, 1, 3).reshape(m * side, m * side).astype(np.uint8)


class TestFoldUnfold:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 2, size=(16, 16)).astype(np.uint8)
        tensor = fold(matrix, 16)
        assert tensor.shape == (16, 4, 4)
        assert np.array_equal(unfold(tensor), matrix)

    def test_roundtrip_various_channel_counts(self):
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 2, size=(12, 12)).astype(np.uint8)
        for channels in (1, 4, 9, 36):
            assert np.array_equal(unfold(fold(matrix, channels)), matrix)

    def test_fold_preserves_bit_count(self):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        tensor = fold(matrix, 4)
        assert tensor.sum() == matrix.sum()

    def test_fold_patch_mapping(self):
        # The (0,0) spatial position of the tensor carries the top-left patch.
        matrix = np.zeros((4, 4), dtype=np.uint8)
        matrix[0, 1] = 1  # row 0, col 1 of the top-left 2x2 patch
        tensor = fold(matrix, 4)
        assert tensor[:, 0, 0].tolist() == [0, 1, 0, 0]
        assert tensor[:, 0, 1].sum() == 0

    def test_fold_requires_square(self):
        with pytest.raises(ValueError):
            fold(np.zeros((4, 6), dtype=np.uint8), 4)

    def test_fold_requires_perfect_square_channels(self):
        with pytest.raises(ValueError):
            fold(np.zeros((4, 4), dtype=np.uint8), 8)

    def test_fold_requires_divisible_side(self):
        with pytest.raises(ValueError):
            fold(np.zeros((6, 6), dtype=np.uint8), 16)

    def test_unfold_rejects_non_binary(self):
        with pytest.raises(ValueError):
            unfold(np.full((4, 2, 2), 2))

    def test_unfold_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((4, 4)))

    def test_batch_roundtrip(self):
        # The dataset folds a batch, and the stream unfolds one, matrix by matrix.
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 2, size=(5, 8, 8)).astype(np.uint8)
        tensors = np.stack([fold(matrix, 16) for matrix in batch])
        assert tensors.shape == (5, 16, 2, 2)
        assert np.array_equal(np.stack([unfold(tensor) for tensor in tensors]), batch)


class TestNaivePacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        matrix = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        packed = naive_pack(matrix, 4)
        assert packed.shape == (4, 4)
        assert np.array_equal(naive_unpack(packed, 4), matrix)

    def test_state_space_is_exponential(self):
        matrix = np.ones((4, 4), dtype=np.uint8)
        packed = naive_pack(matrix, 16)
        assert packed.max() == 2**16 - 1

    def test_unbalanced_bit_power(self):
        # Only the first bit of the patch set -> value 2**(bits-1).
        matrix = np.zeros((2, 2), dtype=np.uint8)
        matrix[0, 0] = 1
        assert naive_pack(matrix, 4)[0, 0] == 8
        # Only the last bit set -> value 1.
        matrix = np.zeros((2, 2), dtype=np.uint8)
        matrix[1, 1] = 1
        assert naive_pack(matrix, 4)[0, 0] == 1

    def test_unpack_range_check(self):
        with pytest.raises(ValueError):
            naive_unpack(np.array([[16]]), 4)

    def test_deep_squish_and_naive_encode_same_information(self):
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        via_fold = unfold(fold(matrix, 16))
        via_pack = naive_unpack(naive_pack(matrix, 16), 16)
        assert np.array_equal(via_fold, via_pack)
