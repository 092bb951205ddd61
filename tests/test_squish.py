"""Unit tests for the squish pattern representation and padding."""

import numpy as np
import pytest

from repro.geometry import Layout, Rect, RectilinearPolygon
from repro.squish import PaddingError, SquishPattern, canonicalize, pad_to_size


def _canonicalize_loop(pattern: SquishPattern) -> SquishPattern:
    """The original per-line merge loop, kept as the oracle for ``canonicalize``."""
    topo = pattern.topology.copy()
    dx = list(int(v) for v in pattern.delta_x)
    dy = list(int(v) for v in pattern.delta_y)

    def merge_all(topo, d, axis):
        i = 0
        while i < len(d) - 1:
            if np.array_equal(topo.take(i, axis=axis), topo.take(i + 1, axis=axis)):
                d[i] += d[i + 1]
                del d[i + 1]
                topo = np.delete(topo, i + 1, axis=axis)
            else:
                i += 1
        return topo, d

    topo, dx = merge_all(topo, dx, axis=1)
    topo, dy = merge_all(topo, dy, axis=0)
    return SquishPattern(
        topo, np.asarray(dx, dtype=np.int64), np.asarray(dy, dtype=np.int64), pattern.origin
    )


def _sample_layout() -> Layout:
    window = Rect(0, 0, 1000, 1000)
    polys = [
        RectilinearPolygon([Rect(100, 100, 300, 200)]),
        RectilinearPolygon([Rect(500, 400, 600, 900)]),
    ]
    return Layout(window, polys)


class TestSquishPattern:
    def test_validation_shape_mismatch(self):
        with pytest.raises(ValueError):
            SquishPattern(np.zeros((2, 3), dtype=np.uint8), [1, 2], [1, 2])

    def test_validation_nonpositive_delta(self):
        with pytest.raises(ValueError):
            SquishPattern(np.zeros((1, 1), dtype=np.uint8), [0], [1])

    def test_validation_non_binary_topology(self):
        with pytest.raises(ValueError):
            SquishPattern(np.full((1, 1), 3), [1], [1])

    def test_width_height(self):
        pattern = SquishPattern(np.zeros((2, 3), dtype=np.uint8), [10, 20, 30], [5, 5])
        assert pattern.width == 60
        assert pattern.height == 10
        assert pattern.to_layout().window == Rect(0, 0, 60, 10)


class TestSquishPersistence:
    def _pattern(self) -> SquishPattern:
        topo = np.zeros((3, 4), dtype=np.uint8)
        topo[0, 1:3] = 1
        topo[2, 0] = 1
        return SquishPattern(topo, [10, 20, 30, 40], [7, 8, 9], origin=(100, -50))

    def test_npz_roundtrip_is_exact(self, tmp_path):
        pattern = self._pattern()
        path = tmp_path / "pattern.npz"
        pattern.save(path)
        loaded = SquishPattern.load(path)
        np.testing.assert_array_equal(loaded.topology, pattern.topology)
        np.testing.assert_array_equal(loaded.delta_x, pattern.delta_x)
        np.testing.assert_array_equal(loaded.delta_y, pattern.delta_y)
        assert loaded.origin == pattern.origin
        assert loaded.delta_x.dtype == np.int64

    def test_load_rejects_shape_mismatch_with_file_context(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            topology=np.zeros((2, 2), dtype=np.uint8),
            delta_x=np.asarray([1, 2, 3], dtype=np.int64),
            delta_y=np.asarray([1, 2], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="bad.npz"):
            SquishPattern.load(path)

    def test_load_rejects_missing_arrays(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, topology=np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="missing"):
            SquishPattern.load(path)

    def test_load_rejects_malformed_origin(self, tmp_path):
        path = tmp_path / "origin.npz"
        np.savez(
            path,
            topology=np.zeros((1, 1), dtype=np.uint8),
            delta_x=np.asarray([5], dtype=np.int64),
            delta_y=np.asarray([5], dtype=np.int64),
            origin=np.asarray([1, 2, 3], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="origin"):
            SquishPattern.load(path)

    def test_load_defaults_origin(self, tmp_path):
        path = tmp_path / "no_origin.npz"
        np.savez(
            path,
            topology=np.zeros((1, 1), dtype=np.uint8),
            delta_x=np.asarray([5], dtype=np.int64),
            delta_y=np.asarray([5], dtype=np.int64),
        )
        assert SquishPattern.load(path).origin == (0, 0)


class TestSquishRoundtrip:
    def test_encode_decode_is_lossless(self):
        layout = _sample_layout()
        pattern = SquishPattern.from_layout(layout)
        decoded = pattern.to_layout()
        original = sorted((r.x1, r.y1, r.x2, r.y2) for r in layout.all_rects())
        recovered = sorted((r.x1, r.y1, r.x2, r.y2) for r in decoded.all_rects())
        assert original == recovered

    def test_window_preserved(self):
        layout = _sample_layout()
        pattern = SquishPattern.from_layout(layout)
        assert pattern.width == layout.window.width
        assert pattern.height == layout.window.height

    def test_equivalence_detects_difference(self):
        layout = _sample_layout()
        pattern = SquishPattern.from_layout(layout)
        other_topo = pattern.topology.copy()
        other_topo[0, 0] ^= 1
        other = SquishPattern(other_topo, pattern.delta_x, pattern.delta_y)
        assert not pattern.is_equivalent_to(other)


def _split_axis_by_inserts(topology, delta, target, axis):
    """Oracle: grow ``axis`` one ``np.insert`` per split (the original loop)."""
    topo = topology.copy()
    d = [int(v) for v in delta]
    while len(d) < target:
        order = sorted(range(len(d)), key=lambda i: -d[i])
        idx = next((i for i in order if d[i] >= 2), None)
        if idx is None:
            raise PaddingError("cannot extend pattern: all intervals already have length 1")
        left = (d[idx] + 1) // 2
        d[idx : idx + 1] = [left, d[idx] - left]
        topo = np.insert(topo, idx, topo.take(idx, axis=axis), axis=axis)
    return topo, np.asarray(d, dtype=np.int64)


def _pad_by_inserts(pattern, size):
    topo, dx = _split_axis_by_inserts(pattern.topology, pattern.delta_x, size, axis=1)
    topo, dy = _split_axis_by_inserts(topo, pattern.delta_y, size, axis=0)
    return topo, dx, dy


class TestPadding:
    def _assert_matches_insert_oracle(self, pattern, size):
        padded = pad_to_size(pattern, size)
        topo, dx, dy = _pad_by_inserts(pattern, size)
        for ours, oracle in ((padded.topology, topo), (padded.delta_x, dx), (padded.delta_y, dy)):
            assert ours.dtype == oracle.dtype
            np.testing.assert_array_equal(ours, oracle)

    def test_gather_matches_insert_oracle_on_synthesized_patterns(self, synthetic_patterns):
        for pattern in synthetic_patterns:
            for size in (16, 24):
                if max(pattern.topology.shape) <= size:
                    self._assert_matches_insert_oracle(pattern, size)

    def test_gather_matches_insert_oracle_on_width_ties(self):
        # Equal widths everywhere: every split must take the first widest.
        topo = np.arange(12, dtype=np.uint8).reshape(3, 4) % 2
        pattern = SquishPattern(topo, np.full(4, 6, dtype=np.int64), np.array([4, 7, 7]))
        self._assert_matches_insert_oracle(pattern, 11)

    def test_all_ones_intervals_raise_like_the_oracle(self):
        pattern = SquishPattern(
            np.eye(3, dtype=np.uint8), np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64)
        )
        with pytest.raises(PaddingError):
            _pad_by_inserts(pattern, 4)
        with pytest.raises(PaddingError):
            pad_to_size(pattern, 4)

    def test_pad_preserves_geometry(self):
        layout = _sample_layout()
        pattern = SquishPattern.from_layout(layout)
        padded = pad_to_size(pattern, 16)
        assert padded.topology.shape == (16, 16)
        assert padded.is_equivalent_to(pattern)

    def test_pad_preserves_total_size(self):
        pattern = SquishPattern.from_layout(_sample_layout())
        padded = pad_to_size(pattern, 12)
        assert padded.width == pattern.width
        assert padded.height == pattern.height

    def test_pad_impossible_when_too_many_scanlines(self):
        topo = np.eye(6, dtype=np.uint8)
        # use interval length 1 so no further split is possible
        pattern = SquishPattern(topo, np.ones(6, dtype=np.int64), np.ones(6, dtype=np.int64))
        with pytest.raises(PaddingError):
            pad_to_size(pattern, 8)

    def test_lossless_reduction_merges_identical_columns(self):
        topo = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        pattern = SquishPattern(topo, np.array([5, 5, 5, 5]), np.array([10]))
        reduced = pad_to_size(pattern, 2)
        assert reduced.topology.shape[1] == 2
        assert reduced.is_equivalent_to(pattern)

    def test_impossible_reduction_raises(self):
        topo = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        pattern = SquishPattern(topo, np.array([5, 5, 5, 5]), np.array([10]))
        with pytest.raises(PaddingError):
            pad_to_size(pattern, 2)

    def test_invalid_size(self):
        pattern = SquishPattern(np.zeros((4, 4), dtype=np.uint8), [16] * 4, [16] * 4)
        with pytest.raises(ValueError):
            pad_to_size(pattern, 0)


class TestCanonicalize:
    def test_removes_redundant_scanlines(self):
        pattern = SquishPattern.from_layout(_sample_layout())
        padded = pad_to_size(pattern, 16)
        canonical = canonicalize(padded)
        assert canonical.topology.shape == canonicalize(pattern).topology.shape
        assert canonical.is_equivalent_to(pattern)

    def test_canonical_form_is_fixed_point(self):
        pattern = SquishPattern.from_layout(_sample_layout())
        canonical = canonicalize(pattern)
        again = canonicalize(canonical)
        assert np.array_equal(canonical.topology, again.topology)

    def test_canonicalize_uniform_pattern(self):
        pattern = SquishPattern(np.zeros((4, 4), dtype=np.uint8), [16] * 4, [16] * 4)
        canonical = canonicalize(pattern)
        assert canonical.topology.shape == (1, 1)
        assert canonical.width == 64

    def test_matches_the_merge_loop(self):
        rng = np.random.default_rng(17)
        patterns = []
        for _ in range(300):
            rows, cols = (int(n) for n in rng.integers(1, 13, size=2))
            # Few distinct lines, repeated, so most grids have mergeable runs.
            base = rng.integers(0, 2, size=(int(rng.integers(1, 4)), cols))
            grid = base[rng.integers(0, len(base), size=rows)]
            grid = grid[:, np.sort(rng.integers(0, cols, size=cols))]
            dx = rng.integers(1, 500, size=cols)
            dy = rng.integers(1, 500, size=rows)
            origin = (int(rng.integers(-50, 50)), int(rng.integers(-50, 50)))
            patterns.append(SquishPattern(grid, dx, dy, origin=origin))
        patterns += [
            SquishPattern(np.ones((1, 1)), [7], [9]),
            SquishPattern(np.array([[1, 1, 0, 0, 1]]), [1, 2, 3, 4, 5], [10]),
            SquishPattern(np.array([[0], [1], [1]]), [4], [1, 2, 3]),
            SquishPattern(np.ones((5, 6)), np.arange(1, 7), np.arange(1, 6)),
            SquishPattern(np.zeros((8, 8), dtype=np.uint8), [8] * 8, [8] * 8),
            SquishPattern.from_layout(_sample_layout()),
            pad_to_size(SquishPattern.from_layout(_sample_layout()), 16),
        ]
        for pattern in patterns:
            fast, loop = canonicalize(pattern), _canonicalize_loop(pattern)
            assert fast.origin == loop.origin
            for name in ("topology", "delta_x", "delta_y"):
                a, b = getattr(fast, name), getattr(loop, name)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
