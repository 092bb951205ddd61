"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest

from repro.geometry import (
    connected_components,
    has_bowtie,
    interior_runs_2d,
    polygons_from_grid,
    runs_2d,
    runs_of_value,
    validate_grid,
)


class TestValidateGrid:
    def test_accepts_binary(self):
        out = validate_grid([[0, 1], [1, 0]])
        assert out.dtype == np.uint8

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            validate_grid([[0, 2], [1, 0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            validate_grid([0, 1, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_grid(np.zeros((0, 3)))


class TestConnectedComponents:
    def test_empty_grid_has_zero_components(self):
        labels, count = connected_components(np.zeros((4, 4), dtype=np.uint8))
        assert count == 0
        assert labels.sum() == 0

    def test_single_block(self):
        grid = np.zeros((4, 4), dtype=np.uint8)
        grid[1:3, 1:3] = 1
        labels, count = connected_components(grid)
        assert count == 1
        assert (labels[1:3, 1:3] == 1).all()

    def test_two_separate_blocks(self):
        grid = np.zeros((5, 5), dtype=np.uint8)
        grid[0, 0] = 1
        grid[4, 4] = 1
        _, count = connected_components(grid)
        assert count == 2

    def test_diagonal_cells_are_not_connected(self):
        grid = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        _, count = connected_components(grid)
        assert count == 2

    def test_l_shape_is_single_component(self):
        grid = np.array([[1, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=np.uint8)
        _, count = connected_components(grid)
        assert count == 1

    def test_component_cell_indices(self):
        grid = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        labels, _ = connected_components(grid)
        cells = zip(*np.nonzero(labels == 1))
        assert sorted(cells) == [(0, 0), (1, 0)]


class TestBowtie:
    def test_main_diagonal_bowtie(self):
        assert has_bowtie(np.array([[1, 0], [0, 1]], dtype=np.uint8))

    def test_anti_diagonal_bowtie(self):
        assert has_bowtie(np.array([[0, 1], [1, 0]], dtype=np.uint8))

    def test_full_block_is_not_bowtie(self):
        assert not has_bowtie(np.ones((2, 2), dtype=np.uint8))

    def test_l_corner_is_not_bowtie(self):
        assert not has_bowtie(np.array([[1, 0], [1, 1]], dtype=np.uint8))

    def test_embedded_bowtie_detected(self):
        grid = np.zeros((6, 6), dtype=np.uint8)
        grid[2, 2] = 1
        grid[3, 3] = 1
        assert has_bowtie(grid)

    def test_separated_shapes_no_bowtie(self):
        grid = np.zeros((6, 6), dtype=np.uint8)
        grid[0:2, 0:2] = 1
        grid[4:6, 4:6] = 1
        assert not has_bowtie(grid)


class TestRuns:
    def test_runs_of_ones(self):
        line = np.array([1, 1, 0, 1, 0, 1, 1, 1])
        assert list(runs_of_value(line, 1)) == [(0, 1), (3, 3), (5, 7)]

    def test_runs_of_zeros(self):
        line = np.array([1, 0, 0, 1])
        assert list(runs_of_value(line, 0)) == [(1, 2)]

    def test_runs_all_same(self):
        assert list(runs_of_value(np.ones(4), 1)) == [(0, 3)]

    def test_runs_none(self):
        assert list(runs_of_value(np.zeros(4), 1)) == []


class TestRuns2D:
    """The vectorized kernels must match the per-line Python loops exactly."""

    @staticmethod
    def _reference_runs(grid, value):
        triples = []
        for r in range(grid.shape[0]):
            for start, end in runs_of_value(grid[r], value):
                triples.append((r, start, end))
        return triples

    @staticmethod
    def _reference_interior(grid, value):
        triples = []
        for r in range(grid.shape[0]):
            line = grid[r]
            ones = np.nonzero(line == 1)[0]
            if ones.size == 0:
                continue
            first, last = int(ones[0]), int(ones[-1])
            for start, end in runs_of_value(line, value):
                if start > first and end < last:
                    triples.append((r, start, end))
        return triples

    def test_matches_per_line_loop_on_random_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            grid = (rng.random((rng.integers(1, 12), rng.integers(1, 12))) < 0.5).astype(np.uint8)
            for value in (0, 1):
                line, start, end = runs_2d(grid, value)
                assert list(zip(line.tolist(), start.tolist(), end.tolist())) == (
                    self._reference_runs(grid, value)
                )

    def test_interior_matches_per_line_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            grid = (rng.random((rng.integers(1, 12), rng.integers(1, 12))) < 0.4).astype(np.uint8)
            line, start, end = interior_runs_2d(grid, 0)
            assert list(zip(line.tolist(), start.tolist(), end.tolist())) == (
                self._reference_interior(grid, 0)
            )

    def test_transposed_view_gives_column_runs(self):
        grid = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
        line, start, end = runs_2d(grid.T, 1)
        assert list(zip(line.tolist(), start.tolist(), end.tolist())) == [
            (0, 0, 1),
            (1, 2, 2),
        ]

    def test_border_runs_are_not_interior(self):
        grid = np.array([[0, 1, 0, 1, 0]], dtype=np.uint8)
        line, start, end = interior_runs_2d(grid, 0)
        assert list(zip(line.tolist(), start.tolist(), end.tolist())) == [(0, 2, 2)]

    def test_empty_line_yields_nothing(self):
        line, start, end = runs_2d(np.zeros((2, 3), dtype=np.uint8), 1)
        assert line.size == 0 and start.size == 0 and end.size == 0


class TestGridToRects:
    # A grid plus interval lengths becomes rectangles through polygons_from_grid.
    def test_simple_rectangle(self):
        grid = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        (polygon,) = polygons_from_grid(grid, [10, 20], [5, 5])
        assert len(polygon.rects) == 2  # one merged run per row
        assert polygon.rects[0].width == 30

    def test_origin_offset(self):
        grid = np.array([[1]], dtype=np.uint8)
        rect = polygons_from_grid(grid, [10], [10], origin=(100, 200))[0].rects[0]
        assert (rect.x1, rect.y1, rect.x2, rect.y2) == (100, 200, 110, 210)


class TestComponentAreas:
    def test_areas_with_nonuniform_grid(self):
        grid = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        areas = [p.area for p in polygons_from_grid(grid, [10, 20], [5, 8])]
        assert sorted(areas) == [50, 160]

    def test_total_area_matches_cells(self):
        grid = np.ones((3, 3), dtype=np.uint8)
        areas = [p.area for p in polygons_from_grid(grid, [10, 10, 10], [10, 10, 10])]
        assert areas == [900]
