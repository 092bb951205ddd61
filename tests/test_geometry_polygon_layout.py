"""Unit tests for repro.geometry.polygon and repro.geometry.layout."""

import numpy as np
import pytest

from repro.geometry import Layout, Rect, RectilinearPolygon, polygons_from_grid


class TestRectilinearPolygon:
    def test_requires_rectangles(self):
        with pytest.raises(ValueError):
            RectilinearPolygon([])

    def test_area_and_bbox_of_l_shape(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 30), Rect(10, 0, 30, 10)])
        assert poly.area == 300 + 200
        assert poly.bbox == Rect(0, 0, 30, 30)

    def test_translation(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 10)]).translated(5, 5)
        assert poly.bbox == Rect(5, 5, 15, 15)

    def test_contains_point(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 10)])
        assert poly.contains_point(5, 5)
        assert not poly.contains_point(15, 5)

    def test_vertices_of_rectangle(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 20)])
        assert sorted(poly.vertices()) == [(0, 0), (0, 20), (10, 0), (10, 20)]

    def test_vertices_of_l_shape_count(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 30), Rect(10, 0, 30, 10)])
        assert len(poly.vertices()) == 6


class TestPolygonsFromGrid:
    def test_two_components(self):
        grid = np.zeros((4, 4), dtype=np.uint8)
        grid[0, 0] = 1
        grid[2:4, 2:4] = 1
        polys = polygons_from_grid(grid, [10] * 4, [10] * 4)
        assert len(polys) == 2
        assert sorted(p.area for p in polys) == [100, 400]

    def test_component_rectangles_merge_rows(self):
        grid = np.array([[1, 1, 1]], dtype=np.uint8)
        polys = polygons_from_grid(grid, [10, 10, 10], [10])
        assert len(polys) == 1
        assert len(polys[0].rects) == 1
        assert polys[0].rects[0].width == 30


class TestLayout:
    def test_from_grid_roundtrip(self):
        grid = np.zeros((3, 3), dtype=np.uint8)
        grid[0, 0] = 1
        grid[2, 1:3] = 1
        dx = np.array([100, 200, 100])
        dy = np.array([50, 100, 50])
        layout = Layout.from_grid(grid, dx, dy)
        assert layout.window == Rect(0, 0, 400, 200)
        assert layout.num_polygons == 2
        back_grid, back_dx, back_dy = layout.occupancy_grid()
        rebuilt = Layout.from_grid(back_grid, back_dx, back_dy)
        assert sorted((r.x1, r.y1, r.x2, r.y2) for r in rebuilt.all_rects()) == sorted(
            (r.x1, r.y1, r.x2, r.y2) for r in layout.all_rects()
        )

    @pytest.mark.parametrize(
        "grid, dx, dy",
        [
            (np.ones((1, 1)), [5, 7], [3]),  # a spare column interval
            (np.ones((2, 2)), [5], [3, 3]),  # a missing column interval
            (np.ones((2, 3)), [1, 1, 1], [2]),  # a missing row interval
        ],
        ids=["dx-too-long", "dx-too-short", "dy-too-short"],
    )
    def test_from_grid_rejects_intervals_that_do_not_fit_the_grid(self, grid, dx, dy):
        with pytest.raises(ValueError, match="do not fit"):
            Layout.from_grid(grid, dx, dy)
        with pytest.raises(ValueError, match="do not fit"):
            polygons_from_grid(grid, dx, dy)

    def test_polygon_outside_window_rejected(self):
        window = Rect(0, 0, 100, 100)
        poly = RectilinearPolygon([Rect(50, 50, 150, 150)])
        with pytest.raises(ValueError):
            Layout(window, [poly])

    def test_density(self):
        layout = Layout(Rect(0, 0, 100, 100), [RectilinearPolygon([Rect(0, 0, 50, 50)])])
        assert layout.density == pytest.approx(0.25)

    def test_scanline_coordinates_include_window(self):
        layout = Layout(Rect(0, 0, 100, 100), [RectilinearPolygon([Rect(10, 20, 30, 40)])])
        xs, ys = layout.scanline_coordinates()
        assert list(xs) == [0, 10, 30, 100]
        assert list(ys) == [0, 20, 40, 100]

    def test_empty_layout_occupancy_grid(self):
        layout = Layout(Rect(0, 0, 100, 100))
        grid, dx, dy = layout.occupancy_grid()
        assert grid.shape == (1, 1)
        assert grid.sum() == 0
        assert dx.sum() == 100
