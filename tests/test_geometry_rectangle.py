"""Unit tests for repro.geometry.rectangle."""

import pytest

from repro.geometry import Rect


class TestRectConstruction:
    def test_basic_properties(self):
        rect = Rect(0, 0, 10, 20)
        assert rect.width == 10
        assert rect.height == 20
        assert rect.area == 200
        assert rect.center == (5.0, 10.0)

    def test_degenerate_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 5, 10)

    def test_degenerate_zero_height_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 3, 10, 3)

    def test_rect_is_hashable_and_comparable(self):
        assert Rect(0, 0, 1, 1) == Rect(0, 0, 1, 1)
        assert len({Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)}) == 1


class TestRectRelations:
    def test_translation(self):
        rect = Rect(0, 0, 4, 4).translated(10, -2)
        assert (rect.x1, rect.y1, rect.x2, rect.y2) == (10, -2, 14, 2)

    def test_intersects_overlap(self):
        assert Rect(0, 0, 10, 10).intersects(Rect(5, 5, 15, 15))

    def test_intersects_requires_positive_area(self):
        # Sharing only an edge is not an overlap.
        assert not Rect(0, 0, 10, 10).intersects(Rect(10, 0, 20, 10))

    def test_touches_edge(self):
        assert Rect(0, 0, 10, 10).touches(Rect(10, 0, 20, 10))

    def test_touches_corner_only_is_false(self):
        assert not Rect(0, 0, 10, 10).touches(Rect(10, 10, 20, 20))

    def test_touches_disjoint_is_false(self):
        assert not Rect(0, 0, 10, 10).touches(Rect(20, 20, 30, 30))

    def test_intersection_region(self):
        inter = Rect(0, 0, 10, 10).intersection(Rect(5, 5, 15, 15))
        assert inter == Rect(5, 5, 10, 10)

    def test_intersection_none_when_disjoint(self):
        assert Rect(0, 0, 2, 2).intersection(Rect(5, 5, 6, 6)) is None

    def test_union_bbox(self):
        assert Rect(0, 0, 2, 2).union_bbox(Rect(5, 5, 6, 6)) == Rect(0, 0, 6, 6)

    def test_contains_point_boundary(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains_point(0, 0)
        assert rect.contains_point(10, 10)
        assert not rect.contains_point(10.1, 5)

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 8, 8))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 12, 8))

    def test_clipped_inside_window(self):
        assert Rect(-5, -5, 5, 5).clipped(Rect(0, 0, 10, 10)) == Rect(0, 0, 5, 5)

    def test_clipped_outside_window(self):
        assert Rect(-5, -5, -1, -1).clipped(Rect(0, 0, 10, 10)) is None
