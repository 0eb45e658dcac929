import math

import numpy as np
import pytest

from avstress.geom import (
    OrientedBox,
    Point2,
    Polyline,
    boxes_overlap,
    euclidean_distance,
    point_at_arclength,
    project_to_polyline,
)


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance(Point2(0, 0), Point2(3, 4)) == 5.0

    def test_identity(self):
        assert euclidean_distance(Point2(1, 1), Point2(1, 1)) == 0.0

    def test_axis_aligned(self):
        assert euclidean_distance(Point2(-2, 0), Point2(2, 0)) == 4.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (Point2(*rng.uniform(-50, 50, 2)) for _ in range(3))
            assert euclidean_distance(a, c) <= (
                euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12
            )


class TestBoxesOverlap:
    def test_identical(self):
        box = OrientedBox(Point2(0, 0), 0.3, 4.0, 2.0)
        assert boxes_overlap(box, box)

    def test_disjoint(self):
        a = OrientedBox(Point2(0, 0), 0.0, 1.0, 1.0)
        b = OrientedBox(Point2(10, 0), 0.0, 1.0, 1.0)
        assert not boxes_overlap(a, b)

    def test_shared_edge_counts(self):
        a = OrientedBox(Point2(0, 0), 0.0, 1.0, 1.0)
        b = OrientedBox(Point2(1, 0), 0.0, 1.0, 1.0)
        assert boxes_overlap(a, b)

    def test_rotated_near_miss(self):
        a = OrientedBox(Point2(0, 0), 0.0, 4.0, 2.0)
        b = OrientedBox(Point2(0, 2.5), math.pi / 2, 4.0, 2.0)
        # b is rotated so its half-width (1.0) faces a's half-width (1.0)
        assert boxes_overlap(a, b)
        c = OrientedBox(Point2(0, 3.1), math.pi / 2, 4.0, 2.0)
        assert not boxes_overlap(a, c)

    def test_symmetry_and_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = OrientedBox(Point2(*rng.uniform(-5, 5, 2)), rng.uniform(-3, 3), 4.0, 2.0)
            b = OrientedBox(Point2(*rng.uniform(-5, 5, 2)), rng.uniform(-3, 3), 3.0, 1.5)
            result = boxes_overlap(a, b)
            assert boxes_overlap(b, a) == result
            # common translation
            dx, dy = rng.uniform(-20, 20, 2)
            ta = OrientedBox(Point2(a.center.x + dx, a.center.y + dy), a.heading, a.length, a.width)
            tb = OrientedBox(Point2(b.center.x + dx, b.center.y + dy), b.heading, b.length, b.width)
            assert boxes_overlap(ta, tb) == result
            # common rotation about the origin
            phi = rng.uniform(-3, 3)
            c, s = math.cos(phi), math.sin(phi)

            def rot(box):
                return OrientedBox(
                    Point2(c * box.center.x - s * box.center.y, s * box.center.x + c * box.center.y),
                    box.heading + phi,
                    box.length,
                    box.width,
                )

            assert boxes_overlap(rot(a), rot(b)) == result

    def test_invalid_extents(self):
        with pytest.raises(ValueError):
            OrientedBox(Point2(0, 0), 0.0, 1.0, 2.0)  # width > length
        with pytest.raises(ValueError):
            OrientedBox(Point2(0, 0), 0.0, 1.0, 0.0)


class TestPolylineProjection:
    def test_perpendicular_drop(self):
        line = Polyline((Point2(0, 0), Point2(2, 0)))
        assert project_to_polyline(1, 1, line) == (1.0, 1.0, 1.0)

    def test_clamped_before_start(self):
        line = Polyline((Point2(0, 0), Point2(2, 0)))
        assert project_to_polyline(-1, 0, line) == (0.0, 0.0, 1.0)

    def test_vertex_tie_breaks_to_earlier_segment(self):
        # right-angle polyline; the query sits on the corner vertex, distance 0
        # from segment 0 (at s=1) and segment 1 (s=1)
        line = Polyline((Point2(0, 0), Point2(1, 0), Point2(1, 1)))
        s, l, d = project_to_polyline(1, 0, line)
        assert s == pytest.approx(1.0)
        assert l == pytest.approx(0.0)
        assert d == 0.0
        # a U-turn: (5, 5) is 5 m from all three segments, at arc-lengths 5,
        # 15 and 25; the earliest segment must win
        u_turn = Polyline((Point2(0, 0), Point2(10, 0), Point2(10, 10), Point2(0, 10)))
        assert project_to_polyline(5, 5, u_turn) == (5.0, 5.0, 5.0)

    def test_right_of_line_is_negative(self):
        line = Polyline((Point2(0, 0), Point2(10, 0)))
        _, l, _ = project_to_polyline(5, -2, line)
        assert l == pytest.approx(-2.0)


class TestPointAtArclength:
    def test_on_centerline(self):
        line = Polyline((Point2(0, 0), Point2(10, 0)))
        assert point_at_arclength(line, 4.0, 0.0) == (4.0, 0.0)

    def test_left_offset(self):
        line = Polyline((Point2(0, 0), Point2(10, 0)))
        assert point_at_arclength(line, 4.0, 2.0) == (4.0, 2.0)

    def test_out_of_range(self):
        line = Polyline((Point2(0, 0), Point2(10, 0)))
        with pytest.raises(ValueError):
            point_at_arclength(line, 11.0)
        with pytest.raises(ValueError):
            point_at_arclength(line, -1.0)

    def test_round_trip(self):
        line = Polyline((Point2(0, 0), Point2(20, 0), Point2(40, 10)))
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.uniform(0.5, line.total_length - 0.5)
            l = rng.uniform(-1.5, 1.5)
            x, y = point_at_arclength(line, s, l)
            s2, l2, _ = project_to_polyline(x, y, line)
            # interior points away from the kink round-trip exactly
            if abs(s - 20.0) > 2.0:
                assert s2 == pytest.approx(s, abs=1e-9)
                assert l2 == pytest.approx(l, abs=1e-9)

    def test_degenerate_polyline_rejected(self):
        with pytest.raises(ValueError):
            Polyline((Point2(0, 0),))
        with pytest.raises(ValueError):
            Polyline((Point2(0, 0), Point2(0, 0)))
