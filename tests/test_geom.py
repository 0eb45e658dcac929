import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import pytest

from avstress import geom
from avstress.geom import (
    Point2,
    Polyline,
    euclidean_distance,
    first_overlap,
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


# the box test that first_overlap replaced, verbatim, as its reference
@dataclass(frozen=True)
class OrientedBox:
    """Rectangle given by center, heading, and full length/width extents."""

    center: Point2
    heading: float
    length: float
    width: float

    def __post_init__(self):
        if not (self.length >= self.width > 0.0):
            raise ValueError(
                f"invalid box extents length={self.length} width={self.width}"
            )

    def corners(self) -> list[Point2]:
        c, s = math.cos(self.heading), math.sin(self.heading)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        out = []
        for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
            out.append(
                Point2(self.center.x + dx * c - dy * s, self.center.y + dx * s + dy * c)
            )
        return out


def _project_extent(corners: Sequence[Point2], axis: Tuple[float, float]):
    vals = [p.x * axis[0] + p.y * axis[1] for p in corners]
    return min(vals), max(vals)


def boxes_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis test over the 4 face normals of the two rectangles.

    Touching boxes count as overlapping (closed-set convention).
    """
    ca, cb = a.corners(), b.corners()
    axes = []
    for box in (a, b):
        c, s = math.cos(box.heading), math.sin(box.heading)
        axes.append((c, s))
        axes.append((-s, c))
    for axis in axes:
        lo_a, hi_a = _project_extent(ca, axis)
        lo_b, hi_b = _project_extent(cb, axis)
        if hi_a < lo_b or hi_b < lo_a:
            return False
    return True


def overlaps(a, b):
    """first_overlap on one pair of (center, heading, length, width) footprints."""
    return first_overlap([a, b]) is not None


class TestBoxesOverlap:
    def test_identical(self):
        box = (Point2(0, 0), 0.3, 4.0, 2.0)
        assert overlaps(box, box)

    def test_disjoint(self):
        a = (Point2(0, 0), 0.0, 1.0, 1.0)
        b = (Point2(10, 0), 0.0, 1.0, 1.0)
        assert not overlaps(a, b)

    def test_shared_edge_counts(self):
        a = (Point2(0, 0), 0.0, 1.0, 1.0)
        b = (Point2(1, 0), 0.0, 1.0, 1.0)
        assert overlaps(a, b)

    def test_rotated_near_miss(self):
        a = (Point2(0, 0), 0.0, 4.0, 2.0)
        b = (Point2(0, 2.5), math.pi / 2, 4.0, 2.0)
        # b is rotated so its half-width (1.0) faces a's half-width (1.0)
        assert overlaps(a, b)
        c = (Point2(0, 3.1), math.pi / 2, 4.0, 2.0)
        assert not overlaps(a, c)

    def test_symmetry_and_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = (Point2(*rng.uniform(-5, 5, 2)), rng.uniform(-3, 3), 4.0, 2.0)
            b = (Point2(*rng.uniform(-5, 5, 2)), rng.uniform(-3, 3), 3.0, 1.5)
            result = overlaps(a, b)
            assert overlaps(b, a) == result
            # common translation
            dx, dy = rng.uniform(-20, 20, 2)

            def shift(box):
                center, heading, length, width = box
                return (Point2(center.x + dx, center.y + dy), heading, length, width)

            assert overlaps(shift(a), shift(b)) == result
            # common rotation about the origin
            phi = rng.uniform(-3, 3)
            c, s = math.cos(phi), math.sin(phi)

            def rot(box):
                center, heading, length, width = box
                return (
                    Point2(c * center.x - s * center.y, s * center.x + c * center.y),
                    heading + phi,
                    length,
                    width,
                )

            assert overlaps(rot(a), rot(b)) == result


def _limit_pairs(rng):
    """Footprint pairs whose center distance is the pre-reject's limit, the
    sum of the circumradii, plus or minus 1e-9 m, and the same around the
    limit plus its 1e-6 m margin. Half of them have equal aspect ratios and
    lie along their common diagonal, so at the limit their corners meet."""
    pairs = []
    for k in range(60):
        heading = rng.uniform(-math.pi, math.pi)
        la = rng.uniform(1.0, 6.0)
        wa = rng.uniform(0.5, 1.0) * la
        if k % 2:
            lb = rng.uniform(1.0, 6.0)
            wb = lb * wa / la
            direction, heading_b = heading + math.atan2(wa, la), heading
        else:
            lb = rng.uniform(1.0, 6.0)
            wb = rng.uniform(0.5, 1.0) * lb
            direction, heading_b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        limit = 0.5 * math.hypot(la, wa) + 0.5 * math.hypot(lb, wb)
        x, y = rng.uniform(-50, 50, 2)
        for d in (limit - 1e-9, limit, limit + 1e-9, limit + 1e-6 - 1e-9, limit + 1e-6 + 1e-9):
            b_center = Point2(x + d * math.cos(direction), y + d * math.sin(direction))
            pairs.append(((Point2(x, y), heading, la, wa), (b_center, heading_b, lb, wb)))
    return pairs


def _random_pairs(rng):
    pairs = []
    for _ in range(400):
        extents = []
        for _ in range(2):
            length = rng.uniform(0.5, 6.0)
            extents.append((length, rng.uniform(0.2, 1.0) * length))
        a = (Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-4, 4)) + extents[0]
        b = (Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-4, 4)) + extents[1]
        pairs.append((a, b))
    return pairs


# (center, heading) of 4 m x 2 m footprints that touch one at the origin
# with heading 0, corner to corner or edge to edge; the corners of the last
# three carry the rounding of cos and sin at pi and pi / 2
TOUCHING = [
    (Point2(4.0, 2.0), 0.0), (Point2(-4.0, -2.0), 0.0), (Point2(4.0, -2.0), 0.0),
    (Point2(4.0, 0.0), 0.0), (Point2(0.0, 2.0), 0.0), (Point2(4.0, 0.5), 0.0),
    (Point2(-4.0, 1.5), math.pi), (Point2(3.0, 3.0), math.pi / 2), (Point2(3.0, 0.0), math.pi / 2),
]


class TestFirstOverlap:
    def test_agrees_with_boxes_overlap(self):
        rng = np.random.default_rng(3)
        limit_pairs = _limit_pairs(rng)
        touching = [((Point2(0.0, 0.0), 0.0, 4.0, 2.0), (c, h, 4.0, 2.0)) for c, h in TOUCHING]
        results = []
        for a, b in limit_pairs + _random_pairs(rng) + touching:
            expected = boxes_overlap(OrientedBox(*a), OrientedBox(*b))
            assert first_overlap([a, b]) == ((0, 1) if expected else None)
            assert first_overlap([b, a]) == ((0, 1) if expected else None)
            results.append(expected)
        n_limit = len(limit_pairs)
        # the limit pairs include corners that meet and just miss
        assert any(results[:n_limit]) and not all(results[:n_limit])
        assert 50 < sum(results[n_limit:-len(touching)]) < 350
        # touching footprints count as overlapping
        assert all(results[-len(touching):-3])

    def test_far_pairs_skip_the_box_test(self, monkeypatch):
        calls = []
        real = geom._corners_and_normals

        def counting(*footprint):
            calls.append(footprint)
            return real(*footprint)

        monkeypatch.setattr(geom, "_corners_and_normals", counting)
        box = (Point2(0.0, 0.0), 0.3, 4.0, 2.0)
        limit = math.hypot(4.0, 2.0)
        assert first_overlap([box, (Point2(limit + 2e-6, 0.0), 0.3, 4.0, 2.0)]) is None
        assert calls == []
        assert first_overlap([box, (Point2(limit, 0.0), 0.3, 4.0, 2.0)]) is None
        assert len(calls) == 2

    def test_first_pair_in_loop_order(self):
        def at(x):
            return (Point2(x, 0.0), 0.0, 4.0, 2.0)

        assert first_overlap([at(0.0), at(50.0), at(3.0), at(53.0)]) == (0, 2)
        assert first_overlap([at(0.0), at(50.0), at(100.0), at(53.0)]) == (1, 3)
        assert first_overlap([at(0.0), at(10.0), at(20.0)]) is None
        assert first_overlap([at(0.0)]) is None


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
