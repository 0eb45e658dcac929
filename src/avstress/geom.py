"""Planar geometry primitives: points, the overlap test of rectangular
footprints, polylines and the lane (Frenet) lookups on a polyline:
projection to (s, l) and the point at (s, l).

All angles are radians, all distances meters. Headings lie in (-pi, pi],
where `sim.bicycle_step` wraps them. Lateral offsets are positive to the
left of the direction of travel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y


def euclidean_distance(a: Point2, b: Point2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _corners_and_normals(center: Point2, heading: float, length: float, width: float):
    """The four (x, y) corners of a footprint, a rectangle given by its
    center, heading and full length and width, and its two face normals."""
    c, s = math.cos(heading), math.sin(heading)
    hl, hw = 0.5 * length, 0.5 * width
    corners = [
        (center.x + dx * c - dy * s, center.y + dx * s + dy * c)
        for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
    ]
    return corners, ((c, s), (-s, c))


def first_overlap(
    footprints: Sequence[Tuple[Point2, float, float, float]]
) -> Optional[Tuple[int, int]]:
    """Indices (i, j), i < j, of the first pair of footprints that overlap,
    in the order (0, 1), (0, 2), ..., (1, 2), ..., or None.

    Each footprint is a (center, heading, length, width) rectangle. Two
    overlap unless one of the four face normals separates them (the
    separating-axis test); touching footprints count as overlapping. A pair
    whose centers are farther apart than the sum of the circumradii plus
    1e-6 m cannot overlap and skips the test; the margin is far above the
    rounding of the corners, so the answer is the same.
    """
    radii = [0.5 * math.hypot(length, width) for _, _, length, width in footprints]
    for i, a in enumerate(footprints):
        for j in range(i + 1, len(footprints)):
            b = footprints[j]
            # written so that a NaN distance falls through to the box test
            if math.hypot(a[0].x - b[0].x, a[0].y - b[0].y) > radii[i] + radii[j] + 1e-6:
                continue
            corners_a, normals_a = _corners_and_normals(*a)
            corners_b, normals_b = _corners_and_normals(*b)
            for ax, ay in normals_a + normals_b:
                proj_a = [x * ax + y * ay for x, y in corners_a]
                proj_b = [x * ax + y * ay for x, y in corners_b]
                if max(proj_a) < min(proj_b) or max(proj_b) < min(proj_a):
                    break  # a separating axis
            else:
                return i, j
    return None


@dataclass(frozen=True)
class Polyline:
    """Ordered vertex chain with strictly increasing arc-length.

    `segments` holds, per segment, the plain floats the projection and
    arc-length lookups need: (ax, ay, dx, dy, ux, uy, seg_len, seg_len**2,
    s_start, s_end), with (ax, ay) the start vertex, (dx, dy) the vertex
    difference, seg_len = s_end - s_start (not the Euclidean length, which
    can differ from it in the last bit) and (ux, uy) = (dx, dy) / seg_len.
    """

    vertices: Tuple[Point2, ...]
    cumulative: Tuple[float, ...] = field(init=False, repr=False)
    segments: Tuple[Tuple[float, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        verts = tuple(self.vertices)
        if len(verts) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        cum = [0.0]
        for a, b in zip(verts[:-1], verts[1:]):
            d = euclidean_distance(a, b)
            if d <= 0.0:
                raise ValueError("consecutive polyline vertices must be distinct")
            cum.append(cum[-1] + d)
        segments = []
        for i, (a, b) in enumerate(zip(verts[:-1], verts[1:])):
            dx, dy = b.x - a.x, b.y - a.y
            seg_len = cum[i + 1] - cum[i]
            segments.append((
                a.x, a.y, dx, dy, dx / seg_len, dy / seg_len,
                seg_len, seg_len * seg_len, cum[i], cum[i + 1],
            ))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cumulative", tuple(cum))
        object.__setattr__(self, "segments", tuple(segments))

    @property
    def total_length(self) -> float:
        return self.cumulative[-1]


def project_to_polyline(x: float, y: float, line: Polyline) -> Tuple[float, float, float]:
    """Project the point (x, y) onto a polyline.

    Returns (s, l, distance): arc-length of the closest point, signed lateral
    offset (positive left of travel direction) and the distance to it. Ties
    between equally close segments resolve to the smallest index. Points
    beyond the ends clamp to the end vertices. The planner calls it on
    multi-segment lanes and inlines it on one-segment lanes.
    """
    best = None
    for ax, ay, dx, dy, _, _, seg_len, seg_sq, s0, _ in line.segments:
        t = ((x - ax) * dx + (y - ay) * dy) / seg_sq
        t = t if t > 0.0 else 0.0  # min(1.0, max(0.0, t))
        t = t if t < 1.0 else 1.0
        px, py = ax + t * dx, ay + t * dy
        dist = math.hypot(x - px, y - py)
        if best is None or dist < best - 1e-12:
            best = dist
            s = s0 + t * seg_len
            # signed offset relative to the segment tangent
            l = (dx * (y - py) - dy * (x - px)) / seg_len
    return s, l, best


def point_at_arclength(line: Polyline, s: float, l: float = 0.0) -> Tuple[float, float]:
    """(x, y) of the point at arc-length s, offset l to the left.

    Raises ValueError if s is outside [0, total_length]. The planner calls
    it on multi-segment lanes and inlines it on one-segment lanes.
    """
    total = line.total_length
    if not (-1e-9 <= s <= total + 1e-9):
        raise ValueError(f"arc-length {s} outside [0, {total}]")
    s = 0.0 if 0.0 > s else s  # min(max(s, 0.0), total), signed zeros included
    s = total if total < s else s
    # last segment whose start is <= s: the first that ends at or after s
    for ax, ay, dx, dy, ux, uy, seg_len, _, s0, s1 in line.segments:
        if s <= s1:
            break
    t = (s - s0) / seg_len
    # left normal of (ux, uy) is (-uy, ux)
    return ax + t * dx - l * uy, ay + t * dy + l * ux
