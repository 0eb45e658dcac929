"""Planar geometry primitives: points, poses, oriented boxes, polylines.

All angles are radians, all distances meters. Headings are normalized to
(-pi, pi]. Lateral offsets are positive to the left of the direction of
travel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.atan2(math.sin(theta), math.cos(theta))
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


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


@dataclass(frozen=True)
class Pose2:
    position: Point2
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "heading", normalize_angle(self.heading))


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


def euclidean_distance(a: Point2, b: Point2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


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


def project_to_polyline(p: Point2, line: Polyline) -> Tuple[float, float, int]:
    """Project a point onto a polyline.

    Returns (s, l, segment_index): arc-length of the closest point, signed
    lateral offset (positive left of travel direction), and the segment the
    projection falls on. Ties between equally close segments resolve to the
    smallest index. Points beyond the ends clamp to the end vertices.
    """
    best = None  # (dist, s, l, idx)
    for i, (ax, ay, dx, dy, _, _, seg_len, seg_sq, s0, _) in enumerate(line.segments):
        t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg_sq
        t = min(1.0, max(0.0, t))
        px, py = ax + t * dx, ay + t * dy
        dist = math.hypot(p.x - px, p.y - py)
        # signed offset relative to the segment tangent
        l = (dx * (p.y - py) - dy * (p.x - px)) / seg_len
        if best is None or dist < best[0] - 1e-12:
            best = (dist, s0 + t * seg_len, l, i)
    assert best is not None
    return best[1], best[2], best[3]


def point_at_arclength(line: Polyline, s: float, l: float = 0.0) -> Pose2:
    """Point at arc-length s offset l to the left; heading = segment tangent.

    Raises ValueError if s is outside [0, total_length].
    """
    if not (-1e-9 <= s <= line.total_length + 1e-9):
        raise ValueError(
            f"arc-length {s} outside [0, {line.total_length}]"
        )
    s = min(max(s, 0.0), line.total_length)
    # last segment whose start is <= s: the first that ends at or after s
    for ax, ay, dx, dy, ux, uy, seg_len, _, s0, s1 in line.segments:
        if s <= s1:
            break
    t = (s - s0) / seg_len
    # left normal of (ux, uy) is (-uy, ux)
    pos = Point2(ax + t * dx - l * uy, ay + t * dy + l * ux)
    return Pose2(pos, math.atan2(uy, ux))
