"""Planar geometry primitives: 2-vectors, oriented boxes, exact box distance.

Everything works on plain float tuples to keep the simulator hot loops cheap.
An oriented box is (center, half_extents, heading); `min_obb_distance` is exact
(segment-to-segment over the 4x4 edge pairs plus containment), returning 0.0
for overlapping boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Vec2 = tuple[float, float]


def vec_add(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])


def vec_sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def vec_scale(a: Vec2, k: float) -> Vec2:
    return (a[0] * k, a[1] * k)


def vec_dot(a: Vec2, b: Vec2) -> float:
    return a[0] * b[0] + a[1] * b[1]


def vec_norm(a: Vec2) -> float:
    return math.hypot(a[0], a[1])


def vec_dist(a: Vec2, b: Vec2) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def vec_lerp(a: Vec2, b: Vec2, u: float) -> Vec2:
    return (a[0] + (b[0] - a[0]) * u, a[1] + (b[1] - a[1]) * u)


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle given by center, half extents (long, lat) and heading (rad)."""

    center: Vec2
    half_extents: tuple[float, float]
    heading: float

    def corners(self) -> list[Vec2]:
        cx, cy = self.center
        hl, hw = self.half_extents
        c, s = math.cos(self.heading), math.sin(self.heading)
        out = []
        for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
            out.append((cx + dx * c - dy * s, cy + dx * s + dy * c))
        return out


def _seg_seg_distance(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> float:
    """Minimum distance between two segments."""
    d1 = vec_sub(p2, p1)
    d2 = vec_sub(q2, q1)
    r = vec_sub(p1, q1)
    a = vec_dot(d1, d1)
    e = vec_dot(d2, d2)
    f = vec_dot(d2, r)
    if a <= 1e-18 and e <= 1e-18:
        return vec_norm(r)
    if a <= 1e-18:
        t = min(1.0, max(0.0, f / e))
        return vec_dist(p1, vec_add(q1, vec_scale(d2, t)))
    c = vec_dot(d1, r)
    if e <= 1e-18:
        s = min(1.0, max(0.0, -c / a))
        return vec_dist(vec_add(p1, vec_scale(d1, s)), q1)
    b = vec_dot(d1, d2)
    denom = a * e - b * b
    if denom > 1e-18:
        s = min(1.0, max(0.0, (b * f - c * e) / denom))
    else:
        s = 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    return vec_dist(vec_add(p1, vec_scale(d1, s)), vec_add(q1, vec_scale(d2, t)))


def face_axes(heading: float) -> tuple[Vec2, Vec2]:
    """The two face normals of a box with this heading."""
    normal = heading + math.pi / 2
    return (math.cos(heading), math.sin(heading)), (math.cos(normal), math.sin(normal))


def interval(corners: list[Vec2], axis: Vec2) -> tuple[float, float]:
    """(min, max) of the corners projected on `axis`: the one projection loop of
    every separating-axis test here."""
    ax, ay = axis
    lo = hi = corners[0][0] * ax + corners[0][1] * ay
    for px, py in corners[1:]:
        d = px * ax + py * ay
        if d < lo:
            lo = d
        elif d > hi:
            hi = d
    return lo, hi


def obb_separation_at_least(a: OrientedBox, b: OrientedBox, threshold: float,
                            ca: list[Vec2] | None = None,
                            cb: list[Vec2] | None = None) -> bool:
    """True if the boxes are provably at least `threshold` apart.

    Separating-axis test over the 4 face normals, a's then b's: the gap between
    the boxes' projections on any axis is a lower bound on their Euclidean
    distance, so one wide axis is enough to skip the exact (much more expensive)
    computation. False means "maybe closer": callers fall back to
    min_obb_distance. `ca` / `cb` are the boxes' corners when the caller
    already has them.
    """
    if ca is None:
        ca = a.corners()
        cb = b.corners()
    for heading in (a.heading, b.heading):
        for axis in face_axes(heading):
            amin, amax = interval(ca, axis)
            bmin, bmax = interval(cb, axis)
            if bmin - amax >= threshold or amin - bmax >= threshold:
                return True
    return False


class FixedBox:
    """A box that never moves, with its corners, its two face axes and its own
    projection interval on each of them: what a separating-axis test against it
    needs of it, computed once."""

    __slots__ = ("box", "corners", "axes", "intervals")

    def __init__(self, box: OrientedBox):
        self.box = box
        self.corners = box.corners()
        self.axes = face_axes(box.heading)
        self.intervals = tuple(interval(self.corners, axis) for axis in self.axes)


class SatProbe:
    """One box tested against many `FixedBox`es: `separated(fixed, threshold)` is
    `obb_separation_at_least(box, fixed.box, threshold)`, over the same four axes
    with the same projections. The probe projects itself on a fixed box's axes
    once per distinct heading, and on its own axes once, when first needed. So a
    fixed box costs two interval comparisons, plus its corners projected on the
    probe's axes when its own axes do not separate. Headings are told apart by
    value: the axes of 0.0 and -0.0 give projections that differ at most in the
    sign of a zero, which no comparison sees. `corners` are the box's."""

    __slots__ = ("box", "corners", "_own", "_on")

    def __init__(self, box: OrientedBox, corners: list[Vec2]):
        self.box = box
        self.corners = corners
        self._own: list[tuple[Vec2, tuple[float, float]]] | None = None
        self._on: dict[float, list[tuple[float, float]]] = {}

    def separated(self, fixed: FixedBox, threshold: float) -> bool:
        heading = fixed.box.heading
        on = self._on.get(heading)
        if on is None:
            on = self._on[heading] = [interval(self.corners, axis) for axis in fixed.axes]
        for (amin, amax), (bmin, bmax) in zip(on, fixed.intervals):
            if bmin - amax >= threshold or amin - bmax >= threshold:
                return True
        own = self._own
        if own is None:
            own = self._own = [(axis, interval(self.corners, axis))
                               for axis in face_axes(self.box.heading)]
        for axis, (amin, amax) in own:
            bmin, bmax = interval(fixed.corners, axis)
            if bmin - amax >= threshold or amin - bmax >= threshold:
                return True
        return False


# The smallest positive double: with gradual underflow x - y >= ANY_GAP holds
# exactly when x > y, so this threshold asks "is there any separating gap".
ANY_GAP = math.ulp(0.0)
# Private binding, so that rebinding the public name (say, to profile the
# callers' pre-filter) leaves min_obb_distance's own overlap test alone.
_separated = obb_separation_at_least


def min_obb_distance(a: OrientedBox, b: OrientedBox) -> float:
    """Exact minimum distance between two oriented boxes; 0.0 when overlapping."""
    ca = a.corners()
    cb = b.corners()
    if not _separated(a, b, ANY_GAP, ca, cb):
        return 0.0
    best = math.inf
    for i in range(4):
        p1, p2 = ca[i], ca[(i + 1) % 4]
        for j in range(4):
            d = _seg_seg_distance(p1, p2, cb[j], cb[(j + 1) % 4])
            if d < best:
                best = d
    return best


def point_to_obb_distance(p: Vec2, box: OrientedBox) -> float:
    """Exact distance from a point to an oriented box; 0.0 inside."""
    dx, dy = p[0] - box.center[0], p[1] - box.center[1]
    c, s = math.cos(box.heading), math.sin(box.heading)
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    hl, hw = box.half_extents
    ox = max(0.0, abs(lx) - hl)
    oy = max(0.0, abs(ly) - hw)
    return math.hypot(ox, oy)
