"""Typed message payloads exchanged between pipeline components."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .geometry import OrientedBox, Vec2
from .scenario import SimTime


@dataclass(frozen=True)
class PerceivedObject:
    id: str
    kind: str
    box: OrientedBox
    v: Vec2

    def to_dict(self) -> dict:
        """The one payload whose JSON form is not its fields: the box is flattened
        into `center`, `half_extents` and `heading`."""
        return {
            "id": self.id,
            "kind": self.kind,
            "center": self.box.center,
            "half_extents": self.box.half_extents,
            "heading": self.box.heading,
            "v": self.v,
        }


@dataclass(frozen=True)
class PerceptionOut:
    objects: tuple[PerceivedObject, ...]


@dataclass(frozen=True)
class PredictedTrajectory:
    id: str
    kind: str
    half_extents: tuple[float, float]
    heading: float  # heading at the first point
    points: tuple[tuple[SimTime, float, float], ...]  # (t_ms, x, y), strictly increasing t

    def box_at(self, t: SimTime) -> OrientedBox:
        pts = self.points
        if t <= pts[0][0]:
            x, y = pts[0][1], pts[0][2]
            return OrientedBox((x, y), self.half_extents, self.heading)
        if t >= pts[-1][0]:
            x, y = pts[-1][1], pts[-1][2]
            return OrientedBox((x, y), self.half_extents, self._heading_at(len(pts) - 1))
        lo = bisect_right(pts, t, key=itemgetter(0)) - 1
        t0, x0, y0 = pts[lo]
        t1, x1, y1 = pts[lo + 1]
        u = (t - t0) / (t1 - t0)
        return OrientedBox((x0 + (x1 - x0) * u, y0 + (y1 - y0) * u),
                           self.half_extents, self._heading_at(lo))

    def _heading_at(self, i: int) -> float:
        pts = self.points
        j = min(i + 1, len(pts) - 1)
        k = max(0, j - 1)
        dx, dy = pts[j][1] - pts[k][1], pts[j][2] - pts[k][2]
        if dx == 0.0 and dy == 0.0:
            return self.heading
        return math.atan2(dy, dx)


@dataclass(frozen=True)
class PredictionOut:
    trajectories: tuple[PredictedTrajectory, ...]


@dataclass(frozen=True)
class TrajPoint:
    t: SimTime
    p: Vec2
    speed: float
    heading: float


@dataclass(frozen=True)
class PlanningOut:
    trajectory: tuple[TrajPoint, ...]
    decision: str  # Cruise | Stop | Nudge | Emergency
    branch_tags: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ControlOut:
    accel_cmd: float
    steer: float


@dataclass(frozen=True)
class LocalizationOut:
    p: Vec2
    heading: float
    speed: float
