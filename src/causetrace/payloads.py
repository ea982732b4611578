"""Typed message payloads exchanged between pipeline components."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Predicted centres on the grid every producer emits, `t_0 + k * step`
    (`pipeline.PREDICTION_STEP_MS`): the point before t is found by division.
    The centre is linear between points and held outside them."""

    id: str
    kind: str
    half_extents: tuple[float, float]
    heading: float  # heading at the first point
    points: tuple[tuple[SimTime, float, float], ...]  # (t_ms, x, y), on the grid

    def _at(self, t: SimTime) -> tuple[Vec2, int]:
        """The centre at t and the index of the point before it (-1 up to the first)."""
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1:], -1
        if t >= pts[-1][0]:
            return pts[-1][1:], len(pts) - 1
        u = (t - pts[0][0]) / (pts[1][0] - pts[0][0])
        i = int(u)
        f = u - i
        (_, x0, y0), (_, x1, y1) = pts[i], pts[i + 1]
        return (x0 + (x1 - x0) * f, y0 + (y1 - y0) * f), i

    def center_at(self, t: SimTime) -> Vec2:
        return self._at(t)[0]

    def box_at(self, t: SimTime) -> OrientedBox:
        """The box at t, headed along the segment that holds t (the last one after
        the last point), or by `heading` up to the first point and while still."""
        center, i = self._at(t)
        pts = self.points
        j = min(i + 1, len(pts) - 1)
        (_, x0, y0), (_, x1, y1) = pts[max(0, j - 1)], pts[j]
        dx, dy = x1 - x0, y1 - y0
        heading = self.heading if dx == 0.0 and dy == 0.0 else math.atan2(dy, dx)
        return OrientedBox(center, self.half_extents, heading)


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
    """A planned trajectory whose points lie on the grid the planner emits,
    `t_0 + k * step` (`pipeline.PREDICTION_STEP_MS`), which the planning faults
    keep: control finds the point before t by division (`pipeline.PlanTable`)."""

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
