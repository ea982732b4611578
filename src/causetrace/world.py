"""Ground-truth world state and ego kinematics.

The ego follows a kinematic bicycle (wheelbase 2.8 m) driven by clamped
acceleration/steering commands; idealized control bypasses it entirely and is
handled by the runner. All state is owned by a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import FixedBox, OrientedBox, Vec2
from .scenario import SimTime, TrafficObject, Waypoint, bbox_at, object_box, object_pose_at

WHEELBASE = 2.8
ACCEL_MIN = -8.0
ACCEL_MAX = 3.0
STEER_MAX = 0.5
SENSOR_RANGE = 60.0


@dataclass
class EgoState:
    p: Vec2
    heading: float
    speed: float  # >= 0
    accel: float
    t: SimTime

    def sample(self, t: SimTime) -> Waypoint:
        """The ego log sample of this state at t: velocity and acceleration
        vectors along the heading."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        return Waypoint(self.p, (self.speed * c, self.speed * s),
                        (self.accel * c, self.accel * s), t)


def step_ego(state: EgoState, accel_cmd: float, steer: float, dt: SimTime) -> EgoState:
    """dt milliseconds of kinematic-bicycle motion under one command, integrated
    as dt Euler steps of 1 ms. The returned accel is the applied acceleration of
    the last step."""
    assert dt > 0
    accel_cmd = min(ACCEL_MAX, max(ACCEL_MIN, accel_cmd))
    steer = min(STEER_MAX, max(-STEER_MAX, steer))
    tan_steer = math.tan(steer)
    dt_s = 0.001  # 1 ms
    (px, py), heading, speed = state.p, state.heading, state.speed
    for _ in range(dt):
        if speed > 0.0 and steer != 0.0:
            heading += (speed / WHEELBASE) * tan_steer * dt_s
        px += speed * math.cos(heading) * dt_s
        py += speed * math.sin(heading) * dt_s
        prev, speed = speed, max(0.0, speed + accel_cmd * dt_s)
    applied = (speed - prev) / dt_s
    return EgoState(p=(px, py), heading=heading, speed=speed, accel=applied, t=state.t + dt)


class ObjectTracker:
    """One object of the scenario model with what a run keeps of it: the radius of
    the circle that holds its box and, for a static object, its box built once
    with what a separating-axis test needs of it (`fixed`, None for a moving
    object). Poses, centres and boxes are those of `scenario.object_pose_at` /
    `scenario.bbox_at`, asked at any t in any order.
    """

    def __init__(self, obj: TrafficObject):
        self.obj = obj
        self.radius = math.hypot(obj.size[0] / 2.0, obj.size[1] / 2.0)
        self.fixed = FixedBox(bbox_at(obj, obj.waypoints[0].t)) if obj.is_static else None

    def pose_at(self, t: SimTime) -> tuple[Vec2, Vec2]:
        p, v, _ = object_pose_at(self.obj, t)
        return p, v

    def center_at(self, t: SimTime) -> Vec2:
        return self.fixed.box.center if self.fixed is not None else self.pose_at(t)[0]

    def box_at(self, t: SimTime) -> OrientedBox:
        if self.fixed is not None:
            return self.fixed.box
        p, v = self.pose_at(t)
        return object_box(self.obj, t, p, v)


class Broadphase:
    """A run's object trackers, with a uniform grid over the static ones (Ericson,
    Real-Time Collision Detection, 2004, ch. 7).

    `near(p)` is a superset, in scenario order, of the trackers whose center
    lies within `reach + radius` of p: every moving object, and each static
    object whose center lies in the 3x3 grid cells around p. The cells are a
    hair wider than `reach` plus the largest static radius, so a static object
    inside that distance is at most one cell away. The neighbourhood of a cell
    is built once.
    """

    def __init__(self, objects: tuple[TrafficObject, ...], reach: float):
        self.trackers = [ObjectTracker(o) for o in objects]
        self._moving = [i for i, trk in enumerate(self.trackers) if trk.fixed is None]
        static = [i for i, trk in enumerate(self.trackers) if trk.fixed is not None]
        max_r = max((self.trackers[i].radius for i in static), default=0.0)
        self._cell = cell = (reach + max_r) * (1.0 + 1e-9)
        self._buckets: dict[tuple[int, int], list[int]] = {}  # static indices per cell
        for i in static:
            cx, cy = self.trackers[i].fixed.box.center
            self._buckets.setdefault((math.floor(cx / cell), math.floor(cy / cell)), []).append(i)
        self._hoods: dict[tuple[int, int], list[ObjectTracker]] = {}  # trackers per neighbourhood

    def near(self, p: Vec2) -> list[ObjectTracker]:
        if not self._buckets:
            return self.trackers
        cell = self._cell
        key = (math.floor(p[0] / cell), math.floor(p[1] / cell))
        hood = self._hoods.get(key)
        if hood is None:
            i, j = key
            near = [k for di in (-1, 0, 1) for dj in (-1, 0, 1)
                    for k in self._buckets.get((i + di, j + dj), ())]
            hood = self._hoods[key] = [self.trackers[k] for k in sorted(self._moving + near)]
        return hood
