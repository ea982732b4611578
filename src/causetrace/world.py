"""Ground-truth world state and ego kinematics.

The ego follows a kinematic bicycle (wheelbase 2.8 m) driven by clamped
acceleration/steering commands; idealized control bypasses it entirely and is
handled by the runner. All state is owned by a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import OrientedBox, Vec2
from .scenario import Scenario, SimTime, TrafficObject, bbox_at, object_pose_at

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

    def velocity(self) -> Vec2:
        return (self.speed * math.cos(self.heading), self.speed * math.sin(self.heading))

    def accel_vec(self) -> Vec2:
        return (self.accel * math.cos(self.heading), self.accel * math.sin(self.heading))


def step_ego(state: EgoState, accel_cmd: float, steer: float, dt: SimTime) -> EgoState:
    """One kinematic-bicycle step over dt milliseconds."""
    assert dt > 0
    accel_cmd = min(ACCEL_MAX, max(ACCEL_MIN, accel_cmd))
    steer = min(STEER_MAX, max(-STEER_MAX, steer))
    dt_s = dt / 1000.0
    heading = state.heading
    if state.speed > 0.0 and steer != 0.0:
        heading += (state.speed / WHEELBASE) * math.tan(steer) * dt_s
    px = state.p[0] + state.speed * math.cos(heading) * dt_s
    py = state.p[1] + state.speed * math.sin(heading) * dt_s
    speed = max(0.0, state.speed + accel_cmd * dt_s)
    applied = (speed - state.speed) / dt_s
    return EgoState(p=(px, py), heading=heading, speed=speed, accel=applied, t=state.t + dt)


@dataclass(frozen=True)
class TruthObject:
    id: str
    kind: str
    box: OrientedBox
    v: Vec2


def ground_truth_objects(scenario: Scenario, t: SimTime, origin: Vec2,
                         sensor_range: float = SENSOR_RANGE) -> list[TruthObject]:
    """Objects whose box center lies within range of origin, exact kinematics."""
    out = []
    for obj in scenario.objects:
        p, v, _ = object_pose_at(obj, t)
        dx, dy = p[0] - origin[0], p[1] - origin[1]
        if dx * dx + dy * dy <= sensor_range * sensor_range:
            out.append(TruthObject(obj.id, obj.kind, bbox_at(obj, t), v))
    return out


class ObjectTracker:
    """Monotone-time pose lookup over scripted waypoints (O(1) per advancing query)."""

    def __init__(self, obj: TrafficObject):
        self.obj = obj
        self._idx = 0

    def pose_at(self, t: SimTime) -> tuple[Vec2, Vec2]:
        wps = self.obj.waypoints
        n = len(wps)
        i = self._idx
        while i + 1 < n and wps[i + 1].t <= t:
            i += 1
        self._idx = i
        if t <= wps[0].t:
            return wps[0].p, wps[0].v
        if i + 1 >= n:
            return wps[-1].p, wps[-1].v
        w0, w1 = wps[i], wps[i + 1]
        u = (t - w0.t) / (w1.t - w0.t)
        p = (w0.p[0] + (w1.p[0] - w0.p[0]) * u, w0.p[1] + (w1.p[1] - w0.p[1]) * u)
        v = (w0.v[0] + (w1.v[0] - w0.v[0]) * u, w0.v[1] + (w1.v[1] - w0.v[1]) * u)
        return p, v
