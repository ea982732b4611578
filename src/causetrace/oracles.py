"""System-level violation detection over ego logs, plus per-message planning checks.

Three checks: safe distance (hazardous closeness or contact to any traffic
object), driving mission (final position reaches the destination), and speeding
(lane speed limit plus a tolerance that absorbs controller overshoot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .geometry import (OrientedBox, SatProbe, Vec2, min_obb_distance,
                       obb_separation_at_least, point_to_obb_distance, vec_dist)
from .middleware import Verdict
from .payloads import PlanningOut, TrajPoint
from .scenario import Scenario, SimTime, ValidationError, Waypoint, bbox_at, lane_at
from .world import Broadphase, ObjectTracker

if TYPE_CHECKING:
    from .pipeline import PlannerContext  # pipeline imports this module

SAFE_DISTANCE = "safe_distance"
MISSION = "mission"
SPEEDING = "speeding"
ALL_KINDS = (SAFE_DISTANCE, MISSION, SPEEDING)


@dataclass(frozen=True)
class OracleConfig:
    enabled: tuple[str, ...] = ALL_KINDS
    safe_distance_c: float = 0.3
    dest_tolerance: float = 2.0
    speed_tolerance: float = 0.5

    def __post_init__(self):
        for name in ("safe_distance_c", "dest_tolerance", "speed_tolerance"):
            if not getattr(self, name) >= 0:
                raise ValidationError(name, "must be >= 0")


def carried_heading(w: Waypoint, last: float) -> float:
    """Heading of the sample's velocity; the last heading while the ego stands still."""
    return math.atan2(w.v[1], w.v[0]) if w.v != (0.0, 0.0) else last


def safe_distance_at(w: Waypoint | TrajPoint, heading: float, half: tuple[float, float],
                     ego_r: float, trackers: list[ObjectTracker], c: float
                     ) -> tuple[str, float, str] | None:
    """(object id, distance, detail) of the first tracker whose box is closer than
    c to the ego box at one sample or planned pose, at w.t; None if all are far
    enough. A tracker has `ObjectTracker`'s shape (`obj`, `radius`, `fixed`,
    `center_at`, `box_at`); its box is built only if its circle comes within c."""
    t, (px, py) = w.t, w.p
    probe = None
    for trk in trackers:
        cx, cy = trk.center_at(t)
        dx, dy = cx - px, cy - py
        lim = ego_r + trk.radius + c
        if dx * dx + dy * dy > lim * lim:
            continue
        other = trk.box_at(t)
        if probe is None:
            ego_box = OrientedBox(w.p, half, heading)
            probe = SatProbe(ego_box, ego_box.corners())
        if (probe.separated(trk.fixed, c) if trk.fixed is not None
                else obb_separation_at_least(ego_box, other, c, probe.corners,
                                             other.corners())):
            continue
        d = min_obb_distance(ego_box, other)
        if d < c:
            # Rear approach: object center behind the ego rear axle line.
            lx = dx * math.cos(heading) + dy * math.sin(heading)
            detail = "rear-approach" if lx < -half[0] else "front"
            return trk.obj.id, d, detail
    return None


def safe_distance_objects(scenario: Scenario, config: OracleConfig) -> Broadphase:
    """The scenario's objects, gridded for safe-distance queries."""
    return Broadphase(scenario.objects, scenario.ego_radius + config.safe_distance_c)


def check_mission(ego_log: list[Waypoint], a_dest, tolerance: float) -> bool:
    if not ego_log:
        return False
    return vec_dist(ego_log[-1].p, a_dest) <= tolerance


def speed_floor(lane_map, tolerance: float) -> float:
    """The lowest lane limit plus the tolerance: no speed at or below it can be
    speeding, so it needs no lane lookup."""
    return min((lane.speed_limit + tolerance for lane in lane_map.lanes), default=math.inf)


def speeding_at(p: Vec2, speed: float, lane_map,
                tolerance: float) -> tuple[float, float] | None:
    """(speed, limit) if a sample or planned point at p exceeds its lane's limit;
    off-lane never does."""
    hit = lane_at(lane_map, p)
    if hit is None:
        return None
    limit = hit[0].speed_limit
    return (speed, limit) if speed > limit + tolerance else None


def mission_violation(ego_log: list[Waypoint], scenario: Scenario,
                      config: OracleConfig) -> dict | None:
    """The mission violation of a finished run, if the oracle is on and fails."""
    if MISSION not in config.enabled or check_mission(ego_log, scenario.a_dest,
                                                      config.dest_tolerance):
        return None
    return {"kind": MISSION, "t": ego_log[-1].t if ego_log else 0,
            "detail": "destination not reached"}


def evaluate(ego_log: list[Waypoint], scenario: Scenario, config: OracleConfig) -> Verdict:
    """The first violation of each enabled kind over a whole run, sorted by time."""
    monitor = SampleMonitor(scenario, config, scenario.a_init[1])
    for w in ego_log:
        monitor.violated(w)
    violations = [v for v in (monitor.first.get(SAFE_DISTANCE),
                              mission_violation(ego_log, scenario, config),
                              monitor.first.get(SPEEDING)) if v is not None]
    violations.sort(key=lambda v: v["t"])
    return Verdict(passed=not violations, violations=violations)


class SampleMonitor:
    """Safe distance and speeding judged online, one ego sample at a time.

    Samples must come in log order; `heading` is the heading `carried_heading`
    carries into the first of them. `first` keeps the first violation of each
    enabled kind in the order found. Mission needs the end of the run and is
    left to `mission_violation`.
    """

    def __init__(self, scenario: Scenario, config: OracleConfig, heading: float):
        self.config = config
        self.lane_map = scenario.map
        self.speed_floor = speed_floor(scenario.map, config.speed_tolerance)
        self.half, self.ego_r = scenario.ego_half, scenario.ego_radius
        self.objects = safe_distance_objects(scenario, config)
        self.heading = heading
        self.first: dict[str, dict] = {}

    @property
    def violation(self) -> dict | None:
        """The first violation found; safe distance before speeding on one sample."""
        return next(iter(self.first.values()), None)

    def _watching(self, kind: str) -> bool:
        return kind in self.config.enabled and kind not in self.first

    def violated(self, w: Waypoint) -> bool:
        """Judge the next sample; True if it breaks some kind for the first time."""
        found = len(self.first)
        self.heading = carried_heading(w, self.heading)
        if self._watching(SAFE_DISTANCE):
            c = self.config.safe_distance_c
            hit = safe_distance_at(w, self.heading, self.half, self.ego_r,
                                   self.objects.near(w.p), c)
            if hit is not None:
                obj_id, d, detail = hit
                self.first[SAFE_DISTANCE] = {"kind": SAFE_DISTANCE, "t": w.t,
                                             "object_id": obj_id, "distance": d,
                                             "detail": detail}
        speed = math.hypot(*w.v)
        if self._watching(SPEEDING) and speed > self.speed_floor:
            hit = speeding_at(w.p, speed, self.lane_map, self.config.speed_tolerance)
            if hit is not None:
                self.first[SPEEDING] = {"kind": SPEEDING, "t": w.t, "speed": speed,
                                        "limit": hit[1]}
        return len(self.first) > found


# ---------------------------------------------------------------------------
# per-message planning checks (used by the planning message scan)

STALL_PERSISTENCE_MS = 3000
STALL_LOOKAHEAD = 30.0
HELD_DISPLACEMENT = 0.5


def trajectory_is_held(plan: PlanningOut) -> bool:
    traj = plan.trajectory
    if len(traj) < 2:
        return True
    disp = max(vec_dist(pt.p, traj[0].p) for pt in traj)
    return disp < HELD_DISPLACEMENT and traj[-1].speed < 0.2


def _corridor_blocked_ahead(scenario: Scenario, planner: PlannerContext, c: float,
                            ego_p: Vec2, t: SimTime) -> bool:
    route = planner.route
    s0, _, _ = route.project(ego_p)
    band = planner.ego_half[1] + c + 0.2
    for obj in scenario.objects:
        box = bbox_at(obj, t)
        s, lat, _ = route.project(box.center)
        reach = math.hypot(*box.half_extents)
        if s0 - reach <= s <= s0 + STALL_LOOKAHEAD + reach and abs(lat) <= band + reach:
            steps = max(2, int(STALL_LOOKAHEAD / 2.0))
            for k in range(steps + 1):
                q, _ = route.point(s0 + STALL_LOOKAHEAD * k / steps)
                if point_to_obb_distance(q, box) <= band:
                    return True
    for sig, (s_line, lat_line) in zip(planner.signals, planner.stop_lines):
        if abs(lat_line) <= 3.0 and s0 <= s_line <= s0 + STALL_LOOKAHEAD + 10.0 \
                and sig.color_at(t) == "Red":
            return True
    return False


def planning_message_violates(plan: PlanningOut, t: SimTime, scenario: Scenario,
                              planner_ctx: PlannerContext, oracles: OracleConfig,
                              objects: Broadphase, ego_p: Vec2, held_ms: int) -> bool:
    """True iff executing this trajectory verbatim would violate the rules.

    (a) the planned poses come within c of a ground-truth object box at matched
    times, (b) a trajectory point exceeds the lane limit, or (c) the trajectory
    is empty/held while the mission is incomplete and nothing ahead justifies
    stopping (after the stall persistence window). `objects` is
    `safe_distance_objects(scenario, oracles)`, built once for a scan of many
    messages. `ego_p` is the believed ego position when the message was made;
    `held_ms` is how long the trajectory stream has been empty/held up to and
    including this message, which the caller derives from the message row so the
    check itself stays a pure function.
    """
    half, ego_r = scenario.ego_half, scenario.ego_radius
    c, tolerance = oracles.safe_distance_c, oracles.speed_tolerance
    floor = speed_floor(scenario.map, tolerance)
    for pt in plan.trajectory:
        if safe_distance_at(pt, pt.heading, half, ego_r, objects.near(pt.p),
                            c) is not None:
            return True
        if pt.speed > floor and speeding_at(pt.p, pt.speed, scenario.map,
                                            tolerance) is not None:
            return True

    if trajectory_is_held(plan) and held_ms >= STALL_PERSISTENCE_MS:
        if vec_dist(ego_p, scenario.a_dest) > oracles.dest_tolerance:
            if not _corridor_blocked_ahead(scenario, planner_ctx, c, ego_p, t):
                return True
    return False
