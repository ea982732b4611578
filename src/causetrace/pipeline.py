"""The five pipeline components under test, each a pure tick function.

Components consume the latest subscribed messages and produce one output
payload; the declarative fault layer mutates outputs afterwards. The planner is
deliberately simple: follow the route lane, stop for space-time conflicts,
nudge around small static intrusions, stop at red lights and at the
destination.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

from .faults import (FaultSpec, apply_control_faults, apply_localization_faults,
                     apply_perception_faults, apply_planning_faults,
                     apply_prediction_faults)
# perfbench/tracer.py patches min_obb_distance here; nothing in this module calls it.
from .geometry import OrientedBox, Vec2, min_obb_distance  # noqa: F401
from .oracles import safe_distance_at
from .payloads import (ControlOut, LocalizationOut, PerceivedObject, PerceptionOut,
                       PlanningOut, PredictedTrajectory, PredictionOut, TrajPoint)
from .scenario import PolylineTable, Scenario, SimTime, TrafficSignal, lane_at
from .world import ACCEL_MAX, ACCEL_MIN, EgoState, STEER_MAX, WHEELBASE

PREDICTION_HORIZON_MS = 3000
PREDICTION_STEP_MS = 100


# ---------------------------------------------------------------------------
# perception


def perception_tick(truth: PerceptionOut, loc: LocalizationOut, ego_p: Vec2,
                    faults: list[FaultSpec], t: SimTime) -> tuple[PerceptionOut, bool]:
    """Ground truth sensed from the true ego position `ego_p`, placed in the world
    by the believed one (each box shifted by the localization error), then fault
    mutations."""
    dx, dy = loc.p[0] - ego_p[0], loc.p[1] - ego_p[1]
    out = PerceptionOut(tuple(
        PerceivedObject(o.id, o.kind, OrientedBox((o.box.center[0] + dx, o.box.center[1] + dy),
                                                  o.box.half_extents, o.box.heading), o.v)
        for o in truth.objects))
    return apply_perception_faults(out, faults, t, loc.heading)


# ---------------------------------------------------------------------------
# prediction


def prediction_tick(perception: PerceptionOut, faults: list[FaultSpec],
                    t: SimTime) -> tuple[PredictionOut, bool]:
    """Constant-velocity extrapolation of the latest perception over 3 s."""
    trajs = []
    for o in perception.objects:
        vx, vy = o.v
        x0, y0 = o.box.center
        if vx == 0.0 and vy == 0.0:
            # vx * k * step / 1000.0 is a zero of vx's sign at every k, so every
            # point holds x0 + vx, y0 + vy.
            pts = tuple(zip(range(t, t + PREDICTION_HORIZON_MS + 1, PREDICTION_STEP_MS),
                            repeat(x0 + vx), repeat(y0 + vy)))
        else:
            pts = tuple(
                (t + k * PREDICTION_STEP_MS,
                 x0 + vx * k * PREDICTION_STEP_MS / 1000.0,
                 y0 + vy * k * PREDICTION_STEP_MS / 1000.0)
                for k in range(PREDICTION_HORIZON_MS // PREDICTION_STEP_MS + 1)
            )
        trajs.append(PredictedTrajectory(o.id, o.kind, o.box.half_extents,
                                          o.box.heading, pts))
    return apply_prediction_faults(PredictionOut(tuple(trajs)), faults, t)


# ---------------------------------------------------------------------------
# planning

# The planner looks PREDICTION_HORIZON_MS ahead in PREDICTION_STEP_MS steps:
# it never commits to motion it cannot de-conflict against predicted object
# futures.
ACCEL = 2.0
COMFORT_DECEL = 3.0
MAX_DECEL = 8.0
LATERAL_RATE = 0.85          # m/s of lateral offset build-up
SAFE_GAP = 0.3               # mirrors the oracle constant c
CONFLICT_CLEAR = SAFE_GAP + 0.45
PASS_CLEAR = SAFE_GAP + 0.65
DEST_STOP_MARGIN = 1.2       # stop this far short of the destination
NUDGE_LOOKAHEAD = 32.0
MAX_NUDGE_OFFSET = 2.2
PASS_SPEED = 5.0
PASS_ZONE_BEFORE = 25.0
PASS_ZONE_AFTER = 10.0
SIGNAL_LOOKAHEAD = 60.0
STATIC_SPEED_EPS = 0.3


@dataclass
class PlannerContext:
    """Per-run immutable planning context derived from the scenario."""

    route: PolylineTable
    dest_s: float
    speed_limit: float
    signals: tuple[TrafficSignal, ...]
    stop_lines: tuple[tuple[float, float], ...]  # each signal's (s, lateral) on the route
    ego_half: tuple[float, float]  # (length/2, width/2)
    ego_radius: float


def make_planner_context(scenario: Scenario) -> PlannerContext:
    init_hit = lane_at(scenario.map, scenario.a_init[0])
    assert init_hit is not None
    route_lanes = [init_hit[0]]
    # Follow successors until the destination projects inside a lane of the chain.
    seen = {init_hit[0].id}
    while True:
        lane = route_lanes[-1]
        _, lat, _ = lane.table.project(scenario.a_dest)
        if abs(lat) <= lane.width / 2.0 + 1e-9:
            break
        nxt = [s for s in scenario.map.successors.get(lane.id, ()) if s not in seen]
        if not nxt:
            break
        route_lanes.append(scenario.map.lane_by_id(nxt[0]))
        seen.add(nxt[0])
    route: list[Vec2] = []
    for lane in route_lanes:
        for p in lane.centerline:
            if not route or p != route[-1]:
                route.append(p)
    table = PolylineTable(tuple(route))
    dest_s, _, _ = table.project(scenario.a_dest)
    limit = min(ln.speed_limit for ln in route_lanes)
    return PlannerContext(
        route=table,
        dest_s=dest_s,
        speed_limit=limit,
        signals=scenario.signals,
        stop_lines=tuple(table.project(sig.stop_line)[:2] for sig in scenario.signals),
        ego_half=scenario.ego_half,
        ego_radius=scenario.ego_radius,
    )


def _obstacle_route_interval(ctx: PlannerContext, box: OrientedBox) -> tuple[float, float, float, float]:
    """(s_min, s_max, lat_min, lat_max) of the box corners in route frame."""
    s_min = lat_min = math.inf
    s_max = lat_max = -math.inf
    for corner in box.corners():
        s, lat, _ = ctx.route.project(corner)
        s_min, s_max = min(s_min, s), max(s_max, s)
        lat_min, lat_max = min(lat_min, lat), max(lat_max, lat)
    return s_min, s_max, lat_min, lat_max


def _gen_trajectory(ctx: PlannerContext, t: SimTime, loc: LocalizationOut, s0: float,
                    lat0: float, stop_s: float | None, target_lat: float,
                    cap_zone: tuple[float, float] | None,
                    emergency: bool = False) -> tuple[TrajPoint, ...]:
    """Points every PREDICTION_STEP_MS from the current pose: speed bounded by
    the limit, the pass-speed cap inside `cap_zone` (s_from, s_to), the
    destination and `stop_s`; lateral offset ramped to `target_lat`."""
    dt = PREDICTION_STEP_MS / 1000.0
    s, lat, v = s0, lat0, loc.speed
    prev, heading = loc.p, loc.heading
    out = [TrajPoint(t, loc.p, loc.speed, loc.heading)]
    for k in range(1, PREDICTION_HORIZON_MS // PREDICTION_STEP_MS + 1):
        if emergency:
            v_allow = 0.0
        else:
            v_allow = ctx.speed_limit
            if cap_zone is not None and s <= cap_zone[1]:
                # Ease into the pass-speed cap with a comfort-decel envelope.
                gap = max(0.0, cap_zone[0] - s)
                v_allow = min(v_allow, math.sqrt(PASS_SPEED ** 2 + 2.0 * COMFORT_DECEL * gap))
            rem_dest = (ctx.dest_s - DEST_STOP_MARGIN) - s
            v_allow = min(v_allow, math.sqrt(max(0.0, 2.0 * COMFORT_DECEL * rem_dest)))
            if stop_s is not None:
                rem = stop_s - s
                v_allow = min(v_allow, math.sqrt(max(0.0, 2.0 * COMFORT_DECEL * rem)))
        if v_allow >= v:
            v = min(v + ACCEL * dt, v_allow)
        else:
            v = max(v_allow, v - MAX_DECEL * dt)
        if target_lat > lat:
            lat = min(target_lat, lat + LATERAL_RATE * dt)
        elif target_lat < lat:
            lat = max(target_lat, lat - LATERAL_RATE * dt)
        s += v * dt
        p, _ = ctx.route.pose(s, lat)
        dx, dy = p[0] - prev[0], p[1] - prev[1]
        if dx * dx + dy * dy > 1e-12:
            heading = math.atan2(dy, dx)
        out.append(TrajPoint(t + k * PREDICTION_STEP_MS, p, v, heading))
        prev = p
    return tuple(out)


class _Candidate:
    """A predicted trajectory in `world.ObjectTracker`'s shape, never `fixed`: a
    still one is asked for its box at each t like a moving one."""

    __slots__ = ("obj", "radius", "fixed", "center_at", "box_at")

    def __init__(self, tr: PredictedTrajectory):
        self.obj, self.radius, self.fixed = tr, math.hypot(*tr.half_extents), None
        self.center_at, self.box_at = tr.center_at, tr.box_at


def _first_conflict(ctx: PlannerContext, traj: tuple[TrajPoint, ...],
                    candidates: list[_Candidate]) -> tuple[int, float] | None:
    """Earliest (point index >= 1, route s of ego) where a predicted box gets too close."""
    for k, pt in enumerate(traj[1:], start=1):
        if safe_distance_at(pt, pt.heading, ctx.ego_half, ctx.ego_radius, candidates,
                            CONFLICT_CLEAR) is not None:
            s, _, _ = ctx.route.project(pt.p)
            return k, s
    return None


def planning_tick(pred: PredictionOut, loc: LocalizationOut, ctx: PlannerContext,
                  faults: list[FaultSpec], t: SimTime) -> tuple[PlanningOut, bool]:
    tags = ["route_follow"]
    s0, lat0, _ = ctx.route.project(loc.p)
    # Lane furniture is owned by lane keeping: it is neither nudged nor avoided.
    targets = [tr for tr in pred.trajectories if tr.kind != "Infrastructure"]

    # Small static intrusions ahead: nudge around them.
    target_lat = 0.0
    cap_zone: tuple[float, float] | None = None
    nudge = None
    for tr in targets:
        first = tr.points[0]
        last = tr.points[-1]
        horizon_s = (last[0] - first[0]) / 1000.0
        disp = math.hypot(last[1] - first[1], last[2] - first[2])
        if horizon_s > 0 and disp / horizon_s > STATIC_SPEED_EPS:
            continue  # moving object: handled by the conflict scan
        box0 = tr.box_at(first[0])
        s_min, s_max, lat_min, lat_max = _obstacle_route_interval(ctx, box0)
        if s_max < s0 or s_min > s0 + NUDGE_LOOKAHEAD:
            continue
        body = ctx.ego_half[1] + CONFLICT_CLEAR + 0.1
        if lat_min > body or lat_max < -body:
            continue  # passable where it stands, no lateral action needed
        off_left = lat_max + PASS_CLEAR + ctx.ego_half[1]
        off_right = lat_min - PASS_CLEAR - ctx.ego_half[1]
        off = off_left if abs(off_left) <= abs(off_right) else off_right
        if abs(off) > MAX_NUDGE_OFFSET:
            tags.append("corridor_blocked")
            continue  # too wide to nudge: conflict scan will stop for it
        if nudge is None or s_min < nudge[0]:
            nudge = (s_min, s_max, off)
    if nudge is not None:
        s_min, s_max, off = nudge
        if s0 < s_max + PASS_ZONE_AFTER:
            target_lat = off
            cap_zone = (s_min - PASS_ZONE_BEFORE, s_max + PASS_ZONE_AFTER)
            tags.append("nudge_around")
    else:
        tags.append("corridor_clear")

    # Red signals ahead become stop targets.
    stop_s: float | None = None
    for sig, (s_line, lat_line) in zip(ctx.signals, ctx.stop_lines):
        if abs(lat_line) > 3.0 or s_line < s0:
            continue
        if s_line - s0 > SIGNAL_LOOKAHEAD:
            continue
        if sig.color_at(t) == "Red":
            cand = s_line - ctx.ego_half[0] - 0.5
            stop_s = cand if stop_s is None else min(stop_s, cand)
            tags.append("red_stop")

    traj = _gen_trajectory(ctx, t, loc, s0, lat0, stop_s, target_lat, cap_zone)
    candidates = [_Candidate(tr) for tr in targets]
    conflict = _first_conflict(ctx, traj, candidates)
    decision = "Cruise"
    if conflict is not None:
        tags.append("stop_for_conflict")
        resolved = False
        for backoff in (0.9, 1.6, 2.4, 3.5, 5.0, 7.0, 10.0):
            cand_stop = conflict[1] - ctx.ego_half[0] - backoff
            if cand_stop <= s0 + 0.2:
                break
            cand_traj = _gen_trajectory(ctx, t, loc, s0, lat0,
                                        cand_stop if stop_s is None else min(stop_s, cand_stop),
                                        target_lat, cap_zone)
            if _first_conflict(ctx, cand_traj, candidates) is None:
                traj = cand_traj
                decision = "Stop"
                resolved = True
                break
        if not resolved:
            tags.append("emergency_brake")
            traj = _gen_trajectory(ctx, t, loc, s0, lat0, None, lat0, None, emergency=True)
            decision = "Emergency"
    if decision == "Cruise":
        if target_lat != 0.0:
            decision = "Nudge"
        elif stop_s is not None or ctx.dest_s - s0 < 40.0:
            tags.append("dest_stop" if stop_s is None else "hold_stop")
            decision = "Stop"
        else:
            tags.append("cruise")

    out = PlanningOut(traj, decision, tuple(tags))
    return apply_planning_faults(out, faults, t, loc.p)


# ---------------------------------------------------------------------------
# control


CONTROL_KP = 1.8
CONTROL_SPEED_LOOKAHEAD_MS = 100


def _plan_speed_at(traj, t_q: SimTime) -> float:
    if t_q <= traj[0].t:
        return traj[0].speed
    i = bisect_right(traj, t_q, key=attrgetter("t")) - 1
    if i == len(traj) - 1:
        return traj[-1].speed
    u = (t_q - traj[i].t) / (traj[i + 1].t - traj[i].t)
    return traj[i].speed + (traj[i + 1].speed - traj[i].speed) * u


def control_tick(plan: PlanningOut, loc: LocalizationOut,
                 faults: list[FaultSpec], t: SimTime) -> tuple[ControlOut, bool]:
    """Pure-pursuit steering plus speed tracking with plan-slope feedforward."""
    if len(plan.trajectory) < 2:
        return apply_control_faults(ControlOut(ACCEL_MIN, 0.0), faults, t, loc.p)
    traj = plan.trajectory

    t_q = t + CONTROL_SPEED_LOOKAHEAD_MS
    v_target = _plan_speed_at(traj, t_q)
    a_ff = (_plan_speed_at(traj, t_q + 200) - v_target) / 0.2
    err = v_target - loc.speed
    if abs(err) < 0.02:
        err = 0.0  # deadband keeps equilibrium commands exactly zero
    accel = min(ACCEL_MAX, max(ACCEL_MIN, a_ff + CONTROL_KP * err))

    lookahead = max(3.0, 0.5 * loc.speed)
    # Nearest trajectory point (the first of equals), then march forward to the
    # lookahead target.
    lx, ly = loc.p
    best_i, best_d = 0, math.inf
    for i, pt in enumerate(traj):
        x, y = pt.p
        d = math.hypot(x - lx, y - ly)
        if d < best_d:
            best_d, best_i = d, i
    target = traj[-1].p
    acc = 0.0
    for i in range(best_i, len(traj) - 1):
        (ax, ay), (bx, by) = traj[i].p, traj[i + 1].p
        acc += math.hypot(ax - bx, ay - by)
        if acc >= lookahead:
            target = traj[i + 1].p
            break
    dx, dy = target[0] - loc.p[0], target[1] - loc.p[1]
    dist = math.hypot(dx, dy)
    if dist < 0.3:
        steer = 0.0
    else:
        alpha = math.atan2(dy, dx) - loc.heading
        alpha = math.atan2(math.sin(alpha), math.cos(alpha))
        ld = max(lookahead, dist)
        steer = math.atan2(2.0 * WHEELBASE * math.sin(alpha), ld)
        steer = min(STEER_MAX, max(-STEER_MAX, steer))
        if abs(steer) < 5e-4:
            steer = 0.0  # freeze heading at equilibrium instead of dithering
    return apply_control_faults(ControlOut(accel, steer), faults, t, loc.p)


# ---------------------------------------------------------------------------
# localization


def localization_tick(true_ego: EgoState, faults: list[FaultSpec],
                      t: SimTime) -> tuple[LocalizationOut, bool]:
    out = LocalizationOut(true_ego.p, true_ego.heading, true_ego.speed)
    return apply_localization_faults(out, faults, t)
