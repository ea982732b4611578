import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causetrace import pipeline
from causetrace.benchmark import load_builtin_scenario
from causetrace.faults import (FaultSpec, Trigger, apply_control_faults,
                              apply_planning_faults, apply_prediction_faults)
from causetrace.geometry import OrientedBox, min_obb_distance, vec_dist
from causetrace.middleware import ComponentId
from causetrace.payloads import (ControlOut, LocalizationOut, PerceivedObject, PerceptionOut,
                                 PlanningOut, PredictedTrajectory, PredictionOut, TrajPoint)
from causetrace.pipeline import (CONTROL_KP, CONTROL_SPEED_LOOKAHEAD_MS, PREDICTION_HORIZON_MS,
                                 PREDICTION_STEP_MS, _obstacle_route_interval,
                                 _plan_speed_at, control_tick, localization_tick,
                                 make_planner_context, perception_tick, planning_tick,
                                 prediction_tick)
from causetrace.scenario import scenario_from_dict
from causetrace.substitutes import ideal_prediction
from causetrace.world import ACCEL_MAX, ACCEL_MIN, EgoState, STEER_MAX, WHEELBASE
from conftest import static_object, straight_road_doc

EXACT_LOC = LocalizationOut((0.0, 0.0), 0.0, 0.0)


def truth_list():
    return PerceptionOut((
        PerceivedObject("car", "Vehicle", OrientedBox((40.0, 0.0), (2.2, 0.9), 0.0),
                        (5.0, 0.0)),
        PerceivedObject("ped", "Pedestrian", OrientedBox((30.0, 5.0), (0.25, 0.25), 0.0),
                        (0.0, -1.5)),
    ))


def sense(faults, t):
    """perception_tick over truth_list() with exact localization."""
    return perception_tick(truth_list(), EXACT_LOC, EXACT_LOC.p, faults, t)


def test_perception_identity_without_faults():
    out, changed = sense([], 1000)
    assert not changed
    assert [o.id for o in out.objects] == ["car", "ped"]
    assert out.objects[0].box.center == (40.0, 0.0)
    assert out == truth_list()


def test_perception_shifts_boxes_by_localization_error():
    believed = LocalizationOut((6.0, 0.5), 0.0, 0.0)
    out, changed = perception_tick(truth_list(), believed, (5.0, 0.0), [], 1000)
    assert not changed  # a localization error is not a perception fault
    assert [o.box.center for o in out.objects] == [(41.0, 0.5), (31.0, 5.5)]
    assert [o.box.heading for o in out.objects] == [0.0, 0.0]


def test_miss_detection_window():
    fault = FaultSpec(ComponentId.PERCEPTION, "miss_detection",
                      Trigger(t0=2000, t1=6000, object_id="ped"))
    inside, changed = sense([fault], 3000)
    assert changed and [o.id for o in inside.objects] == ["car"]
    outside, changed = sense([fault], 6000)
    assert not changed and len(outside.objects) == 2


def test_wrong_velocity_shifts_along_heading():
    fault = FaultSpec(ComponentId.PERCEPTION, "wrong_velocity",
                      Trigger(object_id="car"), magnitude={"dv": -5.0})
    out, changed = sense([fault], 0)
    assert changed
    car = next(o for o in out.objects if o.id == "car")
    assert car.v == pytest.approx((0.0, 0.0))


def test_wrong_longitudinal_shift_uses_ego_heading():
    fault = FaultSpec(ComponentId.PERCEPTION, "wrong_longitudinal_distance",
                      Trigger(object_id="car"), magnitude={"offset": 10.0})
    out, _ = sense([fault], 0)
    car = next(o for o in out.objects if o.id == "car")
    assert car.box.center == pytest.approx((50.0, 0.0))


def test_prediction_constant_velocity():
    perc = PerceptionOut((PerceivedObject(
        "o", "Vehicle", OrientedBox((0.0, 0.0), (2.0, 1.0), 0.0), (2.0, 0.0)),))
    out, changed = prediction_tick(perc, [], 0)
    assert not changed
    tr = out.trajectories[0]
    t, x, y = tr.points[10]  # +1 s at 100 ms steps
    assert (t, x, y) == (1000, pytest.approx(2.0), pytest.approx(0.0))


def test_prediction_static_object_constant():
    perc = PerceptionOut((PerceivedObject(
        "o", "StaticObstacle", OrientedBox((7.0, 1.0), (0.2, 0.2), 0.0), (0.0, 0.0)),))
    out, _ = prediction_tick(perc, [], 0)
    assert all((x, y) == (7.0, 1.0) for _, x, y in out.trajectories[0].points)


def test_no_prediction_trajectory_drops_object():
    perc = PerceptionOut((PerceivedObject(
        "o", "Vehicle", OrientedBox((0.0, 0.0), (2.0, 1.0), 0.0), (2.0, 0.0)),))
    fault = FaultSpec(ComponentId.PREDICTION, "no_prediction_trajectory",
                      Trigger(object_id="o"))
    out, changed = prediction_tick(perc, [fault], 0)
    assert changed and out.trajectories == ()


def test_wrong_prediction_static_mode():
    perc = PerceptionOut((PerceivedObject(
        "o", "Vehicle", OrientedBox((10.0, 0.0), (2.0, 1.0), 0.0), (4.0, 0.0)),))
    fault = FaultSpec(ComponentId.PREDICTION, "wrong_prediction_trajectory",
                      Trigger(object_id="o"), magnitude={"mode": "static"})
    out, changed = prediction_tick(perc, [fault], 0)
    assert changed
    assert all((x, y) == (10.0, 0.0) for _, x, y in out.trajectories[0].points)


def prediction_tick_reference(perception, faults, t):
    """prediction_tick's body from before standing objects took one pass."""
    trajs = []
    for o in perception.objects:
        vx, vy = o.v
        x0, y0 = o.box.center
        pts = tuple(
            (t + k * PREDICTION_STEP_MS,
             x0 + vx * k * PREDICTION_STEP_MS / 1000.0,
             y0 + vy * k * PREDICTION_STEP_MS / 1000.0)
            for k in range(PREDICTION_HORIZON_MS // PREDICTION_STEP_MS + 1)
        )
        trajs.append(PredictedTrajectory(o.id, o.kind, o.box.half_extents,
                                         o.box.heading, pts))
    return apply_prediction_faults(PredictionOut(tuple(trajs)), faults, t)


signed_zero = st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(objects=st.lists(st.tuples(
    st.one_of(signed_zero, st.floats(-60.0, 60.0)), st.one_of(signed_zero, st.floats(-60.0, 60.0)),
    st.one_of(signed_zero, st.floats(-20.0, 20.0)), st.one_of(signed_zero, st.floats(-20.0, 20.0))),
    max_size=4), t=st.integers(0, 40000))
@example(objects=[(-0.0, -0.0, 0.0, -0.0), (-0.0, 0.0, -0.0, 0.0), (-0.0, -0.0, -0.0, -0.0),
                  (-0.0, 3.0, 0.0, 1.5)], t=0)
def test_prediction_tick_equals_reference(objects, t):
    # repr tells -0.0 from 0.0, so the points must be equal to the bit.
    perc = PerceptionOut(tuple(
        PerceivedObject(f"o{i}", "Vehicle", OrientedBox((x, y), (2.0, 1.0), 0.0), (vx, vy))
        for i, (x, y, vx, vy) in enumerate(objects)))
    assert repr(prediction_tick(perc, [], t)) == repr(prediction_tick_reference(perc, [], t))


# --- planning ---------------------------------------------------------------


def plan_setup(objects=None):
    sc = scenario_from_dict(straight_road_doc(t_max_ms=30000, objects=objects or []))
    ctx = make_planner_context(sc)
    return sc, ctx


def test_empty_road_cruises_at_limit():
    _, ctx = plan_setup()
    from causetrace.payloads import PredictionOut
    loc = LocalizationOut((5.0, 0.0), 0.0, 11.0)
    out, changed = planning_tick(PredictionOut(()), loc, ctx, [], 0)
    assert not changed
    assert out.decision == "Cruise"
    assert "cruise" in out.branch_tags
    assert max(pt.speed for pt in out.trajectory) <= 11.0 + 1e-9
    assert out.trajectory[0].p == (5.0, 0.0)


def test_static_obstacle_produces_stop_with_clearance():
    sc, ctx = plan_setup(objects=[{
        "id": "blk", "kind": "StaticObstacle", "size": [0.8, 2.8, 0.5],
        "waypoints": [{"t_ms": 0, "p": [45.0, 0.0], "v": [0, 0], "a": [0, 0]}]}])
    from causetrace.substitutes import ideal_prediction
    pred = ideal_prediction(sc, 0)
    loc = LocalizationOut((30.0, 0.0), 0.0, 11.0)
    out, _ = planning_tick(pred, loc, ctx, [], 0)
    assert out.decision in ("Stop", "Emergency")
    end = out.trajectory[-1]
    assert end.speed == pytest.approx(0.0, abs=0.05)
    # Geometry oracle: the stop pose keeps front-of-ego clear of the box.
    front_x = end.p[0] + ctx.ego_half[0]
    assert front_x <= 45.0 - 0.4 - (0.3 + 0.5) + 0.2


def test_incorrect_speed_planning_keeps_cruise_through_region():
    sc, ctx = plan_setup(objects=[{
        "id": "blk", "kind": "StaticObstacle", "size": [0.8, 2.8, 0.5],
        "waypoints": [{"t_ms": 0, "p": [45.0, 0.0], "v": [0, 0], "a": [0, 0]}]}])
    from causetrace.substitutes import ideal_prediction
    pred = ideal_prediction(sc, 0)
    loc = LocalizationOut((20.0, 0.0), 0.0, 11.0)
    fault = FaultSpec(ComponentId.PLANNING, "incorrect_speed_planning", Trigger())
    out, changed = planning_tick(pred, loc, ctx, [fault], 0)
    assert changed
    assert min(pt.speed for pt in out.trajectory) >= 11.0 - 1e-6
    assert out.trajectory[-1].p[0] > 45.0  # sails through the obstacle region


def test_planner_nudges_around_small_static_intrusion():
    sc, ctx = plan_setup(objects=[static_object("cone", p=(40.0, 0.0))])
    from causetrace.substitutes import ideal_prediction
    pred = ideal_prediction(sc, 0)
    loc = LocalizationOut((20.0, 0.0), 0.0, 5.0)
    out, _ = planning_tick(pred, loc, ctx, [], 0)
    assert "nudge_around" in out.branch_tags
    assert out.decision in ("Nudge", "Stop")
    assert max(abs(pt.p[1]) for pt in out.trajectory) > 1.0


def test_red_signal_becomes_stop_target():
    doc = straight_road_doc(t_max_ms=20000, signals=[{
        "id": "s1", "stop_line": [60.0, 0.0],
        "phases": [{"t_start_ms": 0, "t_end_ms": 15000, "color": "Red"},
                   {"t_start_ms": 15000, "t_end_ms": 20000, "color": "Green"}]}])
    sc = scenario_from_dict(doc)
    ctx = make_planner_context(sc)
    from causetrace.payloads import PredictionOut
    loc = LocalizationOut((44.0, 0.0), 0.0, 11.0)
    red, _ = planning_tick(PredictionOut(()), loc, ctx, [], 1000)
    assert "red_stop" in red.branch_tags
    assert red.trajectory[-1].speed == pytest.approx(0.0, abs=0.05)
    assert red.trajectory[-1].p[0] + ctx.ego_half[0] <= 60.0
    green, _ = planning_tick(PredictionOut(()), loc, ctx, [], 16000)
    assert "red_stop" not in green.branch_tags


def test_planning_respects_decel_bound():
    sc, ctx = plan_setup(objects=[{
        "id": "blk", "kind": "StaticObstacle", "size": [0.8, 2.8, 0.5],
        "waypoints": [{"t_ms": 0, "p": [45.0, 0.0], "v": [0, 0], "a": [0, 0]}]}])
    from causetrace.substitutes import ideal_prediction
    pred = ideal_prediction(sc, 0)
    loc = LocalizationOut((5.0, 0.0), 0.0, 11.0)
    out, _ = planning_tick(pred, loc, ctx, [], 0)
    traj = out.trajectory
    for a, b in zip(traj, traj[1:]):
        dt = (b.t - a.t) / 1000.0
        assert abs(b.speed - a.speed) / dt <= 8.0 + 1e-6


def out_and_back(x, y_far, y_near, y_end, t0=0):
    """A 0.6 m object predicted from (x, y_far) to (x, y_near) at 1.5 s and to
    (x, y_end) at 3 s, linearly, on the prediction grid."""
    pts = []
    for k in range(31):
        u = k / 15.0 if k <= 15 else (k - 15) / 15.0
        y = y_far + (y_near - y_far) * u if k <= 15 else y_near + (y_end - y_near) * u
        pts.append((t0 + k * PREDICTION_STEP_MS, x, y))
    return PredictedTrajectory("ped", "Pedestrian", (0.3, 0.3), math.pi / 2, tuple(pts))


def test_conflict_scan_sees_an_object_that_returns_to_its_start():
    # The object ends where it began but crosses the lane in between: it is not
    # standing still, whatever its first and last points say.
    _, ctx = plan_setup()
    plan = tuple(TrajPoint(k * PREDICTION_STEP_MS, (2.0 * k, 0.0), 20.0, 0.0)
                 for k in range(31))
    for y_end in (-6.0, -6.001):
        candidates = [pipeline._Candidate(out_and_back(30.0, -6.0, 0.0, y_end))]
        assert pipeline._first_conflict(ctx, plan, candidates) == (14, 28.0)
    # planning_tick stops for it, from 11 m/s with the object 18 m ahead.
    pred = PredictionOut((out_and_back(20.0, -6.0, 0.0, -6.0),))
    out, _ = planning_tick(pred, LocalizationOut((2.0, 0.0), 0.0, 11.0), ctx, [], 0)
    assert "stop_for_conflict" in out.branch_tags and out.decision != "Cruise"


@dataclass(frozen=True)
class PlannerParams:
    """The planner's settings before they became pipeline constants."""

    horizon_ms: int = 3000
    step_ms: int = 100
    accel: float = 2.0
    comfort_decel: float = 3.0
    max_decel: float = 8.0
    lateral_rate: float = 0.85
    safe_gap: float = 0.3
    dest_stop_margin: float = 1.2
    nudge_lookahead: float = 32.0
    max_nudge_offset: float = 2.2
    pass_speed: float = 5.0
    pass_zone_before: float = 25.0
    pass_zone_after: float = 10.0
    signal_lookahead: float = 60.0
    static_speed_eps: float = 0.3

    @property
    def conflict_clear(self) -> float:
        return self.safe_gap + 0.45

    @property
    def pass_clear(self) -> float:
        return self.safe_gap + 0.65


@dataclass
class CandidateSpec:
    stop_s: float | None
    target_lat: float
    cap_zone: tuple[float, float] | None
    emergency: bool = False


def gen_trajectory_reference(ctx, t, p0, heading0, speed0, s0, lat0, spec):
    """_gen_trajectory's body from before it took one pass: the (s, lat, v)
    list first, then the points."""
    par = PlannerParams()
    n = par.horizon_ms // par.step_ms
    dt = par.step_ms / 1000.0
    pts = []
    s, lat, v = s0, lat0, speed0
    for _ in range(n + 1):
        pts.append((s, lat, v))
        if spec.emergency:
            v_allow = 0.0
        else:
            v_allow = ctx.speed_limit
            if spec.cap_zone is not None and s <= spec.cap_zone[1]:
                gap = max(0.0, spec.cap_zone[0] - s)
                v_allow = min(v_allow, math.sqrt(par.pass_speed ** 2
                                                 + 2.0 * par.comfort_decel * gap))
            rem_dest = (ctx.dest_s - par.dest_stop_margin) - s
            v_allow = min(v_allow, math.sqrt(max(0.0, 2.0 * par.comfort_decel * rem_dest)))
            if spec.stop_s is not None:
                rem = spec.stop_s - s
                v_allow = min(v_allow, math.sqrt(max(0.0, 2.0 * par.comfort_decel * rem)))
        if v_allow >= v:
            v = min(v + par.accel * dt, v_allow)
        else:
            v = max(v_allow, v - par.max_decel * dt)
        if spec.target_lat > lat:
            lat = min(spec.target_lat, lat + par.lateral_rate * dt)
        elif spec.target_lat < lat:
            lat = max(spec.target_lat, lat - par.lateral_rate * dt)
        s += v * dt
    out = []
    for k, (sk, latk, vk) in enumerate(pts):
        if k == 0:
            out.append(TrajPoint(t, p0, speed0, heading0))
            continue
        p, _ = ctx.route.pose(sk, latk)
        prev = out[-1].p
        dx, dy = p[0] - prev[0], p[1] - prev[1]
        heading = math.atan2(dy, dx) if (dx * dx + dy * dy) > 1e-12 else out[-1].heading
        out.append(TrajPoint(t + k * par.step_ms, p, vk, heading))
    return tuple(out)


def box_at_reference(tr, t):
    """PredictedTrajectory.box_at from before it found the point before t by
    division on the prediction grid: a bisection over the point times."""
    pts = tr.points

    def heading_at(i):
        j = min(i + 1, len(pts) - 1)
        k = max(0, j - 1)
        dx, dy = pts[j][1] - pts[k][1], pts[j][2] - pts[k][2]
        if dx == 0.0 and dy == 0.0:
            return tr.heading
        return math.atan2(dy, dx)

    if t <= pts[0][0]:
        x, y = pts[0][1], pts[0][2]
        return OrientedBox((x, y), tr.half_extents, tr.heading)
    if t >= pts[-1][0]:
        x, y = pts[-1][1], pts[-1][2]
        return OrientedBox((x, y), tr.half_extents, heading_at(len(pts) - 1))
    lo = bisect_right(pts, t, key=itemgetter(0)) - 1
    t0, x0, y0 = pts[lo]
    t1, x1, y1 = pts[lo + 1]
    u = (t - t0) / (t1 - t0)
    return OrientedBox((x0 + (x1 - x0) * u, y0 + (y1 - y0) * u),
                       tr.half_extents, heading_at(lo))


coords = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
# Up to 31 points drawn from a pool of at most 4: still stretches and returns.
grid_paths = st.lists(st.tuples(coords, coords), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=31))


@settings(max_examples=300, deadline=None)
@given(t0=st.integers(-10_000, 10_000), xy=grid_paths, heading=st.floats(-math.pi, math.pi))
def test_predicted_box_equals_the_bisection_on_the_grid(t0, xy, heading):
    # Every producer emits its points on the prediction grid and every tick asks
    # on it, where the division finds the bisection's point and a zero fraction.
    tr = PredictedTrajectory("o", "Vehicle", (2.0, 0.9), heading,
                             tuple((t0 + k * PREDICTION_STEP_MS, x, y)
                                   for k, (x, y) in enumerate(xy)))
    for k in range(-2, len(xy) + 2):
        t = t0 + k * PREDICTION_STEP_MS
        box = box_at_reference(tr, t)
        assert repr(tr.box_at(t)) == repr(box)
        assert repr(tr.center_at(t)) == repr(box.center)


def first_conflict_reference(ctx, traj, pred):
    """_first_conflict's body from before it became safe_distance_at over the
    predicted trajectories, with the clearance read from PlannerParams and the
    boxes from box_at_reference. It takes a trajectory whose first and last
    points are equal for a still one, which planner_inputs never draws for an
    object that moves in between."""
    from causetrace.geometry import obb_separation_at_least

    threshold = PlannerParams().conflict_clear
    ego_r = ctx.ego_radius
    items = []
    for tr in pred.trajectories:
        if tr.kind == "Infrastructure":
            continue  # lane furniture is not an avoidance target
        pts = tr.points
        static = pts[0][1:] == pts[-1][1:]
        box0 = box_at_reference(tr, pts[0][0]) if static else None
        step = pts[1][0] - pts[0][0] if len(pts) > 1 else 1
        items.append((tr, static, box0, math.hypot(*tr.half_extents), step))
    for k, pt in enumerate(traj):
        if k == 0:
            continue  # current pose is given, not plannable
        ego_box = None
        px, py = pt.p
        for tr, static, box0, r, step in items:
            if static:
                cx, cy = box0.center
            else:
                pts = tr.points
                u = (pt.t - pts[0][0]) / step
                i = int(u)
                if i < 0:
                    cx, cy = pts[0][1], pts[0][2]
                elif i >= len(pts) - 1:
                    cx, cy = pts[-1][1], pts[-1][2]
                else:
                    f = u - i
                    cx = pts[i][1] + (pts[i + 1][1] - pts[i][1]) * f
                    cy = pts[i][2] + (pts[i + 1][2] - pts[i][2]) * f
            dx, dy = cx - px, cy - py
            lim = ego_r + r + threshold
            if dx * dx + dy * dy > lim * lim:
                continue
            if ego_box is None:
                ego_box = OrientedBox(pt.p, ctx.ego_half, pt.heading)
            ob = box0 if static else box_at_reference(tr, pt.t)
            if obb_separation_at_least(ego_box, ob, threshold):
                continue
            if min_obb_distance(ego_box, ob) < threshold:
                s, _, _ = ctx.route.project(pt.p)
                return k, s
    return None


def planning_tick_reference(pred, loc, ctx, faults, t):
    """planning_tick's body from before the planner's settings became constants."""
    par = PlannerParams()
    tags = ["route_follow"]
    s0, lat0, _ = ctx.route.project(loc.p)

    target_lat = 0.0
    cap_zone = None
    nudge = None
    for tr in pred.trajectories:
        if tr.kind == "Infrastructure":
            continue
        first = tr.points[0]
        last = tr.points[-1]
        horizon_s = (last[0] - first[0]) / 1000.0
        disp = math.hypot(last[1] - first[1], last[2] - first[2])
        if horizon_s > 0 and disp / horizon_s > par.static_speed_eps:
            continue
        box0 = box_at_reference(tr, first[0])
        s_min, s_max, lat_min, lat_max = _obstacle_route_interval(ctx, box0)
        if s_max < s0 or s_min > s0 + par.nudge_lookahead:
            continue
        body = ctx.ego_half[1] + par.conflict_clear + 0.1
        if lat_min > body or lat_max < -body:
            continue
        off_left = lat_max + par.pass_clear + ctx.ego_half[1]
        off_right = lat_min - par.pass_clear - ctx.ego_half[1]
        off = off_left if abs(off_left) <= abs(off_right) else off_right
        if abs(off) > par.max_nudge_offset:
            tags.append("corridor_blocked")
            continue
        if nudge is None or s_min < nudge[0]:
            nudge = (s_min, s_max, off)
    if nudge is not None:
        s_min, s_max, off = nudge
        if s0 < s_max + par.pass_zone_after:
            target_lat = off
            cap_zone = (s_min - par.pass_zone_before, s_max + par.pass_zone_after)
            tags.append("nudge_around")
    else:
        tags.append("corridor_clear")

    stop_s = None
    for sig in ctx.signals:
        s_line, lat_line, _ = ctx.route.project(sig.stop_line)
        if abs(lat_line) > 3.0 or s_line < s0:
            continue
        if s_line - s0 > par.signal_lookahead:
            continue
        if sig.color_at(t) == "Red":
            cand = s_line - ctx.ego_half[0] - 0.5
            stop_s = cand if stop_s is None else min(stop_s, cand)
            tags.append("red_stop")

    spec = CandidateSpec(stop_s=stop_s, target_lat=target_lat, cap_zone=cap_zone)
    traj = gen_trajectory_reference(ctx, t, loc.p, loc.heading, loc.speed, s0, lat0, spec)
    conflict = first_conflict_reference(ctx, traj, pred)
    decision = "Cruise"
    if conflict is not None:
        tags.append("stop_for_conflict")
        resolved = False
        for backoff in (0.9, 1.6, 2.4, 3.5, 5.0, 7.0, 10.0):
            cand_stop = conflict[1] - ctx.ego_half[0] - backoff
            if cand_stop <= s0 + 0.2:
                break
            cand_spec = CandidateSpec(
                stop_s=cand_stop if stop_s is None else min(stop_s, cand_stop),
                target_lat=target_lat, cap_zone=cap_zone)
            cand_traj = gen_trajectory_reference(ctx, t, loc.p, loc.heading, loc.speed, s0,
                                                 lat0, cand_spec)
            if first_conflict_reference(ctx, cand_traj, pred) is None:
                traj = cand_traj
                decision = "Stop"
                resolved = True
                break
        if not resolved:
            tags.append("emergency_brake")
            traj = gen_trajectory_reference(ctx, t, loc.p, loc.heading, loc.speed, s0, lat0,
                                            CandidateSpec(stop_s=None, target_lat=lat0,
                                                          cap_zone=None, emergency=True))
            decision = "Emergency"
    if decision == "Cruise":
        if target_lat != 0.0:
            decision = "Nudge"
        elif stop_s is not None or ctx.dest_s - s0 < 40.0:
            tags.append("dest_stop" if stop_s is None else "hold_stop")
            decision = "Stop" if ctx.dest_s - s0 < 40.0 or stop_s is not None else decision
        else:
            tags.append("cruise")

    out = PlanningOut(traj, decision, tuple(tags))
    return apply_planning_faults(out, faults, t, loc.p)


def test_planner_constants_equal_the_old_settings():
    # The reference planner, its conflict scan included, reads every setting from
    # PlannerParams; pin every pipeline constant to its old setting, to the bit.
    par = PlannerParams()
    assert (pipeline.PREDICTION_HORIZON_MS, pipeline.PREDICTION_STEP_MS) == (par.horizon_ms,
                                                                            par.step_ms)
    for name in ("accel", "comfort_decel", "max_decel", "lateral_rate", "safe_gap",
                 "conflict_clear", "pass_clear", "dest_stop_margin", "nudge_lookahead",
                 "max_nudge_offset", "pass_speed", "pass_zone_before", "pass_zone_after",
                 "signal_lookahead", "static_speed_eps"):
        assert repr(getattr(pipeline, name.upper())) == repr(getattr(par, name)), name


SIGNAL_PHASES = [{"t_start_ms": 0, "t_end_ms": 10000, "color": "Red"},
                 {"t_start_ms": 10000, "t_end_ms": 20000, "color": "Green"}]
BENT_ROAD = {
    "map": {"lanes": [{"id": "lane0", "centerline": [[0.0, 0.0], [100.0, 0.0]],
                       "width": 3.5, "speed_limit": 11.0},
                      {"id": "lane1", "centerline": [[100.0, 0.0], [150.0, 30.0], [220.0, 30.0]],
                       "width": 3.5, "speed_limit": 9.0}],
            "successors": {"lane0": ["lane1"]}},
    "ego": {"init_pose": [5.0, 0.0, 0.0], "dest": [200.0, 30.0], "size": [4.6, 1.9, 1.5]},
    "objects": [],
    "signals": [{"id": "s1", "stop_line": [140.0, 24.0], "phases": SIGNAL_PHASES}],
    "t_max_ms": 20000,
    "seed": 7,
}
PLANNER_SCENARIOS = {
    "straight": scenario_from_dict(straight_road_doc(t_max_ms=20000, signals=[
        {"id": "s1", "stop_line": [60.0, 0.0], "phases": SIGNAL_PHASES}])),
    "bent": scenario_from_dict(BENT_ROAD),
    **{name: load_builtin_scenario(name) for name in ("cs1", "cs2", "cs3", "cs4", "cs5")},
}
PLANNER_CONTEXTS = {name: make_planner_context(sc) for name, sc in PLANNER_SCENARIOS.items()}


@st.composite
def planner_inputs(draw):
    """A prediction, a localization, a context and a time for planning_tick: the
    ego on the route or off it, objects static or moving around the route ahead,
    signals red or green, and the scenario's own objects when drawn."""
    name = draw(st.sampled_from(sorted(PLANNER_SCENARIOS)))
    ctx = PLANNER_CONTEXTS[name]
    t = draw(st.integers(0, 200)) * 100
    s = draw(st.floats(-5.0, 215.0))
    lat = draw(st.one_of(st.floats(-1.5, 1.5), st.floats(-25.0, 25.0)))
    p, heading = ctx.route.pose(s, lat)
    loc = LocalizationOut(p, heading + draw(st.floats(-0.4, 0.4)),
                          draw(st.one_of(st.just(0.0), st.floats(0.0, 14.0))))
    # Within reach of the trajectory, or anywhere around the route ahead.
    ahead = st.one_of(st.floats(6.0, 30.0), st.floats(-10.0, 90.0))
    objects = []
    for i in range(draw(st.integers(0, 4))):
        center, oh = ctx.route.pose(s + draw(ahead), draw(st.floats(-4.0, 4.0)))
        v = draw(st.one_of(st.just((0.0, 0.0)),
                           st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
                           st.tuples(st.floats(-12.0, 12.0), st.floats(-3.0, 3.0))))
        box = OrientedBox(center, (draw(st.floats(0.1, 2.5)), draw(st.floats(0.1, 1.5))),
                          oh + draw(st.floats(-1.0, 1.0)))
        kind = draw(st.sampled_from(["Vehicle", "Pedestrian", "StaticObstacle",
                                     "Infrastructure"]))
        objects.append(PerceivedObject(f"o{i}", kind, box, v))
    pred, _ = prediction_tick(PerceptionOut(tuple(objects)), [], t)
    if draw(st.booleans()):
        truth = ideal_prediction(PLANNER_SCENARIOS[name], t).trajectories
        pred = PredictionOut(truth + pred.trajectories)
    return pred, loc, ctx, t


# A wall across the lane 20 m ahead: the conflict scan finds it, and a backed-off
# stop clears it.
WALL = PerceivedObject("blk", "StaticObstacle", OrientedBox((45.0, 0.0), (0.4, 1.4), 0.0),
                       (0.0, 0.0))
WALL_AHEAD = (prediction_tick(PerceptionOut((WALL,)), [], 12000)[0],
              LocalizationOut((25.0, 0.0), 0.0, 11.0), PLANNER_CONTEXTS["straight"], 12000)


def planning_tick_equals_reference(pred, loc, ctx, t):
    # repr tells -0.0 from 0.0, so every float of the plan must be equal to the bit.
    assert repr(planning_tick(pred, loc, ctx, [], t)) == repr(
        planning_tick_reference(pred, loc, ctx, [], t))


@settings(max_examples=300, deadline=None)
@given(inputs=planner_inputs())
@example(inputs=WALL_AHEAD)
def test_planning_tick_equals_reference(inputs):
    planning_tick_equals_reference(*inputs)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(inputs=planner_inputs())
def test_planning_tick_equals_reference_many(inputs):
    planning_tick_equals_reference(*inputs)


# --- control ----------------------------------------------------------------


def cruise_plan(ctx, speed=10.0):
    from causetrace.payloads import PlanningOut, TrajPoint
    pts = tuple(TrajPoint(k * 100, (5.0 + speed * k * 0.1, 0.0), speed, 0.0)
                for k in range(41))
    return PlanningOut(pts, "Cruise", ("cruise",))


def test_control_equilibrium_near_zero():
    _, ctx = plan_setup()
    plan = cruise_plan(ctx)
    loc = LocalizationOut((5.0, 0.0), 0.0, 10.0)
    out, changed = control_tick(plan, loc, [], 0)
    assert not changed
    assert abs(out.accel_cmd) < 1e-3
    assert abs(out.steer) < 1e-3


def test_control_longitudinal_offset_fault():
    _, ctx = plan_setup()
    plan = cruise_plan(ctx)
    loc = LocalizationOut((5.0, 0.0), 0.0, 10.0)
    fault = FaultSpec(ComponentId.CONTROL, "wrong_longitudinal_command",
                      Trigger(t0=3000, t1=5000), magnitude={"offset": 2.0})
    inside, changed = control_tick(plan, loc, [fault], 4000)
    assert changed and inside.accel_cmd == pytest.approx(2.0, abs=1e-3)
    outside, changed = control_tick(plan, loc, [fault], 5000)
    assert not changed and abs(outside.accel_cmd) < 1e-3


def test_empty_plan_full_brake():
    from causetrace.payloads import PlanningOut
    loc = LocalizationOut((5.0, 0.0), 0.0, 10.0)
    out, _ = control_tick(PlanningOut((), "Stop", ()), loc, [], 0)
    assert out.accel_cmd == -8.0
    assert out.steer == 0.0


def control_tick_reference(plan, loc, faults, t):
    """control_tick's body from before it computed the distances inline: the
    nearest point and the lookahead sum with vec_dist."""
    if len(plan.trajectory) < 2:
        return apply_control_faults(ControlOut(ACCEL_MIN, 0.0), faults, t, loc.p)
    traj = plan.trajectory

    t_q = t + CONTROL_SPEED_LOOKAHEAD_MS
    v_target = _plan_speed_at(traj, t_q)
    a_ff = (_plan_speed_at(traj, t_q + 200) - v_target) / 0.2
    err = v_target - loc.speed
    if abs(err) < 0.02:
        err = 0.0
    accel = min(ACCEL_MAX, max(ACCEL_MIN, a_ff + CONTROL_KP * err))

    lookahead = max(3.0, 0.5 * loc.speed)
    best_i, best_d = 0, math.inf
    for i, pt in enumerate(traj):
        d = vec_dist(pt.p, loc.p)
        if d < best_d:
            best_d, best_i = d, i
    target = traj[-1].p
    acc = 0.0
    for i in range(best_i, len(traj) - 1):
        acc += vec_dist(traj[i].p, traj[i + 1].p)
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
            steer = 0.0
    return apply_control_faults(ControlOut(accel, steer), faults, t, loc.p)


# Grid coordinates give repeated points and points at equal distance from the
# ego (the first of them must win); free floats give the general case.
coord = st.one_of(st.sampled_from([-4.0, -1.0, 0.0, 1.0, 2.5, 4.0]),
                  st.floats(-60.0, 60.0))


@st.composite
def plans(draw):
    n = draw(st.integers(0, 12))
    pts = []
    for k in range(n):
        pts.append(TrajPoint(k * 100, (draw(coord), draw(coord)),
                             draw(st.floats(0.0, 15.0)), draw(st.floats(-math.pi, math.pi))))
    return PlanningOut(tuple(pts), "Cruise", ("cruise",))


@settings(max_examples=400, deadline=None)
@given(plan=plans(), x=coord, y=coord, heading=st.floats(-math.pi, math.pi),
       speed=st.floats(0.0, 60.0), t=st.sampled_from([0, 50, 100, 400, 1000, 1300]))
@example(plan=PlanningOut(tuple(TrajPoint(k * 100, p, 5.0, 0.0) for k, p in enumerate(
    [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])), "Cruise", ()),
    x=0.0, y=0.0, heading=0.0, speed=2.0, t=0)
@example(plan=PlanningOut((TrajPoint(0, (0.0, 0.0), 1.0, 0.0), TrajPoint(100, (1.0, 0.0), 1.0, 0.0)),
                          "Cruise", ()),
         x=0.0, y=0.0, heading=0.0, speed=40.0, t=0)  # lookahead past the end
def test_control_tick_equals_reference(plan, x, y, heading, speed, t):
    loc = LocalizationOut((x, y), heading, speed)
    assert control_tick(plan, loc, [], t) == control_tick_reference(plan, loc, [], t)


# --- localization -----------------------------------------------------------


def test_localization_exact_truth():
    ego = EgoState((12.0, 0.5), 0.1, 8.0, 0.3, 4000)
    out, changed = localization_tick(ego, [], 4000)
    assert not changed
    assert out.p == ego.p and out.speed == ego.speed


def test_lateral_localization_fault_and_window():
    ego = EgoState((12.0, 0.0), 0.0, 8.0, 0.0, 4000)
    fault = FaultSpec(ComponentId.LOCALIZATION, "wrong_lateral_localization",
                      Trigger(t0=3000, t1=6000), magnitude={"offset": 1.5})
    inside, changed = localization_tick(ego, [fault], 4000)
    assert changed and inside.p == pytest.approx((12.0, 1.5))
    outside, changed = localization_tick(ego, [fault], 6000)
    assert not changed and outside.p == (12.0, 0.0)


def test_fault_kind_component_mismatch_rejected():
    with pytest.raises(ValueError):
        FaultSpec(ComponentId.PREDICTION, "miss_detection", Trigger())
