import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causetrace.geometry import ANY_GAP, OrientedBox, min_obb_distance, obb_separation_at_least
from causetrace.oracles import safe_distance_at
from causetrace.scenario import (TrafficObject, Waypoint, bbox_at, object_pose_at,
                                 scenario_from_dict)
from causetrace.substitutes import ideal_perception
from causetrace.world import (ACCEL_MAX, ACCEL_MIN, Broadphase, EgoState, ObjectTracker,
                              STEER_MAX, WHEELBASE, step_ego)
from conftest import object_by_id, static_object, straight_road_doc


def test_straight_advance():
    s = EgoState((0.0, 0.0), 0.0, 10.0, 0.0, 0)
    s2 = step_ego(s, 0.0, 0.0, 100)
    assert s2.p == pytest.approx((1.0, 0.0))
    assert s2.speed == 10.0
    assert s2.t == 100


def test_speed_clamps_at_zero():
    s = EgoState((0.0, 0.0), 0.0, 1.0, 0.0, 0)
    s2 = step_ego(s, -8.0, 0.0, 1000)
    assert s2.speed == 0.0


def test_command_clamps():
    s = EgoState((0.0, 0.0), 0.0, 5.0, 0.0, 0)
    hard = step_ego(s, 99.0, 0.0, 1000)
    legal = step_ego(s, 3.0, 0.0, 1000)
    assert hard.speed == legal.speed


def test_constant_steer_closes_circle():
    steer = 0.3
    radius = WHEELBASE / math.tan(steer)
    speed = 5.0
    circumference = 2 * math.pi * radius
    total_ms = int(circumference / speed * 1000)
    s = EgoState((0.0, 0.0), 0.0, speed, 0.0, 0)
    for _ in range(total_ms):
        s = step_ego(s, 0.0, steer, 1)
    # Closed-form check: after one full loop the heading wraps to the start.
    assert math.atan2(math.sin(s.heading), math.cos(s.heading)) == pytest.approx(0.0, abs=1e-2)
    assert math.hypot(*s.p) < 0.1


@settings(max_examples=100, deadline=None)
@given(speed=st.floats(0, 30), accel=st.floats(-8, 0), steps=st.integers(1, 50))
def test_nonpositive_accel_never_speeds_up(speed, accel, steps):
    s = EgoState((0.0, 0.0), 0.0, speed, 0.0, 0)
    for _ in range(steps):
        s2 = step_ego(s, accel, 0.0, 10)
        assert s2.speed <= s.speed + 1e-12
        s = s2


def step_ego_single(state: EgoState, accel_cmd: float, steer: float, dt: int) -> EgoState:
    """step_ego's body from before it integrated blocks in 1 ms steps: one Euler
    step over dt ms. With dt=1 it is the reference for step_ego."""
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


def bits(s: EgoState) -> tuple:
    # float.hex tells -0.0 from 0.0, so equal bits means bit-for-bit equal floats
    return (s.p[0].hex(), s.p[1].hex(), s.heading.hex(), s.speed.hex(), s.accel.hex(), s.t)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-500, 500), y=st.floats(-500, 500),
       heading=st.floats(-math.pi, math.pi), speed=st.floats(0, 30),
       accel=st.floats(-20, 20), steer=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       t=st.integers(0, 30000), n=st.integers(1, 120))
@example(x=0.0, y=0.0, heading=0.3, speed=0.02, accel=-8.0, steer=0.2, t=0, n=10)
@example(x=-1.5, y=2.0, heading=-2.0, speed=0.05, accel=-50.0, steer=-0.9, t=90, n=100)
@example(x=0.0, y=0.0, heading=0.0, speed=0.0, accel=5.0, steer=0.7, t=0, n=10)
def test_block_step_equals_chained_1ms_steps(x, y, heading, speed, accel, steer, t, n):
    # Covers speeds that clamp to 0 mid-block, steer == 0 and out-of-range
    # commands: n 1 ms steps in one call equal n chained single steps.
    s = EgoState((x, y), heading, speed, 0.25, t)
    want = s
    for _ in range(n):
        want = step_ego_single(want, accel, steer, 1)
    assert bits(step_ego(s, accel, steer, n)) == bits(want)


def scenario_with_objects():
    return scenario_from_dict(straight_road_doc(objects=[
        static_object("near", p=(30.0, 0.0)),
        static_object("far", p=(85.0, 0.0)),
    ]))


def test_ground_truth_range_includes():
    # Both objects lie 27.5 m from the ego, inside the 60 m sensor range.
    sc = scenario_with_objects()
    got = ideal_perception(sc, 0, (57.5, 0.0))
    assert {o.id for o in got.objects} == {"near", "far"}


def test_ground_truth_range_excludes():
    sc = scenario_with_objects()
    got = ideal_perception(sc, 0, (5.0, 0.0))
    assert {o.id for o in got.objects} == {"near"}


def test_ground_truth_matches_pose_interpolation():
    from causetrace.benchmark import load_builtin_scenario

    sc = load_builtin_scenario("cs2")
    t = 7000
    lead = object_by_id(sc, "lead")
    p, v, _ = object_pose_at(lead, t)
    got = ideal_perception(sc, t, (60.0, 0.0))
    seen = next(o for o in got.objects if o.id == "lead")
    assert seen.box.center == pytest.approx(p)
    assert seen.v == pytest.approx(v)
    trk = ObjectTracker(lead)
    assert trk.box_at(t).center == pytest.approx(p)


def test_object_tracker_is_the_scenario_model():
    # The tracker gives exactly bbox_at's boxes, through the stop-and-go segments
    # of the cs2 lead vehicle, asked forwards and then backwards.
    from causetrace.benchmark import load_builtin_scenario

    lead = object_by_id(load_builtin_scenario("cs2"), "lead")
    trk = ObjectTracker(lead)
    for t in [*range(-100, 32000, 10), *range(32000, -100, -10)]:
        assert trk.box_at(t) == bbox_at(lead, t)


def test_object_tracker_builds_static_box_once(monkeypatch):
    import causetrace.world as world

    calls = []
    real = world.bbox_at
    monkeypatch.setattr(world, "bbox_at", lambda obj, t: calls.append(t) or real(obj, t))
    curb = object_by_id(scenario_with_objects(), "near")
    trk = ObjectTracker(curb)
    boxes = [trk.box_at(t) for t in range(0, 5000, 10)]
    assert len(calls) == 1
    assert all(b is boxes[0] for b in boxes)
    assert boxes[0] == bbox_at(curb, 2500)


# --- broadphase --------------------------------------------------------------


def contact_reference(ego, ego_half, ego_r, trackers, t, trace) -> bool:
    """The scheduler's contact test from before the broadphase and the corner
    reuse, with its 1e-9 separating-axis pre-filter, run over every tracker."""
    ego_box = None
    for trk in trackers:
        other = trk.box_at(t)
        dx, dy = other.center[0] - ego.p[0], other.center[1] - ego.p[1]
        lim = ego_r + trk.radius
        if dx * dx + dy * dy > lim * lim:
            continue
        if ego_box is None:
            ego_box = OrientedBox(ego.p, ego_half, ego.heading)
        if obb_separation_at_least(ego_box, other, 1e-9):
            continue
        if min_obb_distance(ego_box, other) <= 0.0:
            trace.diagnostics.append(f"contact t={t} object={trk.obj.id}")
            return True
    return False


def safe_distance_reference(w, heading, half, ego_r, trackers, c):
    """oracles.safe_distance_at's body from before the broadphase and the corner
    reuse, run over every tracker."""
    ego_box = OrientedBox(w.p, half, heading)
    for trk in trackers:
        other = trk.box_at(w.t)
        dx, dy = other.center[0] - w.p[0], other.center[1] - w.p[1]
        lim = ego_r + trk.radius + c
        if dx * dx + dy * dy > lim * lim:
            continue
        if obb_separation_at_least(ego_box, other, c):
            continue
        d = min_obb_distance(ego_box, other)
        if d < c:
            lx = dx * math.cos(heading) + dy * math.sin(heading)
            detail = "rear-approach" if lx < -half[0] else "front"
            return trk.obj.id, d, detail
    return None


xy = st.floats(-60.0, 60.0)


@st.composite
def scenes(draw) -> tuple[TrafficObject, ...]:
    """Static and moving objects of mixed sizes, some sharing a center; a moving
    object drives one to three segments, each at its own velocity, possibly zero."""
    objects = []
    centers = [(0.0, 0.0)]
    for i in range(draw(st.integers(0, 10))):
        size = (draw(st.floats(0.1, 12.0)), draw(st.floats(0.1, 4.0)), 1.5)
        p = draw(st.one_of(st.sampled_from(centers), st.tuples(xy, xy)))
        centers.append(p)
        if draw(st.booleans()):
            wps = (Waypoint(p, (0.0, 0.0), (0.0, 0.0), 0),)
        else:
            wps, t = [], 0
            for _ in range(draw(st.integers(1, 3))):
                v = draw(st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-15.0, 15.0),
                                                                   st.floats(-15.0, 15.0))))
                wps.append(Waypoint(p, v, (0.0, 0.0), t))
                dt = draw(st.integers(100, 2000))
                p, t = (p[0] + v[0] * dt / 1000.0, p[1] + v[1] * dt / 1000.0), t + dt
            wps = (*wps, Waypoint(p, wps[-1].v, (0.0, 0.0), t))
        heading = draw(st.one_of(st.none(), st.floats(-math.pi, math.pi)))
        objects.append(TrafficObject(f"o{i}", "StaticObstacle", size, wps, heading))
    return tuple(objects)


def sample_points(data, objects, ego_r, c) -> list[tuple[int, tuple[float, float], float]]:
    """(t, p, heading) in time order: points near an object, exactly at the
    circle-test limit of a static one, on grid cell edges, far from everything,
    and anywhere."""
    static = [ObjectTracker(o) for o in objects if o.is_static]
    max_r = max((trk.radius for trk in static), default=1.0)
    cell = (ego_r + c + max_r) * (1.0 + 1e-9)
    kinds = [st.tuples(xy, xy), st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(
        lambda ij: (ij[0] * cell, ij[1] * cell)),
        st.tuples(st.sampled_from([-1e5, 1e5]), st.floats(-1e5, 1e5))]
    if objects:
        kinds.append(st.tuples(st.sampled_from(objects), st.floats(-8.0, 8.0),
                               st.floats(-8.0, 8.0)).map(
            lambda o: (o[0].waypoints[0].p[0] + o[1], o[0].waypoints[0].p[1] + o[2])))
    if static:
        def at_limit(arg):
            trk, (ux, uy) = arg
            lim = ego_r + trk.radius + c
            cx, cy = trk.box_at(0).center
            return cx + ux * lim, cy + uy * lim
        kinds.append(st.tuples(st.sampled_from(static), st.sampled_from(
            [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8), (-0.6, -0.8)])
        ).map(at_limit))
    n = data.draw(st.integers(1, 12))
    times = sorted(data.draw(st.lists(st.integers(-100, 6500), min_size=n, max_size=n)))
    return [(t, data.draw(st.one_of(kinds)), data.draw(st.floats(-math.pi, math.pi)))
            for t in times]


reaches = dict(ego_r=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
               c=st.one_of(st.just(0.0), st.floats(0.0, 80.0)))


@settings(max_examples=300, deadline=None)
@given(objects=scenes(), data=st.data(), **reaches)
def test_broadphase_keeps_every_circle_hit(objects, data, ego_r, c):
    # The trackers a caller's circle test keeps are the same, in the same order,
    # from near() as from the full list.
    def kept(trackers, t, p):
        out = []
        for trk in trackers:
            other = trk.box_at(t)
            dx, dy = other.center[0] - p[0], other.center[1] - p[1]
            lim = ego_r + trk.radius + c
            if dx * dx + dy * dy <= lim * lim:
                out.append(trk.obj.id)
        return out

    broad = Broadphase(objects, ego_r + c)
    full = [ObjectTracker(o) for o in objects]
    for t, p, _ in sample_points(data, objects, ego_r, c):
        assert kept(broad.near(p), t, p) == kept(full, t, p)


def checks_equal_full_scans(objects, data, half, c):
    # safe_distance_at over near(), at c and at ANY_GAP as the scheduler's
    # contact test, returns the hit, distance, detail and contact diagnostic of
    # the pre-broadphase loops over every object.
    ego_r = math.hypot(*half)
    safe, safe_ref = Broadphase(objects, ego_r + c), [ObjectTracker(o) for o in objects]
    contact, contact_ref = Broadphase(objects, ego_r), [ObjectTracker(o) for o in objects]
    got, want = [], SimpleNamespace(diagnostics=[])
    for t, p, heading in sample_points(data, objects, ego_r, c):
        w = Waypoint(p, (0.0, 0.0), (0.0, 0.0), t)
        assert (safe_distance_at(w, heading, half, ego_r, safe.near(p), c)
                == safe_distance_reference(w, heading, half, ego_r, safe_ref, c))
        hit = safe_distance_at(w, heading, half, ego_r, contact.near(p), ANY_GAP)
        if hit is not None:
            got.append(f"contact t={t} object={hit[0]}")
        ego = EgoState(p, heading, 0.0, 0.0, t)
        assert (hit is not None) == contact_reference(ego, half, ego_r, contact_ref, t, want)
        assert got == want.diagnostics


broadphase_checks = dict(objects=scenes(), data=st.data(),
                         half=st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 1.5)),
                         c=reaches["c"])


@settings(max_examples=300, deadline=None)
@given(**broadphase_checks)
def test_broadphase_checks_equal_full_scans(objects, data, half, c):
    checks_equal_full_scans(objects, data, half, c)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(**broadphase_checks)
def test_broadphase_checks_equal_full_scans_many(objects, data, half, c):
    # The contact test asks for any positive separating gap, where the reference
    # pre-filters at 1e-9 m; they could only disagree on boxes closer than that.
    checks_equal_full_scans(objects, data, half, c)


def queries_in_any_order(objects, data, half, c):
    # Trackers (boxes and centres) and a Broadphase asked at shuffled times
    # answer as bbox_at and a fresh full scan do: no answer depends on an
    # earlier query.
    ego_r = math.hypot(*half)
    broad = Broadphase(objects, ego_r + c)
    points = data.draw(st.permutations(sample_points(data, objects, ego_r, c)))
    for t, p, heading in points:
        for trk in broad.trackers:
            assert trk.box_at(t) == bbox_at(trk.obj, t)
            assert trk.center_at(t) == bbox_at(trk.obj, t).center
        w = Waypoint(p, (0.0, 0.0), (0.0, 0.0), t)
        fresh = [ObjectTracker(o) for o in objects]
        assert (safe_distance_at(w, heading, half, ego_r, broad.near(p), c)
                == safe_distance_reference(w, heading, half, ego_r, fresh, c))


@settings(max_examples=300, deadline=None)
@given(**broadphase_checks)
def test_queries_in_any_order(objects, data, half, c):
    queries_in_any_order(objects, data, half, c)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(**broadphase_checks)
def test_queries_in_any_order_many(objects, data, half, c):
    queries_in_any_order(objects, data, half, c)


def test_broadphase_pads_its_cells():
    # The center lies 5 + 1e-300 m from p, which rounds to the 5 m circle-test
    # limit, so the caller keeps it; without the relative pad on the cell size,
    # p and the center would fall in cells -1 and 1 of a 5 m grid.
    obj = TrafficObject("o", "StaticObstacle", (6.0, 8.0, 1.5),
                        (Waypoint((5.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0),))
    p = (-1e-300, 0.0)
    trk = ObjectTracker(obj)
    assert trk.radius == 5.0 and (trk.box_at(0).center[0] - p[0]) ** 2 <= 5.0 ** 2
    assert [trk.obj.id for trk in Broadphase((obj,), 0.0).near(p)] == ["o"]
