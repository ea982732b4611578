import gc
import math
from bisect import bisect_right
from operator import attrgetter, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causetrace.benchmark import ARCHETYPE, load_benchmark, load_builtin_scenario
from causetrace.middleware import Bus, ComponentId
from causetrace.oracles import OracleConfig
from causetrace.payloads import (ControlOut, PerceivedObject, PerceptionOut, PlanningOut,
                                 PredictedTrajectory, PredictionOut, TrajPoint)
from causetrace.pipeline import PREDICTION_HORIZON_MS, PREDICTION_STEP_MS, PlanTable
from causetrace.runner import (AdsConfig, Checkpoint, rtest, run_scheduler,
                               run_with_substitution)
from causetrace.scenario import bbox_at, object_box, object_pose_at, scenario_from_dict
from causetrace.substitutes import (IdealAll, IdealFromState, OnlineStateTracker,
                                    QuantizationUnits, SubstitutionPlan, ideal_localization,
                                    derived_control, ideal_perception, ideal_prediction,
                                    quantize_state, sim_control_apply, split_trace)
from causetrace.world import SENSOR_RANGE, EgoState
from conftest import object_by_id, straight_road_doc

INSTS = {i.id: i for i in load_benchmark()}
UNITS = QuantizationUnits()


def test_quantization_worked_example():
    # Positions 0.1 m / 0.05 m apart with p_unit=0.2 land in the same cells.
    k1 = quantize_state((3.0, 1.0), (2.0, 0.0), (0.0, 0.0), UNITS)
    k2 = quantize_state((3.1, 1.05), (2.0, 0.0), (0.0, 0.0), UNITS)
    assert k1 == k2
    assert k1[:2] == (15, 5)


def test_quantization_floor_not_round():
    key = quantize_state((0.39, -0.01), (0.0, 0.0), (0.0, 0.0), UNITS)
    assert key[0] == 1  # floor(0.39/0.2) = 1, round would give 2
    assert key[1] == -1  # floor of a small negative is -1


def test_quantization_stable_under_requantization():
    key = quantize_state((3.0, 1.0), (2.0, 0.1), (0.3, 0.0), UNITS)
    rep = (key[0] * UNITS.p_unit, key[1] * UNITS.p_unit)
    again = quantize_state(rep, (key[2] * UNITS.v_unit, key[3] * UNITS.v_unit),
                           (key[4] * UNITS.a_unit, key[5] * UNITS.a_unit), UNITS)
    assert again == key


def stationary_trace():
    sc = scenario_from_dict(straight_road_doc(t_max_ms=500, dest_x=6.0))
    res = rtest(sc, AdsConfig(), OracleConfig())
    return res.trace


def test_split_trace_stationary_single_state():
    trace = stationary_trace()
    states = split_trace(trace, UNITS)
    assert len(states) == 1
    for row in trace.rows.values():
        for m in row:
            assert m.state_index == 1


def test_split_trace_cruise_state_every_20ms():
    # At 10 m/s with p_unit 0.2 the position cell advances every 20 ms.
    bus = Bus()
    tracker = OnlineStateTracker(UNITS)
    for k in range(101):
        t = k * 10
        p = (10.0 * t / 1000.0 + 0.001, 0.0)
        index, key = tracker.observe(p, (10.0, 0.0), (0.0, 0.0))
        if index > len(bus.trace.checkpoints):  # the scheduler's record of a state start
            bus.trace.checkpoints.append(Checkpoint(t, EgoState(p, 0.0, 10.0, 0.0, t), key))
        bus.publish(ComponentId.LOCALIZATION, None, t)
    states = split_trace(bus.trace, UNITS)
    assert len(states) == 51
    assert all(b.t - a.t == 20 for a, b in zip(states, states[1:]))  # two samples each
    for m in bus.trace.rows[ComponentId.LOCALIZATION]:
        assert m.state_index == m.t_pub // 20 + 1
        assert m.state_key == states[m.state_index - 1].key


def test_split_trace_partitions_messages():
    inst = INSTS["cs1_perc_miss"]
    sc = load_builtin_scenario("cs1")
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    states = split_trace(res.trace, UNITS)
    n = len(states)
    for comp, row in res.trace.rows.items():
        indices = [m.state_index for m in row]
        assert all(1 <= i <= n for i in indices)
        # Concatenating per-state message sets in state order reproduces the row.
        by_state = [m for s in range(1, n + 1) for m in row if m.state_index == s]
        assert [m.seq for m in by_state] == [m.seq for m in row]


def split_trace_reference(trace, units):
    """The state split split_trace made before it read the scheduler's
    checkpoints: quantize every ego sample, the closing one included, merge
    consecutive equal keys, and give each message the state of the last sample
    at or before its publication. Returns each state's (first sample time,
    key) and, row by row, each message's (state_index, state_key)."""
    states = []
    sample_index = []
    for w in trace.ego_log:
        key = quantize_state(w.p, w.v, w.a, units)
        if not states or key != states[-1][1]:
            states.append((w.t, key))
        sample_index.append((w.t, len(states)))
    labels = []
    for row in trace.rows.values():
        for msg in row:
            i = bisect_right(sample_index, msg.t_pub, key=itemgetter(0))
            idx = sample_index[max(i - 1, 0)][1]
            labels.append((idx, states[idx - 1][1]))
    return states, labels


def assert_split_trace_equals_reference(scenario, faults=()) -> bool:
    """split_trace against split_trace_reference on one original run; returns
    whether the closing sample opens a state in the reference."""
    trace = rtest(scenario, AdsConfig(faults=list(faults)), OracleConfig()).trace
    ref_states, labels = split_trace_reference(trace, UNITS)
    states = split_trace(trace, UNITS)
    assert [(m.state_index, m.state_key) for row in trace.rows.values() for m in row] == labels
    # The scheduler appends the closing t_max sample without observing it; where
    # its key differs from the last state's, only the reference opens a state.
    *_, last, closing = trace.ego_log
    opens = (closing.t == scenario.t_max
             and quantize_state(closing.p, closing.v, closing.a, UNITS)
             != quantize_state(last.p, last.v, last.a, UNITS))
    assert len(ref_states) == len(states) + opens
    assert [(cp.t, cp.key) for cp in states] == ref_states[:len(states)]
    assert all(cp.ego.t == cp.t for cp in states)
    return opens


STATE_AXIS_FAST = ("cs1_perc_miss", "cs5_loc_lat", "cs4b_ctrl_long")


@pytest.mark.parametrize("inst_id", STATE_AXIS_FAST)
def test_split_trace_equals_reference(inst_id):
    inst = INSTS[inst_id]
    assert not assert_split_trace_equals_reference(load_builtin_scenario(inst.scenario),
                                                   [inst.fault])


def test_split_trace_equals_reference_nominal():
    assert not assert_split_trace_equals_reference(load_builtin_scenario("cs2"))


def test_split_trace_equals_reference_where_the_closing_sample_opens_a_state():
    # The ego is still accelerating at t_max.
    assert assert_split_trace_equals_reference(
        scenario_from_dict(straight_road_doc(t_max_ms=2020)))


@pytest.mark.slow
@pytest.mark.parametrize("inst_id", sorted(INSTS))
def test_split_trace_equals_reference_all(inst_id):
    inst = INSTS[inst_id]
    assert not assert_split_trace_equals_reference(load_builtin_scenario(inst.scenario),
                                                   [inst.fault])


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ARCHETYPE))
def test_split_trace_equals_reference_all_nominal(name):
    assert not assert_split_trace_equals_reference(load_builtin_scenario(name))


def perception_vs_ideal(sc):
    """(pipeline payload, ideal_perception payload) per perception tick of a
    fault-free run, the substitute seeing from the ego position at that tick."""
    trace = run_scheduler(sc, AdsConfig())
    ego_p = {w.t: w.p for w in trace.ego_log}
    return [(m.payload, ideal_perception(sc, m.t_pub, ego_p[m.t_pub]))
            for m in trace.rows[ComponentId.PERCEPTION]]


def test_ideal_perception_equals_faultless_tick():
    pairs = perception_vs_ideal(load_builtin_scenario("cs2"))
    assert pairs and all(seen == ideal for seen, ideal in pairs)


def test_object_at_rest_then_moving_has_one_heading():
    # At rest until 2 s without a heading override, then walking towards +y.
    # Perception, its substitute and the oracle's bbox_at must agree on the
    # heading throughout; it is 0.0 while the object has never moved.
    doc = straight_road_doc(t_max_ms=3000, objects=[{
        "id": "ped", "kind": "Pedestrian", "size": [0.5, 0.5, 1.8], "waypoints": [
            {"t_ms": 0, "p": [40.0, -8.0], "v": [0.0, 0.0], "a": [0.0, 0.0]},
            {"t_ms": 2000, "p": [40.0, -8.0], "v": [0.0, 0.0], "a": [0.0, 1.5]},
            {"t_ms": 4000, "p": [40.0, -5.0], "v": [0.0, 3.0], "a": [0.0, 0.0]}]}])
    sc = scenario_from_dict(doc)
    ped = object_by_id(sc, "ped")
    pairs = perception_vs_ideal(sc)
    assert len(pairs) == 30
    for t, (seen, ideal) in zip(range(0, 3000, 100), pairs):
        headings = {o.box.heading for o in seen.objects + ideal.objects}
        assert headings == {bbox_at(ped, t).heading}
        assert headings == ({0.0} if t <= 2000 else {math.pi / 2})


@st.composite
def single_segment_object(draw):
    xy = st.floats(-20.0, 20.0)
    vel = st.one_of(st.just([0.0, 0.0]), st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2))
    t0 = draw(st.integers(0, 800))
    doc = {"id": "obj", "kind": draw(st.sampled_from(["Pedestrian", "Vehicle"])),
           "size": [draw(st.floats(0.3, 5.0)), draw(st.floats(0.3, 2.5)), 1.5],
           "waypoints": [
               {"t_ms": t0, "p": [30.0 + draw(xy), draw(xy)], "v": draw(vel), "a": [0.0, 0.0]},
               {"t_ms": t0 + draw(st.integers(1, 1500)), "p": [30.0 + draw(xy), draw(xy)],
                "v": draw(vel), "a": [0.0, 0.0]}]}
    if draw(st.booleans()):
        doc["heading_override"] = draw(st.floats(-math.pi, math.pi))
    return doc


@settings(max_examples=25, deadline=None)
@given(obj=single_segment_object())
def test_unfaulted_perception_equals_substitute(obj):
    sc = scenario_from_dict(straight_road_doc(t_max_ms=1500, objects=[obj]))
    pairs = perception_vs_ideal(sc)
    assert pairs and all(seen == ideal for seen, ideal in pairs)


def test_ideal_perception_immune_to_fault():
    inst = INSTS["cs2_perc_miss"]
    sc = load_builtin_scenario("cs2")
    ideal = ideal_perception(sc, 6000, (40.0, 0.0))
    assert any(o.id == "lead" for o in ideal.objects)


def trajectory_of(out, obj_id):
    (tr,) = [tr for tr in out.trajectories if tr.id == obj_id]
    return tr


def test_ideal_prediction_reads_script():
    sc = load_builtin_scenario("cs1")
    ped = object_by_id(sc, "ped")
    out = ideal_prediction(sc, 2000)
    tr = trajectory_of(out, "ped")
    for t_q, x, y in tr.points:
        p, _, _ = object_pose_at(ped, t_q)
        assert (x, y) == pytest.approx(p)


def test_ideal_prediction_clamps_at_script_end():
    sc = load_builtin_scenario("cs1")
    ped = object_by_id(sc, "ped")
    t_end = ped.waypoints[-1].t
    out = ideal_prediction(sc, t_end - 1000)
    tr = trajectory_of(out, "ped")
    tail = [pt for pt in tr.points if pt[0] >= t_end]
    assert tail and all((x, y) == ped.waypoints[-1].p for _, x, y in tail)


def ideal_prediction_reference(scenario, t):
    """ideal_prediction's body from before static objects took one pass."""
    steps = PREDICTION_HORIZON_MS // PREDICTION_STEP_MS + 1
    trajs = []
    for obj in scenario.objects:
        box = bbox_at(obj, t)
        static = obj.is_static
        pts = [(t, *box.center)]
        for k in range(1, steps):
            tq = t + k * PREDICTION_STEP_MS
            p = box.center if static else object_pose_at(obj, tq)[0]
            pts.append((tq, p[0], p[1]))
        trajs.append(PredictedTrajectory(obj.id, obj.kind, box.half_extents,
                                         box.heading, tuple(pts)))
    return PredictionOut(tuple(trajs))


@st.composite
def scripted_objects(draw):
    """Objects of one to three waypoints: static ones (some at -0.0, some held
    over several waypoints) and moving ones."""
    coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-40.0, 40.0))
    docs = []
    for i in range(draw(st.integers(1, 4))):
        times = sorted(draw(st.sets(st.integers(0, 6000), min_size=1, max_size=3)))
        static = draw(st.booleans())
        p = [draw(coord), draw(coord)]
        wps = []
        for t in times:
            v = [draw(st.sampled_from([0.0, -0.0])), 0.0] if static else [draw(coord), draw(coord)]
            wps.append({"t_ms": t, "p": p if static else [draw(coord), draw(coord)], "v": v,
                        "a": [0.0, 0.0]})
        docs.append({"id": f"o{i}", "kind": "Vehicle", "size": [4.0, 2.0, 1.5],
                     "waypoints": wps})
    return docs


@settings(max_examples=200, deadline=None)
@given(objects=scripted_objects(), t=st.integers(0, 9000))
def test_ideal_prediction_equals_reference(objects, t):
    # Times up to 9 s run past every script's end; repr tells -0.0 from 0.0.
    sc = scenario_from_dict(straight_road_doc(t_max_ms=9000, objects=objects))
    assert repr(ideal_prediction(sc, t)) == repr(ideal_prediction_reference(sc, t))


def ideal_perception_reference(scenario, t, ego_p):
    """ideal_perception's body from before fixed objects kept their report."""
    objs = []
    for obj in scenario.objects:
        p, v, _ = object_pose_at(obj, t)
        dx, dy = p[0] - ego_p[0], p[1] - ego_p[1]
        if dx * dx + dy * dy <= SENSOR_RANGE * SENSOR_RANGE:
            objs.append(PerceivedObject(obj.id, obj.kind, object_box(obj, t, p, v), v))
    return PerceptionOut(tuple(objs))


@st.composite
def one_waypoint_objects(draw):
    """Objects with a single waypoint: at rest (some at -0.0, some with a heading
    override) or with a nonzero velocity, which they keep for good."""
    coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-70.0, 70.0))
    docs = []
    for i in range(draw(st.integers(1, 4))):
        moving = draw(st.booleans())
        v = ([draw(st.floats(-4.0, 4.0).filter(bool)), draw(coord)] if moving
             else [draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0]))])
        doc = {"id": f"o{i}", "kind": "Pedestrian" if moving else "StaticObstacle",
               "size": [draw(st.floats(0.3, 5.0)), draw(st.floats(0.3, 2.5)), 1.5],
               "waypoints": [{"t_ms": draw(st.integers(0, 6000)), "p": [draw(coord), draw(coord)],
                              "v": v, "a": [0.0, 0.0]}]}
        if draw(st.booleans()):
            doc["heading_override"] = draw(st.sampled_from([0.0, -0.0, math.pi / 3]))
        docs.append(doc)
    return docs


@settings(max_examples=200, deadline=None)
@given(objects=one_waypoint_objects(), times=st.lists(st.integers(0, 9000), min_size=1,
                                                      max_size=4),
       ego_p=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)))
def test_fixed_objects_report_what_each_tick_builds(objects, times, ego_p):
    # An object with one waypoint has one pose: the report its first use caches
    # is, to the sign of every zero, the one the per-tick path builds at any t.
    sc = scenario_from_dict(straight_road_doc(t_max_ms=9000, objects=objects))
    for t in times:
        assert (repr(ideal_perception(sc, t, ego_p))
                == repr(ideal_perception_reference(sc, t, ego_p)))
        assert repr(ideal_prediction(sc, t)) == repr(ideal_prediction_reference(sc, t))


def test_fixed_object_cache_belongs_to_its_scenario():
    # Two scenarios built one after the other, with the same object id and
    # different poses: each reports its own object, even when the first is gone
    # and its objects' memory is reused.
    def at(x):
        return scenario_from_dict(straight_road_doc(objects=[
            {"id": "box", "kind": "StaticObstacle", "size": [1.0, 1.0, 1.0],
             "waypoints": [{"t_ms": 0, "p": [x, 2.0], "v": [0.0, 0.0], "a": [0.0, 0.0]}]}]))

    first = at(30.0)
    assert ideal_perception(first, 0, (0.0, 0.0)).objects[0].box.center == (30.0, 2.0)
    assert ideal_prediction(first, 0).trajectories[0].points[0] == (0, 30.0, 2.0)
    del first
    gc.collect()
    for x in (40.0, 50.0):
        sc = at(x)
        assert ideal_perception(sc, 100, (0.0, 0.0)).objects[0].box.center == (x, 2.0)
        assert ideal_prediction(sc, 100).trajectories[0].points[-1] == (3100, x, 2.0)


def test_ideal_localization_exact():
    ego = EgoState((10.0, 1.0), 0.2, 7.5, -0.5, 1234)
    out = ideal_localization(ego)
    assert out.p == ego.p and out.heading == ego.heading and out.speed == ego.speed


def hold_plan():
    return PlanningOut((), "Stop", ())


def test_sim_control_follows_straight_line():
    pts = tuple(TrajPoint(k * 100, (k * 1.0, 0.0), 10.0, 0.0) for k in range(41))
    plan = PlanningOut(pts, "Cruise", ())
    fallback = EgoState((0.0, 0.0), 0.0, 10.0, 0.0, 0)
    for t in (0, 50, 1234, 4000):
        st = sim_control_apply(PlanTable(plan), t, fallback)
        assert st.p[0] == pytest.approx(t / 100.0, abs=1e-9)
        assert st.speed == 10.0


def test_sim_control_stop_profile_reaches_zero():
    pts = []
    v, x = 10.0, 0.0
    for k in range(41):
        pts.append(TrajPoint(k * 100, (x, 0.0), max(0.0, v), 0.0))
        x += max(0.0, v) * 0.1
        v -= 0.8
    plan = PlanningOut(tuple(pts), "Stop", ())
    fallback = EgoState((0.0, 0.0), 0.0, 10.0, 0.0, 0)
    st = sim_control_apply(PlanTable(plan), 4000, fallback)
    assert st.speed == 0.0
    mid = sim_control_apply(PlanTable(plan), 650, fallback)
    assert 0.0 < mid.speed < 10.0


def test_sim_control_empty_plan_freezes():
    fallback = EgoState((3.0, 4.0), 0.5, 8.0, 1.0, 777)
    st = sim_control_apply(PlanTable(hold_plan()), 1000, fallback)
    assert st.p == (3.0, 4.0)
    assert st.speed == 0.0


def sim_control_apply_reference(plan, t, fallback):
    """sim_control_apply from before it read a PlanTable: the point before t
    found by bisection over the point times."""
    if len(plan.trajectory) < 2:
        return EgoState(fallback.p, fallback.heading, 0.0, 0.0, t)
    traj = plan.trajectory
    if t <= traj[0].t:
        pt = traj[0]
        return EgoState(pt.p, pt.heading, pt.speed, 0.0, t)
    if t >= traj[-1].t:
        pt = traj[-1]
        return EgoState(pt.p, pt.heading, pt.speed, 0.0, t)
    lo = bisect_right(traj, t, key=attrgetter("t")) - 1
    a, b = traj[lo], traj[lo + 1]
    u = (t - a.t) / (b.t - a.t)
    p = (a.p[0] + (b.p[0] - a.p[0]) * u, a.p[1] + (b.p[1] - a.p[1]) * u)
    speed = a.speed + (b.speed - a.speed) * u
    accel = (b.speed - a.speed) / ((b.t - a.t) / 1000.0)
    heading = a.heading if u < 1.0 else b.heading
    return EgoState(p, heading, speed, accel, t)


def derived_control_reference(plan, ego_speed, t):
    """derived_control from before it read a PlanTable."""
    if len(plan.trajectory) < 2:
        return ControlOut(0.0, 0.0)
    nxt = sim_control_apply_reference(plan, t + 100, EgoState((0, 0), 0, 0, 0, t))
    accel = max(-8.0, min(3.0, (nxt.speed - ego_speed) / 0.1))
    return ControlOut(accel, 0.0)


ideal_coords = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), st.floats(-1e4, 1e4))


@st.composite
def grid_plans(draw):
    """A plan on the 100 ms grid from a drawn origin, as planning publishes:
    speeds repeat or jump, positions repeat or carry signed zeros."""
    t0 = draw(st.integers(0, 300)) * 100
    speeds = st.one_of(st.sampled_from([0.0, 5.0, 11.0]), st.floats(0.0, 20.0))
    pts = tuple(TrajPoint(t0 + k * PREDICTION_STEP_MS, (draw(ideal_coords), draw(ideal_coords)),
                          draw(speeds), draw(st.floats(-math.pi, math.pi)))
                for k in range(draw(st.integers(0, 31))))
    return PlanningOut(pts, "Cruise", ())


def ideal_control_equals_reference(plan, ego_speed):
    # Every ms from a step before the plan's first point to a step after its
    # last, as the ideal-control block and the substitute's report ask.
    table = PlanTable(plan)
    fallback = EgoState((3.0, -0.0), 0.5, 8.0, 1.0, 0)
    traj = plan.trajectory
    t0 = traj[0].t if traj else 0
    t1 = traj[-1].t if traj else 0
    for t in range(max(0, t0 - PREDICTION_STEP_MS), t1 + PREDICTION_STEP_MS + 1):
        assert repr(sim_control_apply(table, t, fallback)) == repr(
            sim_control_apply_reference(plan, t, fallback)), t
        assert repr(derived_control(table, ego_speed, t)) == repr(
            derived_control_reference(plan, ego_speed, t)), t


@settings(max_examples=60, deadline=None)
@given(plan=grid_plans(), ego_speed=st.floats(0.0, 20.0))
@example(plan=PlanningOut((TrajPoint(0, (-0.0, 0.0), 0.0, 0.0),
                           TrajPoint(100, (0.0, -0.0), 0.0, -0.0)), "Stop", ()), ego_speed=0.0)
def test_ideal_control_equals_the_bisection_on_the_grid(plan, ego_speed):
    ideal_control_equals_reference(plan, ego_speed)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(plan=grid_plans(), ego_speed=st.floats(0.0, 20.0))
def test_ideal_control_equals_the_bisection_on_the_grid_many(plan, ego_speed):
    ideal_control_equals_reference(plan, ego_speed)


@pytest.mark.parametrize("inst_id", ["cs1_plan_speed", "cs1_plan_none", "cs3_plan_path",
                                     "cs1_pred_none", "cs2_perc_vel"])
def test_published_plans_lie_on_the_grid(inst_id):
    # PlanTable finds the point before t by division: every plan an original run
    # publishes, faulted or not, has its points every PREDICTION_STEP_MS from the
    # planning time.
    inst = INSTS[inst_id]
    trace = rtest(load_builtin_scenario(inst.scenario), AdsConfig(faults=[inst.fault]),
                  OracleConfig()).trace
    rows = trace.rows[ComponentId.PLANNING]
    assert any(m.fault_affected for m in rows) == (inst.component is ComponentId.PLANNING)
    for m in rows:
        assert [pt.t for pt in m.payload.trajectory] == [
            m.t_pub + k * PREDICTION_STEP_MS for k in range(len(m.payload.trajectory))]


def test_substitution_plan_rejects_planning():
    with pytest.raises(ValueError):
        SubstitutionPlan({ComponentId.PLANNING: IdealAll()})
    with pytest.raises(ValueError):
        SubstitutionPlan({ComponentId.PLANNING: IdealFromState(3)})


def test_dtest_empty_plan_reproduces_violation():
    inst = INSTS["cs1_pred_none"]
    sc = load_builtin_scenario("cs1")
    ads = AdsConfig(faults=[inst.fault])
    assert not rtest(sc, ads, OracleConfig()).verdict.passed
    verdict, _ = run_with_substitution(sc, ads, SubstitutionPlan(), OracleConfig())
    assert not verdict.passed


def test_dtest_substituting_faulty_component_prevents_violation():
    inst = INSTS["cs1_pred_none"]
    sc = load_builtin_scenario("cs1")
    ads = AdsConfig(faults=[inst.fault])
    verdict, _ = run_with_substitution(
        sc, ads, SubstitutionPlan.ideal_all(ComponentId.PREDICTION), OracleConfig())
    assert verdict.passed


def test_dtest_substituting_downstream_component_keeps_violation():
    inst = INSTS["cs1_pred_none"]
    sc = load_builtin_scenario("cs1")
    ads = AdsConfig(faults=[inst.fault])
    for component in (ComponentId.CONTROL, ComponentId.LOCALIZATION):
        verdict, _ = run_with_substitution(
            sc, ads, SubstitutionPlan.ideal_all(component), OracleConfig())
        assert not verdict.passed


def test_dtest_combined_substitution_flips_nonplanning_fault():
    inst = INSTS["cs3_perc_miss"]
    sc = load_builtin_scenario("cs3")
    ads = AdsConfig(faults=[inst.fault])
    combined = SubstitutionPlan.ideal_all(
        ComponentId.PERCEPTION, ComponentId.PREDICTION,
        ComponentId.CONTROL, ComponentId.LOCALIZATION)
    assert run_with_substitution(sc, ads, combined, OracleConfig())[0].passed


def test_dtest_combined_substitution_keeps_planning_fault():
    inst = INSTS["cs5_plan_path"]
    sc = load_builtin_scenario("cs5")
    ads = AdsConfig(faults=[inst.fault])
    combined = SubstitutionPlan.ideal_all(
        ComponentId.PERCEPTION, ComponentId.PREDICTION,
        ComponentId.CONTROL, ComponentId.LOCALIZATION)
    assert not run_with_substitution(sc, ads, combined, OracleConfig())[0].passed
