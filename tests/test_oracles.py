import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetrace.benchmark import load_benchmark, load_builtin_scenario
from causetrace.geometry import OrientedBox
from causetrace.oracles import (MISSION, SAFE_DISTANCE, SPEEDING, OracleConfig,
                                SampleMonitor, check_mission, circle_hits, safe_distance_at,
                                evaluate, planning_message_violates,
                                safe_distance_objects, speeding_at)
from causetrace.payloads import PlanningOut, TrajPoint
from causetrace.pipeline import make_planner_context
from causetrace.runner import AdsConfig, rtest
from causetrace.scenario import Waypoint, scenario_from_dict
from conftest import static_object, straight_road_doc

INSTS = {i.id: i for i in load_benchmark()}


def ego_log_straight(speed=10.0, n=50, y=0.0, t0=0):
    return [Waypoint((5.0 + speed * k * 0.01, y), (speed, 0.0), (0.0, 0.0),
                     t0 + k * 10) for k in range(n)]


def only(kind, log, sc, **config):
    """The violation `evaluate` reports with only `kind` enabled, or None."""
    verdict = evaluate(log, sc, OracleConfig(enabled=(kind,), **config))
    assert len(verdict.violations) <= 1
    return verdict.violations[0] if verdict.violations else None


def close_hit(log, sc, c):
    return only(SAFE_DISTANCE, log, sc, safe_distance_c=c)


def speeding_hit(log, sc, tolerance):
    return only(SPEEDING, log, sc, speed_tolerance=tolerance)


def test_safe_distance_none_when_far():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(150.0, 0.0))]))
    assert close_hit(ego_log_straight(), sc, 0.3) is None


def test_safe_distance_contact_matches_early_stop():
    inst = INSTS["cs1_perc_miss"]
    sc = load_builtin_scenario("cs1")
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    hit = close_hit(res.ego_log, sc, 0.3)
    assert hit is not None
    t, obj_id = hit["t"], hit["object_id"]
    assert obj_id == "ped"
    # The run early-stops at contact; the first sub-threshold sample is just before.
    assert res.ego_log[-1].t - t <= 50
    contact = [d for d in res.trace.diagnostics if d.startswith("contact")]
    assert contact and f"t={res.ego_log[-1].t}" in contact[0]


def test_safe_distance_near_miss_non_contact():
    # Closest approach ~0.25 m: a hazardous-closeness violation without contact.
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 1.4))]))
    log = ego_log_straight(speed=10.0, n=600)
    hit = close_hit(log, sc, 0.3)
    assert hit is not None
    assert 0.2 < hit["distance"] < 0.3
    assert close_hit(log, sc, 0.2) is None


def test_safe_distance_rear_approach_detail():
    sc = scenario_from_dict(straight_road_doc(objects=[{
        "id": "tail", "kind": "Vehicle", "size": [4.4, 1.8, 1.5],
        "waypoints": [
            {"t_ms": 0, "p": [-10.0, 0.0], "v": [20.0, 0.0], "a": [0, 0]},
            {"t_ms": 3000, "p": [50.0, 0.0], "v": [20.0, 0.0], "a": [0, 0]},
        ]}]))
    log = [Waypoint((5.0 + 1.0 * k * 0.01, 0.0), (1.0, 0.0), (0.0, 0.0), k * 10)
           for k in range(300)]
    hit = close_hit(log, sc, 0.3)
    assert hit is not None
    assert hit["detail"] == "rear-approach"


def test_mission_exact_and_boundary():
    dest = (120.0, 0.0)
    log = [Waypoint(dest, (0.0, 0.0), (0.0, 0.0), 0)]
    assert check_mission(log, dest, 2.0)
    log = [Waypoint((118.1, 0.0), (0.0, 0.0), (0.0, 0.0), 0)]
    assert check_mission(log, dest, 2.0)  # 1.9 m away, inside the boundary
    log = [Waypoint((117.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0)]
    assert not check_mission(log, dest, 2.0)


def test_mission_fails_when_frozen():
    inst = INSTS["cs1_plan_none"]
    sc = load_builtin_scenario("cs1")
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    assert not check_mission(res.ego_log, sc.a_dest, 2.0)


@settings(max_examples=200, deadline=None)
@given(limits=st.tuples(st.floats(0.05, 30.0), st.floats(0.05, 30.0)),
       tolerance=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), data=st.data())
def test_speeding_floor_skips_only_samples_that_cannot_speed(limits, tolerance, data):
    # Around the lowest limit plus tolerance, on either lane or off both, the
    # monitor flags a sample exactly when the speeding rule does.
    doc = straight_road_doc()
    for lane, limit in zip(doc["map"]["lanes"], limits):
        lane["speed_limit"] = limit
    sc = scenario_from_dict(doc)
    floor = min(limit + tolerance for limit in limits)
    near = st.sampled_from([floor, math.nextafter(floor, math.inf),
                            math.nextafter(floor, 0.0), max(limits) + tolerance,
                            math.nextafter(max(limits) + tolerance, math.inf)])
    config = OracleConfig(enabled=(SPEEDING,), speed_tolerance=tolerance)
    for _ in range(6):
        speed = data.draw(st.one_of(near, st.floats(0.0, 35.0)))
        y = data.draw(st.sampled_from([0.0, 3.5, 20.0]))
        w = Waypoint((50.0, y), (speed, 0.0), (0.0, 0.0), 0)
        monitor = SampleMonitor(sc, config, 0.0)
        assert monitor.violated(w) == (speeding_at(w.p, speed, sc.map, tolerance) is not None)


@pytest.mark.parametrize("limit, speed", [(0.3, 0.45), (0.4, 0.5)])
def test_speeding_on_slow_lanes(limit, speed):
    # However slow the lane, a sample or a planned point over its limit is
    # speeding, in the run oracle and in the planning check alike.
    doc = straight_road_doc()
    for lane in doc["map"]["lanes"]:
        lane["speed_limit"] = limit
    sc = scenario_from_dict(doc)
    hit = speeding_hit(ego_log_straight(speed=speed), sc, 0.0)
    assert (hit["t"], hit["speed"], hit["limit"]) == (0, speed, limit)
    plan = PlanningOut(cruise_traj(speed=speed), "Cruise", ("cruise",))
    oracles = OracleConfig(speed_tolerance=0.0)
    assert planning_message_violates(plan, 0, sc, make_planner_context(sc), oracles,
                                     safe_distance_objects(sc, oracles), (5.0, 0.0), 0)


def test_speeding_none_below_limit():
    sc = scenario_from_dict(straight_road_doc())
    assert speeding_hit(ego_log_straight(speed=10.9), sc, 0.5) is None


def test_speeding_reports_earliest_sample():
    sc = scenario_from_dict(straight_road_doc())
    log = ego_log_straight(speed=10.0, n=10) + [
        Waypoint((50.0 + 13.0 * k * 0.01, 0.0), (13.0, 0.0), (0.0, 0.0), 6000 + k * 10)
        for k in range(10)]
    hit = speeding_hit(log, sc, 0.5)
    assert (hit["t"], hit["speed"], hit["limit"]) == (6000, pytest.approx(13.0), 11.0)


def test_speeding_within_tolerance():
    sc = scenario_from_dict(straight_road_doc())
    assert speeding_hit(ego_log_straight(speed=11.4), sc, 0.5) is None


def test_speeding_skips_off_lane_samples():
    sc = scenario_from_dict(straight_road_doc(lanes=1))
    log = ego_log_straight(speed=15.0, y=30.0)
    assert speeding_hit(log, sc, 0.5) is None


def test_evaluate_passes_clean_run():
    sc = scenario_from_dict(straight_road_doc())
    log = ego_log_straight(n=20) + [
        Waypoint((120.0, 0.0), (0.0, 0.0), (0.0, 0.0), 5000)]
    verdict = evaluate(log, sc, OracleConfig())
    assert verdict.passed and verdict.violations == []


def test_evaluate_single_safe_distance_entry():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 0.0))]))
    log = ego_log_straight(n=600) + [
        Waypoint((120.0, 0.0), (0.0, 0.0), (0.0, 0.0), 99990)]
    verdict = evaluate(log, sc, OracleConfig())
    kinds = [v["kind"] for v in verdict.violations]
    assert not verdict.passed and kinds == ["safe_distance"]


def test_evaluate_compound_sorted_by_time():
    sc = scenario_from_dict(straight_road_doc())
    log = (ego_log_straight(speed=13.0, n=20)
           + [Waypoint((60.0, 0.0), (0.0, 0.0), (0.0, 0.0), 20000)])
    verdict = evaluate(log, sc, OracleConfig())
    kinds = [v["kind"] for v in verdict.violations]
    assert kinds == ["speeding", "mission"]
    ts = [v["t"] for v in verdict.violations]
    assert ts == sorted(ts)


def test_evaluate_equals_conjunction_of_checks():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 0.0))]))
    log = ego_log_straight(n=600)
    cfg = OracleConfig()
    verdict = evaluate(log, sc, cfg)
    parts = [
        close_hit(log, sc, cfg.safe_distance_c) is None,
        check_mission(log, sc.a_dest, cfg.dest_tolerance),
        speeding_hit(log, sc, cfg.speed_tolerance) is None,
    ]
    assert verdict.passed == all(parts)


def first_online_violation(log, sc, cfg):
    monitor = SampleMonitor(sc, cfg, sc.a_init[1])
    for w in log:
        if monitor.violated(w):
            return monitor.violation
    return None


@pytest.mark.parametrize("inst_id", ["cs1_pred_none", "cs5_ctrl_lat", "cs1_plan_speed",
                                     "cs1_plan_none"])
def test_sample_monitor_agrees_with_evaluate(inst_id):
    inst = INSTS[inst_id]
    sc = load_builtin_scenario(inst.scenario)
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    expected = next((v for v in res.verdict.violations if v["kind"] != MISSION), None)
    assert first_online_violation(res.ego_log, sc, OracleConfig()) == expected


def test_sample_monitor_reports_only_enabled_kinds():
    # The ego speeds from the first sample and later passes an object too closely.
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 1.4))]))
    log = ego_log_straight(speed=13.0, n=600)
    verdict = evaluate(log, sc, OracleConfig())
    assert [v["kind"] for v in verdict.violations] == ["speeding", "safe_distance", "mission"]
    assert first_online_violation(log, sc, OracleConfig()) == verdict.violations[0]
    only_close = OracleConfig(enabled=("safe_distance",))
    assert first_online_violation(log, sc, only_close) == verdict.violations[1]
    assert first_online_violation(log, sc, OracleConfig(enabled=(MISSION,))) is None
    # Fed on, the monitor keeps the first violation of each kind.
    monitor = SampleMonitor(sc, OracleConfig(), sc.a_init[1])
    firsts = [w.t for w in log if monitor.violated(w)]
    assert firsts == [v["t"] for v in verdict.violations[:2]]
    assert list(monitor.first.values()) == verdict.violations[:2]


def test_evaluate_tie_order_on_last_sample():
    # The last sample is too close to the object, over the limit and short of
    # the destination; ties keep the order safe distance, mission, speeding.
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 0.0))]))
    log = ego_log_straight(n=20) + [
        Waypoint((47.4, 0.0), (13.0, 0.0), (0.0, 0.0), 5000)]
    verdict = evaluate(log, sc, OracleConfig())
    assert [v["kind"] for v in verdict.violations] == ["safe_distance", "mission",
                                                        "speeding"]
    assert {v["t"] for v in verdict.violations} == {5000}


@settings(max_examples=30, deadline=None)
@given(c1=st.floats(0.05, 1.0), c2=st.floats(0.05, 1.0))
def test_safe_distance_monotone_in_c(c1, c2):
    if c1 > c2:
        c1, c2 = c2, c1
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 2.3))]))
    log = ego_log_straight(n=600)
    if close_hit(log, sc, c1) is not None:
        assert close_hit(log, sc, c2) is not None


# --- per-message planning checks ---------------------------------------------


def check_args(sc, ego_p=(5.0, 0.0), held_ms=0):
    """The arguments of `planning_message_violates` after the plan and its time."""
    oracles = OracleConfig()
    return (sc, make_planner_context(sc), oracles, safe_distance_objects(sc, oracles),
            ego_p, held_ms)


def cruise_traj(x0=5.0, speed=10.0, n=31):
    return tuple(TrajPoint(k * 100, (x0 + speed * k * 0.1, 0.0), speed, 0.0)
                 for k in range(n))


def test_clean_cruise_message_ok():
    sc = scenario_from_dict(straight_road_doc())
    plan = PlanningOut(cruise_traj(), "Cruise", ("cruise",))
    assert not planning_message_violates(plan, 0, *check_args(sc))


def test_trajectory_through_obstacle_flagged():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(20.0, 0.0))]))
    plan = PlanningOut(cruise_traj(), "Cruise", ("cruise",))
    assert planning_message_violates(plan, 0, *check_args(sc))


def test_overspeed_trajectory_flagged():
    sc = scenario_from_dict(straight_road_doc())
    plan = PlanningOut(cruise_traj(speed=13.0), "Cruise", ("cruise",))
    assert planning_message_violates(plan, 0, *check_args(sc))


def test_stall_needs_persistence_and_clear_road():
    sc = scenario_from_dict(straight_road_doc())
    held = PlanningOut((TrajPoint(0, (5.0, 0.0), 0.0, 0.0),
                        TrajPoint(100, (5.0, 0.0), 0.0, 0.0)), "Stop", ())
    assert not planning_message_violates(held, 0, *check_args(sc, held_ms=0))
    assert planning_message_violates(held, 4000, *check_args(sc, held_ms=4000))


def test_stall_justified_by_blocking_object():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(20.0, 0.0))]))
    held = PlanningOut((TrajPoint(0, (5.0, 0.0), 0.0, 0.0),
                        TrajPoint(100, (5.0, 0.0), 0.0, 0.0)), "Stop", ())
    assert not planning_message_violates(held, 4000, *check_args(sc, held_ms=4000))


def test_stall_not_flagged_at_destination():
    sc = scenario_from_dict(straight_road_doc())
    held = PlanningOut((TrajPoint(0, (119.5, 0.0), 0.0, 0.0),
                        TrajPoint(100, (119.5, 0.0), 0.0, 0.0)), "Stop", ())
    assert not planning_message_violates(held, 9000,
                                         *check_args(sc, ego_p=(119.5, 0.0), held_ms=9000))


def test_message_check_is_pure():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(20.0, 0.0))]))
    plan = PlanningOut(cruise_traj(), "Cruise", ("cruise",))
    args = check_args(sc)
    results = {planning_message_violates(plan, 0, *args) for _ in range(5)}
    assert results == {True}


def test_scan_objects_start_again_at_each_message():
    # One set of object trackers serves a whole planning scan, and point times
    # fall back at each message: a later message must find the turning car where
    # fresh trackers would, whatever an earlier message asked.
    car = {"id": "car", "kind": "Vehicle", "size": [4.4, 1.8, 1.5],
           "waypoints": [{"t_ms": 0, "p": [30.0, 3.5], "v": [5.0, 0.0], "a": [0, 0]},
                         {"t_ms": 2500, "p": [42.5, 3.5], "v": [0.0, 2.6], "a": [0, 0]},
                         {"t_ms": 5000, "p": [42.5, 10.0], "v": [0.0, 2.6], "a": [0, 0]}]}
    sc = scenario_from_dict(straight_road_doc(objects=[car]))
    late = PlanningOut((TrajPoint(4000, (5.0, 0.0), 0.0, 0.0),), "Stop", ())
    early = PlanningOut((TrajPoint(1000, (35.0, 3.5), 0.0, 0.0),), "Stop", ())
    args = check_args(sc)
    assert not planning_message_violates(late, 4000, *args)
    assert planning_message_violates(early, 1000, *args)
    assert planning_message_violates(early, 1000, *check_args(sc))


def passing_scenario(heading):
    doc = straight_road_doc(objects=[
        static_object(p=(50.0, 0.5)),
        {"id": "car", "kind": "Vehicle", "size": [4.4, 1.8, 1.5],
         "waypoints": [{"t_ms": 0, "p": [30.0, 3.5], "v": [5.0, 0.0], "a": [0, 0]},
                       {"t_ms": 5000, "p": [55.0, 3.5], "v": [5.0, 0.0], "a": [0, 0]}]}])
    doc["ego"]["init_pose"][2] = heading  # the heading a standing ego carries
    return scenario_from_dict(doc)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(40.0, 60.0), y=st.floats(-2.0, 6.0),
       heading=st.floats(-math.pi, math.pi), t=st.integers(0, 5000))
def test_planned_pose_flagged_iff_ego_sample_is(x, y, heading, t):
    sc = passing_scenario(heading)
    pose = PlanningOut((TrajPoint(t, (x, y), 0.0, heading),), "Cruise", ())
    sample = [Waypoint((x, y), (0.0, 0.0), (0.0, 0.0), t)]
    flagged = planning_message_violates(pose, t, *check_args(sc))
    assert flagged == (close_hit(sample, sc, 0.3) is not None)


class BoxSpy:
    """A tracker in ObjectTracker's shape, centred at one drawn point, that
    records each t it is asked for a box at: safe_distance_at asks exactly where
    its circle test passes."""

    def __init__(self, x, y, radius):
        self.obj, self.radius, self.fixed = SimpleNamespace(id="spy"), radius, None
        self.centre, self.asked = (x, y), []

    def center_at(self, t):
        return self.centre

    def box_at(self, t):
        self.asked.append(t)
        return OrientedBox(self.centre, (100.0, 100.0), 0.0)  # far from clear


signed = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(-20.0, 20.0))


@settings(max_examples=300, deadline=None)
@given(poses=st.lists(st.tuples(signed, signed), min_size=1, max_size=31),
       centres=st.lists(st.tuples(signed, signed), min_size=31, max_size=31),
       radius=st.floats(0.0, 3.0), c=st.sampled_from([0.0, 0.3, 0.75]))
def test_circle_hits_is_the_circle_test_of_safe_distance_at(poses, centres, radius, c):
    # The planner asks safe_distance_at only at the poses circle_hits returns:
    # the two must draw the same circle, to the bit.
    ego_r = math.hypot(2.3, 0.95)
    pts = tuple(TrajPoint(k * 100, p, 0.0, 0.0) for k, p in enumerate(poses))
    table = [(k * 100, x, y) for k, (x, y) in enumerate(centres)]
    asked = []
    for pt, (_, x, y) in zip(pts, table):
        spy = BoxSpy(x, y, radius)
        safe_distance_at(pt, 0.0, (2.3, 0.95), ego_r, [spy], c)
        asked += [pt.t // 100 for _ in spy.asked]
    assert circle_hits(pts, table, ego_r, radius, c) == asked
