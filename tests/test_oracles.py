import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetrace.benchmark import load_benchmark, load_builtin_scenario
from causetrace.oracles import (MISSION, OracleConfig, PlanningCheckContext,
                                SampleMonitor, check_mission, check_safe_distance,
                                check_speeding, evaluate, planning_message_violates)
from causetrace.payloads import PlanningOut, TrajPoint
from causetrace.pipeline import make_planner_context
from causetrace.runner import AdsConfig, rtest
from causetrace.scenario import Waypoint, scenario_from_dict
from conftest import static_object, straight_road_doc

INSTS = {i.id: i for i in load_benchmark()}


def ego_log_straight(speed=10.0, n=50, y=0.0, t0=0):
    return [Waypoint((5.0 + speed * k * 0.01, y), (speed, 0.0), (0.0, 0.0),
                     t0 + k * 10) for k in range(n)]


def test_safe_distance_none_when_far():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(150.0, 0.0))]))
    assert check_safe_distance(ego_log_straight(), sc, 0.3) is None


def test_safe_distance_contact_matches_early_stop():
    inst = INSTS["cs1_perc_miss"]
    sc = load_builtin_scenario("cs1")
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    hit = check_safe_distance(res.ego_log, sc, 0.3)
    assert hit is not None
    t, obj_id, dist, detail = hit
    assert obj_id == "ped"
    # The run early-stops at contact; the first sub-threshold sample is just before.
    assert res.ego_log[-1].t - t <= 50
    contact = [d for d in res.trace.diagnostics if d.startswith("contact")]
    assert contact and f"t={res.ego_log[-1].t}" in contact[0]


def test_safe_distance_near_miss_non_contact():
    # Closest approach ~0.25 m: a hazardous-closeness violation without contact.
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 1.4))]))
    log = ego_log_straight(speed=10.0, n=600)
    hit = check_safe_distance(log, sc, 0.3)
    assert hit is not None
    t, obj_id, dist, detail = hit
    assert 0.2 < dist < 0.3
    assert check_safe_distance(log, sc, 0.2) is None


def test_safe_distance_rear_approach_detail():
    sc = scenario_from_dict(straight_road_doc(objects=[{
        "id": "tail", "kind": "Vehicle", "size": [4.4, 1.8, 1.5],
        "waypoints": [
            {"t_ms": 0, "p": [-10.0, 0.0], "v": [20.0, 0.0], "a": [0, 0]},
            {"t_ms": 3000, "p": [50.0, 0.0], "v": [20.0, 0.0], "a": [0, 0]},
        ]}]))
    log = [Waypoint((5.0 + 1.0 * k * 0.01, 0.0), (1.0, 0.0), (0.0, 0.0), k * 10)
           for k in range(300)]
    hit = check_safe_distance(log, sc, 0.3)
    assert hit is not None
    assert hit[3] == "rear-approach"


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


def map_of(sc):
    return sc.map


def test_speeding_none_below_limit():
    sc = scenario_from_dict(straight_road_doc())
    assert check_speeding(ego_log_straight(speed=10.9), sc.map, 0.5) is None


def test_speeding_reports_earliest_sample():
    sc = scenario_from_dict(straight_road_doc())
    log = ego_log_straight(speed=10.0, n=10) + [
        Waypoint((50.0 + 13.0 * k * 0.01, 0.0), (13.0, 0.0), (0.0, 0.0), 6000 + k * 10)
        for k in range(10)]
    hit = check_speeding(log, sc.map, 0.5)
    assert hit == (6000, pytest.approx(13.0), 11.0)


def test_speeding_within_tolerance():
    sc = scenario_from_dict(straight_road_doc())
    assert check_speeding(ego_log_straight(speed=11.4), sc.map, 0.5) is None


def test_speeding_skips_off_lane_samples():
    sc = scenario_from_dict(straight_road_doc(lanes=1))
    log = ego_log_straight(speed=15.0, y=30.0)
    assert check_speeding(log, sc.map, 0.5) is None


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
        check_safe_distance(log, sc, cfg.safe_distance_c) is None,
        check_mission(log, sc.a_dest, cfg.dest_tolerance),
        check_speeding(log, sc.map, cfg.speed_tolerance) is None,
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


@settings(max_examples=30, deadline=None)
@given(c1=st.floats(0.05, 1.0), c2=st.floats(0.05, 1.0))
def test_safe_distance_monotone_in_c(c1, c2):
    if c1 > c2:
        c1, c2 = c2, c1
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 2.3))]))
    log = ego_log_straight(n=600)
    if check_safe_distance(log, sc, c1) is not None:
        assert check_safe_distance(log, sc, c2) is not None


# --- per-message planning checks ---------------------------------------------


def check_ctx(sc, ego_p=(5.0, 0.0), held_ms=0):
    return PlanningCheckContext(
        scenario=sc, planner_ctx=make_planner_context(sc), config=OracleConfig(),
        ego_p=ego_p, held_duration_ms=held_ms)


def cruise_traj(x0=5.0, speed=10.0, n=31):
    return tuple(TrajPoint(k * 100, (x0 + speed * k * 0.1, 0.0), speed, 0.0)
                 for k in range(n))


def test_clean_cruise_message_ok():
    sc = scenario_from_dict(straight_road_doc())
    plan = PlanningOut(cruise_traj(), "Cruise", ("cruise",))
    assert not planning_message_violates(plan, 0, check_ctx(sc))


def test_trajectory_through_obstacle_flagged():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(20.0, 0.0))]))
    plan = PlanningOut(cruise_traj(), "Cruise", ("cruise",))
    assert planning_message_violates(plan, 0, check_ctx(sc))


def test_overspeed_trajectory_flagged():
    sc = scenario_from_dict(straight_road_doc())
    plan = PlanningOut(cruise_traj(speed=13.0), "Cruise", ("cruise",))
    assert planning_message_violates(plan, 0, check_ctx(sc))


def test_stall_needs_persistence_and_clear_road():
    sc = scenario_from_dict(straight_road_doc())
    held = PlanningOut((TrajPoint(0, (5.0, 0.0), 0.0, 0.0),
                        TrajPoint(100, (5.0, 0.0), 0.0, 0.0)), "Stop", ())
    assert not planning_message_violates(held, 0, check_ctx(sc, held_ms=0))
    assert planning_message_violates(held, 4000, check_ctx(sc, held_ms=4000))


def test_stall_justified_by_blocking_object():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(20.0, 0.0))]))
    held = PlanningOut((TrajPoint(0, (5.0, 0.0), 0.0, 0.0),
                        TrajPoint(100, (5.0, 0.0), 0.0, 0.0)), "Stop", ())
    assert not planning_message_violates(held, 4000, check_ctx(sc, held_ms=4000))


def test_stall_not_flagged_at_destination():
    sc = scenario_from_dict(straight_road_doc())
    held = PlanningOut((TrajPoint(0, (119.5, 0.0), 0.0, 0.0),
                        TrajPoint(100, (119.5, 0.0), 0.0, 0.0)), "Stop", ())
    assert not planning_message_violates(held, 9000,
                                         check_ctx(sc, ego_p=(119.5, 0.0), held_ms=9000))


def test_message_check_is_pure():
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(20.0, 0.0))]))
    plan = PlanningOut(cruise_traj(), "Cruise", ("cruise",))
    ctx = check_ctx(sc)
    results = {planning_message_violates(plan, 0, ctx) for _ in range(5)}
    assert results == {True}
