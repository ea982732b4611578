"""Forked, early-stopped re-runs against the same re-runs simulated from t=0.

A re-run given the original trace resumes from the original run's checkpoint
at the state where its substitute first publishes something the original did
not, and stops at its first safe-distance or speeding violation, where it
merges into an earlier re-run at a frame sample, or where it has come to rest
in a still world. Each one must reach the verdict of the same plan simulated
from t=0 to the end, and its ego log must be the start of that run's log,
sample for sample.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from causetrace import attribution, runner
from causetrace.attribution import DtestSession
from causetrace.benchmark import load_benchmark, load_builtin_scenario
from causetrace.faults import apply_planning_faults, fault_from_dict
from causetrace.geometry import vec_dist
from causetrace.middleware import ComponentId, Trace
from causetrace.oracles import MISSION, OracleConfig
from causetrace.payloads import PerceptionOut, PlanningOut, TrajPoint
from causetrace.runner import AdsConfig, rtest, run_with_substitution
from causetrace.scenario import Waypoint, scenario_from_dict
from causetrace.substitutes import (IdealAll, IdealFromState, IdealWithinStates,
                                    SubstitutionPlan, ideal_perception, quantize_state,
                                    split_trace)
from causetrace.world import EgoState
from conftest import static_object, straight_road_doc

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
INSTS = {i.id: i for i in load_benchmark()}
NON_PLANNING = sorted(i.id for i in INSTS.values() if i.component is not ComponentId.PLANNING)
# Every attribution's golden re-runs; interval-dd searches the non-planning ones.
ALL_STRATEGIES = ([(i, "binary") for i in sorted(INSTS)]
                  + [(i, "interval-dd") for i in NON_PLANNING])


def _original(inst_id: str):
    inst = INSTS[inst_id]
    scenario = load_builtin_scenario(inst.scenario)
    ads = AdsConfig(faults=[inst.fault])
    return inst, scenario, ads, rtest(scenario, ads, OracleConfig())


def golden_reruns(inst_id: str) -> list[tuple[SubstitutionPlan, bool]]:
    """The re-runs recorded in tests/golden.json for one instance, in order: each
    plan and whether it passed."""
    reruns = []
    for components, mode, where, passed in GOLDEN[inst_id]["reruns"]:
        m = (IdealAll() if mode == "ideal_all" else IdealFromState(where)
             if mode == "ideal_from_state" else IdealWithinStates(*where))
        reruns.append((SubstitutionPlan({ComponentId(c): m for c in components.split("+")}),
                       passed))
    return reruns


def audit_states(trace, component: ComponentId) -> list[int]:
    """States carrying a message of the component, plus state 1: the set
    `audit_suffix_monotonicity` scans."""
    return sorted({m.state_index for m in trace.rows[component]} | {1})


def assert_fork_matches_full_run(inst_id: str, stride: int = 1,
                                extra: tuple[SubstitutionPlan, ...] = ()) -> int:
    """Every `stride`-th audit state's suffix plan, the golden plans and `extra`,
    each forked and from t=0; returns the number of plans compared."""
    inst, scenario, ads, original = _original(inst_id)
    oracles = OracleConfig()
    split_trace(original.trace, ads.units)
    plans = [SubstitutionPlan({inst.component: IdealFromState(k)})
             for k in audit_states(original.trace, inst.component)[::stride]]
    plans += [plan for plan, _ in golden_reruns(inst_id)] + list(extra)
    seen: list[SubstitutionPlan] = []
    for plan in plans:
        if plan in seen:
            continue
        seen.append(plan)
        forked, ftrace = run_with_substitution(scenario, ads, plan, oracles,
                                               origin=original.trace)
        full, full_trace = run_with_substitution(scenario, ads, plan, oracles)
        assert forked.passed == full.passed, plan
        n = len(ftrace.ego_log)
        assert 0 < n <= len(full_trace.ego_log), plan
        assert ftrace.ego_log == full_trace.ego_log[:n], plan
    return len(seen)


def test_fork_matches_full_run_prediction():
    assert assert_fork_matches_full_run(
        "cs1_pred_none", stride=12,
        extra=(SubstitutionPlan({ComponentId.PREDICTION: IdealWithinStates(150, 200)}),)) > 10


def test_fork_matches_full_run_control_switch():
    # The control substitute moves the ego along the plan (sim_control_apply) from
    # its first active state on, so the forked run changes ego model mid-run.
    assert assert_fork_matches_full_run("cs5_ctrl_lat", stride=50) > 10


@pytest.mark.slow
@pytest.mark.parametrize("inst_id", NON_PLANNING)
def test_fork_matches_full_run_all(inst_id):
    assert_fork_matches_full_run(inst_id)


def test_start_at_or_below_state_one_resumes_from_t0():
    # State indices start at 1, so a plan active from state 0 or below is active
    # from t=0 and must resume from the first checkpoint, not index from the end.
    inst, scenario, ads, original = _original("cs1_pred_none")
    oracles = OracleConfig()
    for mode in (IdealFromState(0), IdealFromState(-3), IdealWithinStates(0, 40)):
        plan = SubstitutionPlan({inst.component: mode})
        forked, ftrace = run_with_substitution(scenario, ads, plan, oracles,
                                               origin=original.trace)
        full, full_trace = run_with_substitution(scenario, ads, plan, oracles)
        assert ftrace.forked_at == 0, mode
        assert forked.passed == full.passed, mode
        assert ftrace.ego_log == full_trace.ego_log[:len(ftrace.ego_log)], mode


def _no_stepping(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the re-run was simulated")
    monkeypatch.setattr(runner, "run_scheduler", fail)


def test_plan_past_last_checkpoint_is_the_original(monkeypatch):
    # The ego is still accelerating at t_max, and here the closing sample, which
    # the scheduler appends without observing, has another key than the last
    # state. It opens no state: no component fires there.
    scenario = scenario_from_dict(straight_road_doc(t_max_ms=2020))
    ads, oracles = AdsConfig(), OracleConfig()
    original = rtest(scenario, ads, oracles)
    cps = original.trace.checkpoints
    closing = original.ego_log[-1]
    assert closing.t == scenario.t_max
    assert quantize_state(closing.p, closing.v, closing.a, ads.units) != cps[-1].key
    assert split_trace(original.trace, ads.units) == cps
    _no_stepping(monkeypatch)
    plan = SubstitutionPlan({ComponentId.PERCEPTION: IdealFromState(len(cps) + 1)})
    verdict, trace = run_with_substitution(scenario, ads, plan, oracles,
                                           origin=original.trace)
    assert verdict == original.verdict
    assert not verdict.passed  # the destination is out of reach in 2 s
    assert trace.ego_log == original.ego_log
    assert trace.forked_at == trace.ego_log[-1].t


def test_violation_before_checkpoint_decides_without_stepping(monkeypatch):
    inst, scenario, ads, original = _original("cs4_perc_bbox")
    first = next(v for v in original.verdict.violations if v["kind"] != MISSION)
    k = next(k for k, cp in enumerate(original.trace.checkpoints, 1) if cp.t >= first["t"])
    _no_stepping(monkeypatch)
    plan = SubstitutionPlan({inst.component: IdealFromState(k)})
    verdict, trace = run_with_substitution(scenario, ads, plan, OracleConfig(),
                                           origin=original.trace)
    assert not verdict.passed
    assert verdict.violations == [first]
    # The tracer reads the last sample; the log runs through the violating one.
    assert trace.ego_log[-1].t == first["t"] == trace.forked_at
    assert trace.ego_log == original.ego_log[:len(trace.ego_log)]
    assert all(m.t_pub < first["t"] for row in trace.rows.values() for m in row)


def test_whole_run_rerun_stops_at_first_violation(monkeypatch):
    # Ideal control does not remove the prediction fault: the re-run, forked at
    # t=0 because the control substitute moves the ego by another model, fails.
    _, scenario, ads, original = _original("cs1_pred_none")
    plan = SubstitutionPlan({ComponentId.CONTROL: IdealAll()})
    oracles = OracleConfig()
    full, full_trace = run_with_substitution(scenario, ads, plan, oracles)
    forked, ftrace = run_with_substitution(scenario, ads, plan, oracles,
                                           origin=original.trace)
    assert forked.passed is full.passed is False
    first = next(v for v in full.violations if v["kind"] != MISSION)
    assert forked.violations == [first]
    assert ftrace.ego_log[-1].t == first["t"] < full_trace.ego_log[-1].t
    assert ftrace.forked_at == 0
    # Unfaulted perception publishes what its substitute would, all run long: the
    # whole-run perception re-run is the original, decided at its first violation.
    first = next(v for v in original.verdict.violations if v["kind"] != MISSION)
    _no_stepping(monkeypatch)
    plan = SubstitutionPlan({ComponentId.PERCEPTION: IdealAll()})
    verdict, trace = run_with_substitution(scenario, ads, plan, oracles,
                                           origin=original.trace)
    assert verdict.violations == [first]
    assert trace.ego_log[-1].t == first["t"] == trace.forked_at
    assert trace.ego_log == original.ego_log[:len(trace.ego_log)]


def test_signed_zero_counts_as_a_difference():
    # The substitute's output and a payload equal to it but for the sign of a zero
    # compare equal with ==, yet a later atan2 or copysign could tell them apart.
    scenario = scenario_from_dict(straight_road_doc(objects=[static_object()]))
    original = rtest(scenario, AdsConfig(), OracleConfig())
    msg = next(m for m in original.trace.rows[ComponentId.PERCEPTION] if m.payload.objects)
    ideal = ideal_perception(scenario, msg.t_pub,
                             original.ego_log[msg.t_pub // runner.SAMPLE_MS].p)
    assert not msg.fault_affected and repr(msg.payload) == repr(ideal)
    assert not runner._differs(scenario, original.trace, msg)
    (obj,) = ideal.objects
    assert obj.v == (0.0, 0.0)
    signed = PerceptionOut((replace(obj, v=(-0.0, 0.0)),))
    assert signed == ideal and repr(signed) != repr(ideal)
    assert runner._differs(scenario, original.trace, replace(msg, payload=signed))


def test_fault_affected_localization_counts_as_a_difference():
    # The trace cannot recompute the substitute's localization, so a message
    # differs exactly when a fault moved it.
    _, scenario, _, original = _original("cs5_loc_lat")
    row = original.trace.rows[ComponentId.LOCALIZATION]
    first = next(m for m in row if m.fault_affected)
    assert not any(runner._differs(scenario, original.trace, m)
                   for m in row if m.t_pub < first.t_pub)
    assert runner._differs(scenario, original.trace, first)
    plan = SubstitutionPlan({ComponentId.LOCALIZATION: IdealAll()})
    fork = runner._fork(scenario, plan, original.trace)
    cps = original.trace.checkpoints
    assert cps[fork - 1].t <= first.t_pub and (fork == len(cps) or first.t_pub < cps[fork].t)


def test_same_fork_merges_at_its_first_frame_sample():
    # The perception fault first changes an output at some state f > 2, so a
    # suffix plan from state 2 forks where the whole-run plan does, with
    # perception ideal from there on: it has that re-run's future, and reaches
    # its frame state at the first frame sample at or after the fork.
    inst, scenario, ads, original = _original("cs3_perc_long")
    oracles = OracleConfig()
    memo = runner.ForkMemo()
    whole = SubstitutionPlan({inst.component: IdealAll()})
    verdict, trace = run_with_substitution(scenario, ads, whole, oracles,
                                           origin=original.trace, memo=memo)
    fork = runner._fork(scenario, whole, original.trace)
    assert fork > 2 and trace.forked_at == original.trace.checkpoints[fork - 1].t > 0
    assert trace.ego_log[-1].t > trace.forked_at + runner.FRAME_MS  # simulated
    assert memo.merges == 0
    suffix = SubstitutionPlan({inst.component: IdealFromState(2)})
    assert runner._fork(scenario, suffix, original.trace) == fork
    shared, strace = run_with_substitution(scenario, ads, suffix, oracles,
                                           origin=original.trace, memo=memo)
    assert shared == verdict and memo.merges == 1
    assert strace.forked_at == trace.forked_at
    assert strace.ego_log[-1].t - strace.forked_at < runner.FRAME_MS
    assert strace.ego_log[-1].t % runner.FRAME_MS == 0
    assert strace.ego_log == trace.ego_log[:len(strace.ego_log)]


def test_open_window_merges_into_the_same_fork():
    # Two perception windows that open at or before the fork and close at state
    # 300, long after it, have the same future from the fork on. The second
    # merges into the first at its first frame sample, with its window still
    # open, and takes a verdict that the window's end decides: the whole-run
    # substitute passes.
    inst, scenario, ads, original = _original("cs3_perc_long")
    oracles = OracleConfig()
    cps = original.trace.checkpoints
    memo = runner.ForkMemo()
    first, second = (SubstitutionPlan({inst.component: IdealWithinStates(a, 300)})
                     for a in (1, 2))
    fork = runner._fork(scenario, first, original.trace)
    assert runner._fork(scenario, second, original.trace) == fork and 2 < fork < 300
    run_with_substitution(scenario, ads, first, oracles, origin=original.trace, memo=memo)
    assert memo.merges == 0
    verdict, trace = run_with_substitution(scenario, ads, second, oracles,
                                           origin=original.trace, memo=memo)
    assert memo.merges == 1
    assert trace.forked_at == cps[fork - 1].t
    assert trace.ego_log[-1].t - trace.forked_at < runner.FRAME_MS
    assert trace.ego_log[-1].t < cps[300].t  # state 301 starts there
    full, full_trace = run_with_substitution(scenario, ads, second, oracles)
    decisive = [v for v in full.violations if v["kind"] != MISSION] or full.violations
    assert not verdict.passed and verdict.violations == decisive[:1]
    assert trace.ego_log == full_trace.ego_log[:len(trace.ego_log)]
    assert run_with_substitution(scenario, ads, SubstitutionPlan({inst.component: IdealAll()}),
                                 oracles)[0].passed


def assert_frame_stops_match_full_runs(inst_id: str, strategy: str = "binary",
                                       counter: str = "merges") -> int:
    """Run one attribution's re-runs through one DtestSession, as `attribute`
    does: the golden plan sequence, each with its recorded pass/fail, or the
    interval-dd search. Check every re-run that stopped at a frame, by merging
    into an earlier one (`counter="merges"`) or by fast-forwarding at rest
    (`counter="fast_forwards"`), against the same plan simulated from t=0.
    Returns the number of such re-runs."""
    inst, scenario, ads, original = _original(inst_id)
    oracles = OracleConfig()
    session = DtestSession(scenario, ads, oracles, original.trace)
    merged = []
    real = attribution.run_with_substitution

    def recording(*args, **kwargs):
        before = getattr(session.memo, counter)
        verdict, trace = real(*args, **kwargs)
        if getattr(session.memo, counter) > before:
            merged.append((args[2], verdict, trace))
        return verdict, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attribution, "run_with_substitution", recording)
        if strategy == "binary":
            for plan, passed in golden_reruns(inst_id):
                assert session.passed(plan) is passed, plan
        else:
            n = len(split_trace(original.trace, ads.units))
            attribution.attribute_interval_dd(session, n, inst.component)
    assert len(merged) == getattr(session.memo, counter)
    for plan, verdict, trace in merged:
        full, full_trace = run_with_substitution(scenario, ads, plan, oracles)
        assert verdict.passed == full.passed, plan
        # A re-run that stops at its first violating sample reports the first
        # safe-distance or speeding violation, else the mission violation, with
        # the time of the full run's last sample.
        decisive = [v for v in full.violations if v["kind"] != MISSION] or full.violations
        assert verdict.violations == decisive[:1], plan
        n = len(trace.ego_log)
        assert trace.ego_log[-1].t % runner.FRAME_MS == 0, plan
        assert trace.ego_log == full_trace.ego_log[:n], plan
    return len(merged)


@pytest.mark.parametrize("inst_id, strategy", [("cs1_perc_lat", "binary"),
                                               ("cs4b_ctrl_long", "binary"),
                                               ("cs3_perc_miss", "interval-dd")])
def test_merge_matches_full_run(inst_id, strategy):
    # interval-dd windows end, after which the re-runs merge as well.
    assert assert_frame_stops_match_full_runs(inst_id, strategy) > 0


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["binary", "interval-dd"])
@pytest.mark.parametrize("inst_id", NON_PLANNING)
def test_merge_matches_full_run_all(inst_id, strategy):
    assert_frame_stops_match_full_runs(inst_id, strategy)


@pytest.mark.parametrize("inst_id", ["cs1_ctrl_long", "cs3_perc_lat",
                                     # the component-level IdealAll re-run
                                     "cs5_plan_none"])
def test_fast_forward_matches_full_run(inst_id):
    assert assert_frame_stops_match_full_runs(inst_id, counter="fast_forwards") > 0


@pytest.mark.slow
@pytest.mark.parametrize("inst_id, strategy", ALL_STRATEGIES)
def test_fast_forward_matches_full_run_all(inst_id, strategy):
    assert_frame_stops_match_full_runs(inst_id, strategy, counter="fast_forwards")


# --- fast-forward mutations ---------------------------------------------------
# On a straight road, ideal control drives the ego to rest short of the
# destination at about 9.3 s; from there nothing changes to t_max. Each mutation
# below changes the world after the ego has come to rest, and the ego drives on
# to the destination: a re-run that fast-forwarded at its first rest would
# report the mission as failed.

REST_AT = 9000  # the ego has come to rest by then in every case below
CHANGE_AT = 12000


def resting_rerun(objects=(), faults=(), signals=None, t_max_ms=30000,
                  oracles=OracleConfig()):
    """The ideal-control re-run on the straight road, forked from the original
    run, and the same plan from t=0: (scenario, memo, verdict, trace, full
    verdict, full trace). The forked ego log is checked to be a prefix."""
    scenario = scenario_from_dict(straight_road_doc(t_max_ms=t_max_ms, dest_x=60.0,
                                                    objects=list(objects), signals=signals))
    ads = AdsConfig(faults=[fault_from_dict(f) for f in faults])
    original = rtest(scenario, ads, oracles)
    plan = SubstitutionPlan({ComponentId.CONTROL: IdealAll()})
    memo = runner.ForkMemo()
    verdict, trace = run_with_substitution(scenario, ads, plan, oracles,
                                           origin=original.trace, memo=memo)
    full, full_trace = run_with_substitution(scenario, ads, plan, oracles)
    assert verdict == full
    assert trace.ego_log == full_trace.ego_log[:len(trace.ego_log)]
    return scenario, memo, verdict, trace, full, full_trace


def test_resting_rerun_fast_forwards():
    scenario, memo, verdict, trace, full, full_trace = resting_rerun()
    assert memo.fast_forwards == 1 and verdict.passed
    assert trace.ego_log[-1].t < REST_AT + 1000 < full_trace.ego_log[-1].t == scenario.t_max
    # The planner stops 1.2 m short of the destination, outside a 1 m tolerance:
    # the closing sample's mission violation, at the time of the full run's last
    # sample, whether or not t_max falls on a sample.
    for t_max in (20000, 20005):
        scenario, memo, verdict, trace, full, full_trace = resting_rerun(
            t_max_ms=t_max, oracles=OracleConfig(dest_tolerance=1.0))
        assert memo.fast_forwards == 1 and trace.ego_log[-1].t < REST_AT + 1000
        assert not verdict.passed
        assert verdict.violations[0]["t"] == full_trace.ego_log[-1].t == 20000


def test_resting_verdict_reads_the_closing_sample_phase():
    # A log whose samples repeat with period FRAME_MS: each phase of the period
    # has its own position, and only phase 50 lies at the destination (120, 0).
    t = 10000
    log = [Waypoint((120.0 + 10.0 * ((s % runner.FRAME_MS) // 10 - 5), 0.0),
                    (0.0, 0.0), (0.0, 0.0), s) for s in range(0, t + 1, runner.SAMPLE_MS)]
    trace = Trace({}, log)
    for t_max, passed in ((20050, True), (20055, True), (20000, False), (20040, False)):
        scenario = scenario_from_dict(straight_road_doc(t_max_ms=t_max))
        verdict = runner._resting_verdict(scenario, trace, t, OracleConfig())
        assert verdict.passed is passed, t_max
        if not passed:
            assert verdict.violations == [{"kind": MISSION, "t": t_max - t_max % 10,
                                           "detail": "destination not reached"}]


LEAVING_CAR = {"id": "car", "kind": "Vehicle", "size": [4.4, 1.8, 1.5],
               "waypoints": [{"t_ms": 0, "p": [40.0, 0.0], "v": [0, 0], "a": [0, 0]},
                             {"t_ms": CHANGE_AT, "p": [40.0, 0.0], "v": [0, 0], "a": [0, 0]},
                             {"t_ms": CHANGE_AT + 5000, "p": [190.0, 0.0], "v": [30.0, 0],
                              "a": [0, 0]}]}
PLANNING_HOLD = {"target": "planning", "kind": "no_planning_trajectory",
                 "trigger": {"t0_ms": 2000, "t1_ms": CHANGE_AT}}
RED_UNTIL = {"id": "sig", "stop_line": [30.0, 0.0],
             "phases": [{"color": "Red", "t_start_ms": 0, "t_end_ms": CHANGE_AT},
                        {"color": "Green", "t_start_ms": CHANGE_AT, "t_end_ms": 30000}]}


@pytest.mark.parametrize("case, still", [
    # the car blocking the lane drives off, and reaches its last waypoint later
    pytest.param({"objects": [LEAVING_CAR]}, CHANGE_AT + 5000, id="object"),
    # the planner publishes empty trajectories until then
    pytest.param({"faults": [PLANNING_HOLD]}, CHANGE_AT, id="fault-window"),
    # the light turns green
    pytest.param({"signals": [RED_UNTIL]}, CHANGE_AT, id="signal"),
])
def test_late_world_change_defers_fast_forward(case, still):
    scenario, memo, verdict, trace, full, full_trace = resting_rerun(**case)
    log = full_trace.ego_log
    rest = log[REST_AT // runner.SAMPLE_MS]
    # At rest well before the change, short of the destination...
    assert all(w.p == rest.p and w.v == (0.0, 0.0)
               for w in log[REST_AT // runner.SAMPLE_MS:CHANGE_AT // runner.SAMPLE_MS])
    assert vec_dist(rest.p, scenario.a_dest) > OracleConfig().dest_tolerance
    # ...which only the time of the change ends.
    faults = [fault_from_dict(f) for f in case.get("faults", ())]
    assert runner.still_from(scenario, faults) == still
    assert full.passed and verdict.passed
    assert trace.ego_log[-1].t > CHANGE_AT


def test_ramp_fault_leaves_fast_forward_on():
    # The ramp of an incorrect path plan runs from the trajectory's first point,
    # not from any clock: the same plan published later is the same plan shifted.
    raw = {"target": "planning", "kind": "incorrect_path_planning",
           "magnitude": {"lateral_bias": 0.6, "ramp_ms": 1500}}
    fault = fault_from_dict(raw)
    traj = tuple(TrajPoint(4000 + 100 * k, (10.0 + k, 0.5), 3.0, 0.1 * k) for k in range(31))
    out, changed = apply_planning_faults(PlanningOut(traj, "Cruise", ()), [fault], 4000,
                                         (10.0, 0.5))
    shifted = tuple(TrajPoint(pt.t + 700, pt.p, pt.speed, pt.heading) for pt in traj)
    later, _ = apply_planning_faults(PlanningOut(shifted, "Cruise", ()), [fault], 4700,
                                     (10.0, 0.5))
    assert changed and [(pt.p, pt.heading) for pt in later.trajectory] == [
        (pt.p, pt.heading) for pt in out.trajectory]
    # Ideal control moves the ego along the biased plan even at zero speed, so a
    # ramp active at rest leaves no fixed point; here it acts on the way, in a
    # region the ego leaves before resting.
    ramp = dict(raw, trigger={"region": {"center": [30.0, 0.0], "radius": 10.0}})
    scenario, memo, verdict, trace, full, full_trace = resting_rerun(faults=[ramp])
    assert any(m.fault_affected for m in trace.rows[ComponentId.PLANNING])
    assert runner.still_from(scenario, [fault_from_dict(ramp)]) == 0
    assert memo.fast_forwards == 1 and verdict.passed
    assert trace.ego_log[-1].t < REST_AT + 1000


def test_signed_zero_makes_another_frame_state():
    ego = EgoState(p=(5.0, 0.0), heading=0.0, speed=3.0, accel=0.0, t=100)
    windows = {ComponentId.PERCEPTION: (3, 9)}
    key = runner.frame_state(100, windows, 4, ego, 0.0)
    assert key == runner.frame_state(100, windows, 4, replace(ego), 0.0)
    assert -0.0 == 0.0  # so a key of the floats themselves would not tell them apart
    for other in (runner.frame_state(100, windows, 4, ego, -0.0),
                  runner.frame_state(100, windows, 4, replace(ego, heading=-0.0), 0.0),
                  runner.frame_state(100, windows, 4, replace(ego, p=(5.0, -0.0)), 0.0)):
        assert other != key


def test_frame_state_holds_the_window_relative_to_the_index():
    ego = EgoState(p=(5.0, 0.0), heading=0.0, speed=3.0, accel=0.0, t=100)
    key = runner.frame_state(100, {ComponentId.PERCEPTION: (3, 9)}, 4, ego, 0.0)
    # The same ego, with the window closing at another state from here...
    assert key != runner.frame_state(100, {ComponentId.PERCEPTION: (3, 10)}, 4, ego, 0.0)
    # ...or opening later, is another future; the same window seen from another
    # state index, or opened at another state before it, is the same one.
    assert key != runner.frame_state(100, {ComponentId.PERCEPTION: (5, 9)}, 4, ego, 0.0)
    assert key == runner.frame_state(100, {ComponentId.PERCEPTION: (8, 14)}, 9, ego, 0.0)
    assert key == runner.frame_state(100, {ComponentId.PERCEPTION: (1, 9)}, 4, ego, 0.0)
    # A window that has ended is no part of the future.
    assert (runner.frame_state(100, {ComponentId.PERCEPTION: (1, 3)}, 4, ego, 0.0)
            == runner.frame_state(100, {}, 4, ego, 0.0))
