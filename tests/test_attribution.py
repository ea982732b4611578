import gc
import math

import pytest

from causetrace import runner
from causetrace.attribution import (AttributionReport, DegenerateInput, DtestSession,
                                    MonotonicityViolation, NoViolatingPlanningMessage,
                                    NoViolation, Unattributable, attribute,
                                    attribute_component, attribute_interval_dd,
                                    attribute_message_nonplanning,
                                    attribute_message_planning,
                                    audit_suffix_monotonicity, build_verdict_matrix,
                                    tarantula_scores, verdict_matrix_csv)
from causetrace.benchmark import (load_benchmark, load_builtin_scenario,
                                  scenario_for_instance)
from causetrace.faults import FaultSpec, Trigger
from causetrace.middleware import Bus, ComponentId
from causetrace.oracles import OracleConfig
from causetrace.payloads import ControlOut
from causetrace.runner import AdsConfig, rtest
from causetrace.scenario import Waypoint, scenario_from_dict
from causetrace.substitutes import IdealFromState, IdealWithinStates, SubstitutionPlan
from conftest import straight_road_doc

INSTS = {i.id: i for i in load_benchmark()}


class StubSession:
    """Drives the search code with a scripted predicate instead of simulations."""

    def __init__(self, boundary: int, n: int):
        # Suffix substitution from state s prevents the violation iff s <= boundary.
        self.boundary = boundary
        self.n = n
        self.calls = 0
        self.tested: list = []

    def passed(self, plan: SubstitutionPlan) -> bool:
        self.calls += 1
        mode = next(iter(plan.modes.values()))
        if isinstance(mode, IdealFromState):
            self.tested.append(mode.index)
            return mode.index <= self.boundary
        if isinstance(mode, IdealWithinStates):
            self.tested.append((mode.a, mode.b))
            return mode.a <= self.boundary <= mode.b
        return False


def synthetic_trace(n_states: int, component=ComponentId.PERCEPTION, per_state=1):
    """A trace whose component messages map 1:1 onto synthetic states, 100 ms
    each; state s has the key (s, 0, 0, 0, 0, 0)."""
    bus = Bus()
    for s in range(1, n_states + 1):
        for k in range(per_state):
            msg = bus.publish(component, ControlOut(0, 0), (s - 1) * 100 + k * 10)
            msg.state_index = s
            msg.state_key = (s, 0, 0, 0, 0, 0)
    return bus.trace


@pytest.mark.parametrize("boundary", [1, 2, 17, 59, 64])
def test_binary_search_matches_stub_boundary(boundary):
    n = 64
    trace = synthetic_trace(n)
    session = StubSession(boundary, n)
    focus = attribute_message_nonplanning(session, trace, n, ComponentId.PERCEPTION)
    assert focus.state_index == boundary
    assert session.calls <= math.ceil(math.log2(n)) + 2


def test_binary_search_single_state_no_extra_dtests():
    trace = synthetic_trace(1, per_state=3)
    session = StubSession(1, 1)
    focus = attribute_message_nonplanning(session, trace, 1, ComponentId.PERCEPTION)
    assert session.calls == 0
    assert focus.seq == 3  # the sole state: its last message


def test_binary_search_takes_last_message_in_boundary_state():
    trace = synthetic_trace(8, per_state=4)
    session = StubSession(5, 8)
    focus = attribute_message_nonplanning(session, trace, 8, ComponentId.PERCEPTION)
    assert focus.state_index == 5
    in_state = [m for m in trace.rows[ComponentId.PERCEPTION] if m.state_index == 5]
    assert focus.seq == in_state[-1].seq


@pytest.mark.parametrize("n,boundary", [(2, 1), (3, 2), (100, 37), (500, 499), (500, 500)])
def test_binary_search_budget(n, boundary):
    trace = synthetic_trace(n)
    session = StubSession(boundary, n)
    focus = attribute_message_nonplanning(session, trace, n, ComponentId.PERCEPTION)
    assert focus.state_index == boundary
    assert session.calls <= math.ceil(math.log2(n)) + 2


def test_binary_search_equals_linear_scan_on_stub():
    n = 120
    for boundary in (1, 37, 60, 119, 120):
        trace = synthetic_trace(n)
        session = StubSession(boundary, n)
        focus = attribute_message_nonplanning(session, trace, n, ComponentId.PERCEPTION)
        lin = StubSession(boundary, n)
        monotone, lin_boundary, _ = audit_suffix_monotonicity(lin, trace,
                                                              ComponentId.PERCEPTION)
        assert monotone
        assert focus.state_index == lin_boundary == boundary


def test_audit_detects_non_monotone_predicate():
    n = 16
    trace = synthetic_trace(n)

    class Flaky(StubSession):
        def passed(self, plan):
            self.calls += 1
            mode = next(iter(plan.modes.values()))
            return mode.index in (1, 2, 3, 9)  # hole between 3 and 9

    monotone, _, outcomes = audit_suffix_monotonicity(Flaky(0, n), trace,
                                                      ComponentId.PERCEPTION)
    assert not monotone


class MessageSetSession:
    """A scripted predicate with the substitution's message-set semantics: the
    re-run passes iff the substitute replaces the decisive message."""

    def __init__(self, trace, component, decisive_seq):
        self.row = trace.rows[component]
        self.decisive_seq = decisive_seq
        self.calls = 0

    def passed(self, plan):
        self.calls += 1
        start = next(iter(plan.modes.values())).index
        return any(m.seq == self.decisive_seq for m in self.row if m.state_index >= start)


def sparse_trace(n_states, message_states, component=ComponentId.PERCEPTION):
    """A trace of n_states states; only `message_states` hold a component message."""
    trace = synthetic_trace(n_states, component)
    trace.rows[component] = [m for m in trace.rows[component]
                             if m.state_index in message_states]
    return trace


@pytest.mark.parametrize("decisive_state", [1, 4, 7, 11])
def test_audit_boundary_is_last_passing_message_state(decisive_state):
    # States 2, 3, 5, 6, 8-10 and 12 hold no message, so each predicate value
    # holds on (m, m'] between consecutive message states m < m'.
    trace = sparse_trace(12, {1, 4, 7, 11})
    decisive = next(m.seq for m in trace.rows[ComponentId.PERCEPTION]
                    if m.state_index == decisive_state)
    session = MessageSetSession(trace, ComponentId.PERCEPTION, decisive)
    focus = attribute_message_nonplanning(session, trace, 12, ComponentId.PERCEPTION)
    monotone, boundary, _ = audit_suffix_monotonicity(session, trace,
                                                      ComponentId.PERCEPTION)
    assert focus.seq == decisive
    assert monotone and boundary == focus.state_index == decisive_state


# --- interval delta debugging -------------------------------------------------


def test_interval_dd_four_state_walkthrough():
    session = StubSession(3, 4)
    got = attribute_interval_dd(session, 4, ComponentId.PERCEPTION)
    assert got == (3, 3)
    # The documented test sequence: leading pair, trailing pair, then state 3.
    assert session.tested == [(1, 2), (3, 4), (3, 3)]


def test_interval_dd_single_state_immediate():
    session = StubSession(1, 1)
    assert attribute_interval_dd(session, 1, ComponentId.PERCEPTION) == (1, 1)
    assert session.calls == 0


def test_interval_dd_agrees_with_binary_search_on_stub():
    n = 32
    for boundary in (5, 16, 27):
        a, b = attribute_interval_dd(StubSession(boundary, n), n, ComponentId.PERCEPTION)
        assert a <= boundary <= b


# --- tarantula ----------------------------------------------------------------


def test_tarantula_hand_matrix():
    passed = {"b2": 1, "b3": 1, "b4": 1}
    failed = {"b1": 1, "b2": 1, "b5": 1}
    scores = dict(tarantula_scores(passed, failed, total_passed=1, total_failed=1))
    assert scores["b1"] == pytest.approx(1.0, abs=1e-12)  # only in failed
    assert scores["b5"] == pytest.approx(1.0, abs=1e-12)
    assert scores["b2"] == pytest.approx(0.5, abs=1e-12)  # equal ratios
    assert scores["b3"] == pytest.approx(0.0, abs=1e-12)  # only in passed
    assert scores["b4"] == pytest.approx(0.0, abs=1e-12)


def test_tarantula_ranking_order_and_ties():
    ranked = tarantula_scores({"a": 1}, {"z": 1, "a": 1}, 1, 1)
    assert ranked[0][0] == "z" and ranked[0][1] == 1.0
    tied = tarantula_scores({}, {"x": 1, "y": 1}, 0, 2)
    assert [b for b, _ in tied] == ["x", "y"]  # ties break by block id


def test_tarantula_degenerate_input():
    with pytest.raises(DegenerateInput):
        tarantula_scores({}, {}, 0, 0)


# --- report assembly ----------------------------------------------------------


def test_verdict_matrix_exactly_one_fail():
    trace = synthetic_trace(6, per_state=2)
    focus = trace.rows[ComponentId.PERCEPTION][7]  # seq 8 of 12
    rows = build_verdict_matrix(trace, ComponentId.PERCEPTION, focus)
    labels = [r["label"] for r in rows]
    assert labels.count("x") == 1
    unresolved = [r for r in rows if r["label"] == "?"]
    assert all(r["component"] == "perception" and r["seq"] > 8 for r in unresolved)
    assert len(unresolved) == 4
    csv = verdict_matrix_csv(rows)
    assert csv.splitlines()[0] == "component,seq,t_pub,label"
    assert csv.count(",fail") == 1


def test_reduction_rate_formula():
    # 1 - 1/|M| with |M| = 200.
    assert 1.0 - 1.0 / 200 == pytest.approx(0.995)


def test_attribute_no_violation_raises():
    sc = scenario_from_dict(straight_road_doc(t_max_ms=20000))
    with pytest.raises(NoViolation):
        attribute(sc, AdsConfig(), OracleConfig())
    assert gc.isenabled()


def test_attribute_pauses_the_collector_for_every_run(monkeypatch):
    inst = INSTS["cs1_plan_none"]
    real_scheduler = runner.run_scheduler
    seen = []

    def scheduler(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_scheduler(*args, **kwargs)

    monkeypatch.setattr(runner, "run_scheduler", scheduler)
    assert gc.isenabled()
    attribute(scenario_for_instance(inst), AdsConfig(faults=[inst.fault]), OracleConfig())
    assert seen and not any(seen)
    assert gc.isenabled()


def test_attribute_leaves_a_paused_collector_paused():
    inst = INSTS["cs1_plan_none"]
    gc.disable()
    try:
        attribute(scenario_for_instance(inst), AdsConfig(faults=[inst.fault]), OracleConfig())
        assert not gc.isenabled()
        with pytest.raises(NoViolation):
            attribute(scenario_from_dict(straight_road_doc(t_max_ms=20000)), AdsConfig(),
                      OracleConfig())
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("inst_id", [
    i if i in ("cs1_pred_none", "cs5_loc_lat") else pytest.param(i, marks=pytest.mark.slow)
    for i in sorted(INSTS)])
def test_attribution_and_run_leave_no_cyclic_garbage(inst_id):
    # The premise of pausing the collector: nothing the runs allocate is freed
    # only by it, so a collection afterwards finds nothing.
    inst = INSTS[inst_id]
    sc = scenario_for_instance(inst)
    ads = AdsConfig(faults=[inst.fault])
    gc.collect()
    attribute(sc, ads, OracleConfig())
    assert gc.collect() == 0
    rtest(sc, ads, OracleConfig())
    assert gc.collect() == 0


def test_attribute_unattributable_on_two_component_fault():
    # Faults in two components at once: the combined substitution passes but
    # no single substitution does.
    sc = load_builtin_scenario("cs1")
    faults = [INSTS["cs1_perc_miss"].fault,
              FaultSpec(ComponentId.CONTROL, "wrong_longitudinal_command",
                        Trigger(t0=4000), magnitude={"offset": 6.0})]
    with pytest.raises(Unattributable) as exc:
        attribute(sc, AdsConfig(faults=faults), OracleConfig())
    outcomes = exc.value.outcomes
    assert outcomes["combined"] is True
    assert not any(outcomes[c] for c in ("perception", "prediction", "control",
                                         "localization"))


def test_attribute_planning_instance_two_simulations():
    inst = INSTS["cs1_plan_none"]
    sc = load_builtin_scenario("cs1")
    rep = attribute(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    assert rep.component_vi == "planning"
    assert rep.simulations_total == 2
    assert rep.dtest_message_level == 0
    assert rep.focus_fault_affected


def test_attribute_planning_scan_exhaustion():
    sc = load_builtin_scenario("cs1")
    res = rtest(sc, AdsConfig(), OracleConfig())
    with pytest.raises(NoViolatingPlanningMessage):
        attribute_message_planning(res.trace, sc, OracleConfig())


def test_attribute_prediction_instance_end_to_end():
    inst = INSTS["cs1_pred_wrong"]
    sc = load_builtin_scenario(inst.scenario)
    rep = attribute(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    assert rep.component_vi == "prediction"
    assert rep.focus_fault_affected
    assert rep.dtest_component_level <= 5
    n = rep.state_count
    assert rep.dtest_message_level <= math.ceil(math.log2(n)) + 2
    assert rep.reduction_rate == pytest.approx(1 - 1 / rep.message_total)


def test_attribute_interval_dd_strategy_on_real_instance():
    inst = INSTS["cs1_perc_miss"]
    sc = load_builtin_scenario(inst.scenario)
    binary = attribute(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    dd = attribute(sc, AdsConfig(faults=[inst.fault]), OracleConfig(),
                   strategy="interval-dd")
    assert dd.component_vi == "perception"
    assert dd.interval is not None
    a, b = dd.interval
    # With an always-active fault the minimal flipping interval is a suffix, so
    # the two strategies agree in that the interval covers the binary boundary.
    assert a <= binary.focus_state_index <= b
    assert dd.focus_fault_affected
    for rep in (binary, dd):
        assert rep.simulations_total == (1 + rep.dtest_component_level
                                         + rep.dtest_message_level)


@pytest.mark.parametrize("options, message", [
    ({"strategy": "interval-dd", "audit_monotonicity": True}, "needs strategy 'binary'"),
    ({"strategy": "bogus"}, "unknown strategy 'bogus'"),
])
def test_attribute_rejects_options_it_would_ignore(monkeypatch, options, message):
    from causetrace import attribution

    def no_run(*args, **kwargs):
        raise AssertionError("ran before rejecting the options")
    monkeypatch.setattr(attribution, "rtest", no_run)
    inst = INSTS["cs1_pred_none"]
    with pytest.raises(ValueError, match=message):
        attribute(load_builtin_scenario(inst.scenario), AdsConfig(faults=[inst.fault]),
                  OracleConfig(), **options)


@pytest.mark.parametrize("options", [
    {"strategy": "interval-dd", "audit_monotonicity": True},
    {"strategy": "bogus"},
])
def test_run_benchmark_rejects_options_before_any_instance(monkeypatch, options):
    from causetrace import benchmark

    def no_run(*args, **kwargs):
        raise AssertionError("ran an instance before rejecting the options")
    monkeypatch.setattr(benchmark, "run_instance", no_run)
    with pytest.raises(ValueError):
        benchmark.run_benchmark([INSTS["cs1_pred_none"], INSTS["cs5_loc_lat"]], **options)


def test_audit_on_planning_notes_that_it_did_not_run():
    # Planning is attributed by the message scan, which has no suffix predicate
    # to audit; the report says so, and nothing else changes.
    inst = INSTS["cs1_plan_none"]
    sc = load_builtin_scenario(inst.scenario)
    ads = AdsConfig(faults=[inst.fault])
    plain = attribute(sc, ads, OracleConfig())
    audited = attribute(sc, ads, OracleConfig(), audit_monotonicity=True)
    assert audited.component_vi == "planning" and audited.monotonicity_audit is None
    assert audited.notes == plain.notes + [
        "audit: not run, planning is attributed by the message scan"]
    skip = {"notes", "wall_time_s"}
    assert ({k: v for k, v in audited.to_dict().items() if k not in skip}
            == {k: v for k, v in plain.to_dict().items() if k not in skip})


def test_audit_reruns_count_at_message_level():
    inst = INSTS["cs4_perc_miss"]
    sc = scenario_for_instance(inst)
    plain = attribute(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    audited = attribute(sc, AdsConfig(faults=[inst.fault]), OracleConfig(),
                        audit_monotonicity=True)
    assert audited.monotonicity_audit
    assert (audited.focus_seq, audited.focus_state_index) == (plain.focus_seq,
                                                              plain.focus_state_index)
    assert audited.dtest_component_level == plain.dtest_component_level
    assert audited.dtest_message_level > plain.dtest_message_level
    assert audited.simulations_total == (1 + audited.dtest_component_level
                                         + audited.dtest_message_level)


def test_bench_row_carries_rerun_cost():
    # The re-run cost that the report's to_dict leaves out reaches the bench row.
    from causetrace.benchmark import run_instance

    inst = INSTS["cs1_perc_lat"]
    report = attribute(scenario_for_instance(inst), AdsConfig(faults=[inst.fault]),
                       OracleConfig())
    row = run_instance(inst)
    fields = ("rerun_stepped_ms", "rerun_prefix_decided", "rerun_merged",
              "rerun_fast_forwarded")
    assert {k: row[k] for k in fields} == {k: getattr(report, k) for k in fields}
    assert all(row[k] > 0 for k in fields)
    assert not any(k.startswith("rerun_") for k in report.to_dict())
