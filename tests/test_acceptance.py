"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live. The
full benchmark (42 instances) runs once as a module fixture with 4 workers;
most criteria read off its rows.
"""

from __future__ import annotations

import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import causetrace.benchmark as bench_mod
from causetrace.attribution import (DtestSession, attribute,
                                    attribute_interval_dd,
                                    attribute_message_nonplanning,
                                    audit_suffix_monotonicity, tarantula_scores)
from causetrace.benchmark import (ARCHETYPE, load_benchmark, load_builtin_scenario,
                                  run_benchmark, scenario_path)
from causetrace.cli import main as cli_main
from causetrace.faults import FAULT_KINDS
from causetrace.geometry import OrientedBox, min_obb_distance
from causetrace.middleware import ComponentId
from causetrace.oracles import SAFE_DISTANCE, SPEEDING, OracleConfig, check_mission, evaluate
from causetrace.runner import AdsConfig, rtest
from causetrace.scenario import Waypoint, scenario_from_dict
from causetrace.substitutes import (IdealFromState, QuantizationUnits,
                                    SubstitutionPlan, split_trace)
from conftest import static_object, straight_road_doc

INSTANCES = load_benchmark()
BY_ID = {i.id: i for i in INSTANCES}
NONPLANNING = ("perception", "prediction", "control", "localization")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def bench_results():
    t0 = time.perf_counter()
    summary = run_benchmark(INSTANCES, parallel=4)
    summary["wall_total_s"] = time.perf_counter() - t0
    return summary


def test_criterion_1_benchmark_reproduction(bench_results):
    rows = bench_results["rows"]
    kinds_present = {BY_ID[r["id"]].fault.kind for r in rows}
    per_component = {c: sum(1 for r in rows if r["expected_component"] == c)
                     for c in ("perception", "prediction", "planning", "control",
                               "localization")}
    archetypes = {ARCHETYPE[r["scenario"]] for r in rows}
    comp_rate = bench_results["overall"]["component_success_rate"]
    wall = bench_results["wall_total_s"]
    ok = (kinds_present == set(FAULT_KINDS)
          and all(n >= 4 for n in per_component.values())
          and archetypes == {"CS1", "CS2", "CS3", "CS4", "CS5"}
          and len(rows) == 42
          and comp_rate == 1.0
          and wall < 600.0)
    report("criterion-1", ok,
           f"42 instances, all 13 fault kinds, components>={min(per_component.values())}, "
           f"5 archetypes, component-level success {comp_rate:.0%}, "
           f"benchmark wall {wall:.0f}s (<600s, parallel 4)")
    assert kinds_present == set(FAULT_KINDS)
    assert all(n >= 4 for n in per_component.values())
    assert archetypes == {"CS1", "CS2", "CS3", "CS4", "CS5"}
    assert comp_rate == 1.0
    assert wall < 600.0


def test_criterion_2_message_level_success(bench_results):
    rows = bench_results["rows"]
    overall = bench_results["overall"]["message_success_rate"]
    by_comp = {c: [r for r in rows if r["expected_component"] == c]
               for c in ("perception", "prediction", "planning", "control",
                         "localization")}
    rates = {c: sum(r["message_success"] for r in rs) / len(rs)
             for c, rs in by_comp.items()}
    control_misses_near = all(r["message_success"] or r.get("miss_within_1s")
                              for r in by_comp["control"])
    ok = (overall >= 0.90
          and all(rates[c] == 1.0 for c in ("perception", "prediction", "planning",
                                            "localization"))
          and rates["control"] >= 0.80 and control_misses_near)
    report("criterion-2", ok,
           f"message-level overall {overall:.0%}; "
           + ", ".join(f"{c}={rates[c]:.0%}" for c in rates)
           + "; control misses within 1s: yes" if control_misses_near else "; no")
    assert overall >= 0.90
    for c in ("perception", "prediction", "planning", "localization"):
        assert rates[c] == 1.0, c
    assert rates["control"] >= 0.80
    assert control_misses_near


def test_criterion_3_reduction_rate(bench_results):
    rows = [r for r in bench_results["rows"] if r.get("message_success")]
    ok = True
    for r in rows:
        exact = 1.0 - 1.0 / r["message_total"]
        if abs(r["reduction_rate"] - exact) > 1e-15:
            ok = False
        if r["message_total"] < 600 or r["reduction_rate"] < 0.998:
            ok = False
    min_m = min(r["message_total"] for r in rows)
    min_rate = min(r["reduction_rate"] for r in rows)
    report("criterion-3", ok,
           f"reduction 1-1/|M| exact on {len(rows)} successful attributions; "
           f"min |M|={min_m}, min rate={min_rate:.6f} (>=0.998)")
    assert ok


def test_bench_rows_carry_rerun_cost(bench_results):
    # What the re-runs of the 42 attributions stepped, and how many were decided
    # without stepping to their end, summed over the bench rows.
    rows = bench_results["rows"]
    totals = {k: sum(r[k] for r in rows) for k in (
        "rerun_stepped_ms", "rerun_prefix_decided", "rerun_merged", "rerun_fast_forwarded")}
    ok = totals == {"rerun_stepped_ms": 3_510_810, "rerun_prefix_decided": 75,
                    "rerun_merged": 97, "rerun_fast_forwarded": 49}
    report("rerun-cost", ok, f"bench row totals {totals}")
    assert ok


def test_criterion_4_dtest_budget(bench_results):
    rows = bench_results["rows"]
    ok = True
    for r in rows:
        if r["dtest_component_level"] > 5:
            ok = False
        if r["expected_component"] == "planning":
            if r["simulations_total"] != 2 or r["dtest_message_level"] != 0:
                ok = False
        else:
            budget = math.ceil(math.log2(r["state_count"])) + 2
            if r["dtest_message_level"] > budget:
                ok = False
    worst = max(r["dtest_message_level"] for r in rows)
    report("criterion-4", ok,
           f"component-level <=5 re-runs; planning instances exactly 2 simulations; "
           f"message-level search max {worst} <= ceil(log2 n)+2")
    assert ok


def test_criterion_5_determinism(tmp_path):
    inst = BY_ID["cs2_perc_miss"]
    fpath = tmp_path / "fault.json"
    fpath.write_text(json.dumps({"faults": [inst.fault.to_dict()]}), encoding="utf-8")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(["run", str(scenario_path("cs2")), "--fault", str(fpath),
                         "--out-dir", str(out)])
        assert code == 1
        outs.append((out / "trace.jsonl").read_bytes())
    ok = outs[0] == outs[1]
    import hashlib
    digest = hashlib.sha256(outs[0]).hexdigest()[:16]
    report("criterion-5", ok, f"two cmd_run invocations byte-identical "
                              f"(sha256 {digest}..., {len(outs[0])} bytes)")
    assert ok


def test_criterion_6_oracle_property_suite():
    # Safe-distance monotonicity in c.
    sc = scenario_from_dict(straight_road_doc(objects=[static_object(p=(50.0, 1.4))]))
    log = [Waypoint((5.0 + 10.0 * k * 0.01, 0.0), (10.0, 0.0), (0.0, 0.0), k * 10)
           for k in range(600)]
    mono_ok = True
    cs = [0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.8]
    hits = [not evaluate(log, sc, OracleConfig(enabled=(SAFE_DISTANCE,),
                                               safe_distance_c=c)).passed for c in cs]
    for a, b in zip(hits, hits[1:]):
        if a and not b:
            mono_ok = False

    # Exact box distance against the 10k boundary-sampling oracle.
    from test_geometry import sampled_distance
    rng = random.Random(7)
    sample_ok = True
    for _ in range(100):
        a = OrientedBox((rng.uniform(-5, 5), rng.uniform(-5, 5)),
                        (rng.uniform(0.25, 1.5), rng.uniform(0.25, 1.5)),
                        rng.uniform(0, math.tau))
        b = OrientedBox((rng.uniform(-5, 5), rng.uniform(-5, 5)),
                        (rng.uniform(0.25, 1.5), rng.uniform(0.25, 1.5)),
                        rng.uniform(0, math.tau))
        exact = min_obb_distance(a, b)
        if exact > 0.0:
            if not (-1e-9 <= sampled_distance(a, b) - exact < 1e-3):
                sample_ok = False

    # Speeding / mission trivial and boundary cases.
    sm_ok = (check_mission([Waypoint((120.0, 0.0), (0, 0), (0, 0), 0)], (120.0, 0.0), 2.0)
             and check_mission([Waypoint((118.1, 0.0), (0, 0), (0, 0), 0)], (120.0, 0.0), 2.0)
             and not check_mission([Waypoint((90.0, 0.0), (0, 0), (0, 0), 0)], (120.0, 0.0), 2.0))
    road = scenario_from_dict(straight_road_doc())
    fast = [Waypoint((50.0 + 13.0 * k * 0.01, 0.0), (13.0, 0.0), (0.0, 0.0), k * 10)
            for k in range(5)]
    slow = [Waypoint((50.0 + 11.4 * k * 0.01, 0.0), (11.4, 0.0), (0.0, 0.0), k * 10)
            for k in range(5)]
    speeding = OracleConfig(enabled=(SPEEDING,), speed_tolerance=0.5)
    sm_ok = (sm_ok and not evaluate(fast, road, speeding).passed
             and evaluate(slow, road, speeding).passed)

    ok = mono_ok and sample_ok and sm_ok
    report("criterion-6", ok,
           "safe-distance monotone in c; box distance within 1e-3 of 10k-point "
           "sampling oracle on 100 pairs; speeding/mission boundary cases hold")
    assert mono_ok and sample_ok and sm_ok


AUDIT_SUBSET = ["cs1_perc_miss", "cs1_pred_none", "cs1_ctrl_long", "cs5_loc_lat3"]


def _audit_job(args):
    inst_id, index = args
    inst = BY_ID[inst_id]
    scenario = bench_mod.scenario_for_instance(inst)
    ads = AdsConfig(faults=[inst.fault])
    from causetrace.runner import run_with_substitution
    plan = SubstitutionPlan({inst.component: IdealFromState(index)})
    verdict, _ = run_with_substitution(scenario, ads, plan, OracleConfig())
    return index, verdict.passed


def _exhaustive_scan(inst_id: str):
    """Parallel full suffix scan; equivalent to dtest at every state because the
    predicate is constant on each (m, m'] between consecutive states m, m' with
    messages of the component. Returns the last passing message state."""
    inst = BY_ID[inst_id]
    scenario = bench_mod.scenario_for_instance(inst)
    ads = AdsConfig(faults=[inst.fault])
    original = rtest(scenario, ads, OracleConfig())
    assert not original.verdict.passed
    states = split_trace(original.trace, QuantizationUnits())
    indices = sorted({m.state_index for m in original.trace.rows[inst.component]})
    if 1 not in indices:
        indices = [1] + indices
    jobs = [(inst_id, s) for s in indices]
    with ProcessPoolExecutor(4) as ex:
        outcomes = dict(ex.map(_audit_job, jobs))
    ordered = [(s, outcomes[s]) for s in indices]
    flips = sum(1 for (_, a), (_, b) in zip(ordered, ordered[1:]) if a != b)
    monotone = flips <= 1 and (flips == 0 or ordered[0][1])
    boundary = None
    for s, okay in ordered:
        if okay:
            boundary = s
    return original, states, monotone, boundary


def test_criterion_7_search_correctness():
    all_ok = True
    details = []
    for inst_id in AUDIT_SUBSET:
        inst = BY_ID[inst_id]
        original, states, monotone, boundary = _exhaustive_scan(inst_id)
        if not monotone:
            details.append(f"{inst_id}: non-monotone (reported, skipped)")
            continue
        session = DtestSession(bench_mod.scenario_for_instance(inst),
                               AdsConfig(faults=[inst.fault]), OracleConfig(),
                               original.trace)
        focus = attribute_message_nonplanning(session, original.trace, len(states),
                                              inst.component)
        agree = focus.state_index == boundary
        all_ok = all_ok and agree
        details.append(f"{inst_id}: binary={focus.state_index} linear={boundary}"
                       f" {'==' if agree else '!='}")

    # Interval delta debugging reproduces the documented 4-state walkthrough.
    from test_attribution import StubSession
    stub = StubSession(3, 4)
    got = attribute_interval_dd(stub, 4, ComponentId.PERCEPTION)
    walkthrough_ok = got == (3, 3) and stub.tested == [(1, 2), (3, 4), (3, 3)]
    all_ok = all_ok and walkthrough_ok

    report("criterion-7", all_ok,
           "binary search equals exhaustive linear suffix scan on audited instances ("
           + "; ".join(details) + f"); interval-dd 4-state walkthrough exact: "
           f"{walkthrough_ok}")
    assert all_ok


def test_criterion_8_tarantula_hand_matrix():
    passed = {"b2": 1, "b3": 1, "b4": 1}
    failed = {"b1": 1, "b2": 1, "b5": 1}
    scores = dict(tarantula_scores(passed, failed, 1, 1))
    ok = (abs(scores["b1"] - 1.0) < 1e-12 and abs(scores["b5"] - 1.0) < 1e-12
          and abs(scores["b2"] - 0.5) < 1e-12 and abs(scores["b3"]) < 1e-12
          and abs(scores["b4"]) < 1e-12)
    report("criterion-8", ok,
           "5-block 1-passed/1-failed matrix scores equal hand computation "
           "(1.0 / 0.5 / 0.0) to 1e-12")
    assert ok


def _flip_job(inst_id: str):
    inst = BY_ID[inst_id]
    sc = bench_mod.scenario_for_instance(inst)
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    kinds = [v["kind"] for v in res.verdict.violations]
    return inst_id, (not res.verdict.passed) and inst.expected_violation in kinds


def test_criterion_9_baseline_soundness():
    baseline_ok = True
    for name in ARCHETYPE:
        res = rtest(load_builtin_scenario(name), AdsConfig(), OracleConfig())
        if not res.verdict.passed:
            baseline_ok = False
    with ProcessPoolExecutor(4) as ex:
        flips = dict(ex.map(_flip_job, [i.id for i in INSTANCES]))
    flips_ok = all(flips.values())
    ok = baseline_ok and flips_ok
    bad = [k for k, v in flips.items() if not v]
    report("criterion-9", ok,
           f"all {len(ARCHETYPE)} scenario files pass fault-free; "
           f"{sum(flips.values())}/{len(flips)} fault specs flip to their recorded "
           f"violation kind" + (f"; failing: {bad}" if bad else ""))
    assert baseline_ok
    assert flips_ok


@pytest.mark.slow
def test_full_monotonicity_audit_all_instances():
    """Exhaustive suffix-scan equality on every non-planning instance (slow)."""
    failures = []
    for inst in INSTANCES:
        if inst.component is ComponentId.PLANNING:
            continue
        original, states, monotone, boundary = _exhaustive_scan(inst.id)
        if not monotone:
            failures.append(f"{inst.id}: non-monotone")
            continue
        session = DtestSession(bench_mod.scenario_for_instance(inst),
                               AdsConfig(faults=[inst.fault]), OracleConfig(),
                               original.trace)
        focus = attribute_message_nonplanning(session, original.trace, len(states),
                                              inst.component)
        if focus.state_index != boundary:
            failures.append(f"{inst.id}: binary {focus.state_index} != linear "
                            f"{boundary}")
    assert not failures, failures
