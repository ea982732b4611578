import gc

import pytest

from causetrace import runner
from causetrace.geometry import OrientedBox
from causetrace.middleware import ComponentId
from causetrace.oracles import OracleConfig
from causetrace.pipeline import PlanTable
from causetrace.runner import AdsConfig, SimPanic, run_scheduler, run_with_substitution, rtest
from causetrace.scenario import scenario_from_dict
from causetrace.substitutes import IdealAll, SubstitutionPlan, sim_control_apply
from causetrace.world import EgoState
from conftest import static_object, straight_road_doc


def _panicking_perception(monkeypatch):
    real_tick = runner.perception_tick

    def broken(truth, loc, ego_p, faults, t):
        if t >= 500:
            raise RuntimeError("boom")
        return real_tick(truth, loc, ego_p, faults, t)

    monkeypatch.setattr(runner, "perception_tick", broken)


def test_component_panic_becomes_sim_panic_with_diagnostics(monkeypatch):
    sc = scenario_from_dict(straight_road_doc(t_max_ms=2000))
    _panicking_perception(monkeypatch)
    with pytest.raises(SimPanic) as exc:
        run_scheduler(sc, AdsConfig())
    panic = exc.value
    assert panic.component is ComponentId.PERCEPTION
    assert panic.t == 500
    assert any("panic" in d and "boom" in d for d in panic.trace.diagnostics)
    # The partial trace is attached and holds everything up to the panic.
    assert panic.trace.rows[ComponentId.PERCEPTION]


def test_rtest_pauses_the_collector_and_restores_it_after_a_panic(monkeypatch):
    sc = scenario_from_dict(straight_road_doc(t_max_ms=2000))
    _panicking_perception(monkeypatch)
    real_scheduler = runner.run_scheduler
    seen = []

    def scheduler(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_scheduler(*args, **kwargs)

    monkeypatch.setattr(runner, "run_scheduler", scheduler)
    assert gc.isenabled()
    with pytest.raises(SimPanic):
        rtest(sc, AdsConfig(), OracleConfig())
    assert seen == [False]
    assert gc.isenabled()


def test_rtest_leaves_a_paused_collector_paused(monkeypatch):
    sc = scenario_from_dict(straight_road_doc(t_max_ms=2000))
    gc.disable()
    try:
        rtest(sc, AdsConfig(), OracleConfig())
        assert not gc.isenabled()
        _panicking_perception(monkeypatch)
        with pytest.raises(SimPanic):
            rtest(sc, AdsConfig(), OracleConfig())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_ego_log_ends_at_collision_tick():
    from causetrace.benchmark import load_benchmark, load_builtin_scenario

    inst = {i.id: i for i in load_benchmark()}["cs3_perc_miss"]
    sc = load_builtin_scenario("cs3")
    res = rtest(sc, AdsConfig(faults=[inst.fault]), OracleConfig())
    contact = [d for d in res.trace.diagnostics if d.startswith("contact")][0]
    t_contact = int(contact.split("t=")[1].split(" ")[0])
    assert res.ego_log[-1].t == t_contact
    assert t_contact < sc.t_max
    # No messages were published after the collision tick.
    for row in res.trace.rows.values():
        assert all(m.t_pub <= t_contact for m in row)


@pytest.mark.parametrize("gap, stops_at_start", [(0.0, True), (1e-12, False)])
def test_touching_box_is_a_contact_and_a_tiny_gap_is_not(gap, stops_at_start):
    # A static 0.5 m box whose rear face lies `gap` ahead of the ego's front face
    # at t=0: touching is a contact, and the smallest gap is not.
    sc = scenario_from_dict(straight_road_doc())
    front = max(x for x, _ in OrientedBox(sc.a_init[0], sc.ego_half, sc.a_init[1]).corners())
    box = static_object(size=(0.5, 0.5, 0.7), p=(front + 0.25 + gap, 0.0))
    sc = scenario_from_dict(straight_road_doc(objects=[box]))
    rear = sc.objects[0].waypoints[0].p[0] - 0.25
    assert (rear == front) is stops_at_start and rear - front == pytest.approx(gap, abs=1e-15)
    trace = run_scheduler(sc, AdsConfig())
    assert (trace.ego_log[-1].t == 0) is stops_at_start
    assert ("contact t=0 object=blk" in trace.diagnostics) is stops_at_start


def test_latest_reflects_substituted_payload():
    from causetrace.benchmark import load_benchmark, load_builtin_scenario

    inst = {i.id: i for i in load_benchmark()}["cs2_perc_miss"]
    sc = load_builtin_scenario("cs2")
    ads = AdsConfig(faults=[inst.fault])
    # Faulty run: the lead car is missing from perception output on approach.
    faulty = rtest(sc, ads, OracleConfig())
    at_8s = next(m for m in faulty.trace.rows[ComponentId.PERCEPTION]
                 if m.t_pub == 8000)
    assert all(o.id != "lead" for o in at_8s.payload.objects)
    # Substituted re-run: ideal perception still contains it.
    _, trace = run_with_substitution(
        sc, ads, SubstitutionPlan({ComponentId.PERCEPTION: IdealAll()}),
        OracleConfig())
    at_8s_ideal = next(m for m in trace.rows[ComponentId.PERCEPTION]
                       if m.t_pub == 8000)
    assert any(o.id == "lead" for o in at_8s_ideal.payload.objects)


def test_substitution_plan_serializes_for_audit():
    plan = SubstitutionPlan({ComponentId.CONTROL: IdealAll()})
    doc = plan.to_dict()
    assert doc["control"] == {"mode": "ideal_all"}
    assert doc["planning"] == {"mode": "original"}


@pytest.mark.parametrize("plan", [None, SubstitutionPlan({ComponentId.CONTROL: IdealAll()})],
                         ids=["control", "ideal-control"])
def test_partial_last_block_cuts_the_full_run(plan):
    # t_max 2015 ends inside the block that starts at 2010: the run publishes
    # what the 2020 run publishes through 2010 and samples through 2010, with
    # no closing sample at 2015.
    short = run_scheduler(scenario_from_dict(straight_road_doc(t_max_ms=2015)), AdsConfig(), plan)
    full = run_scheduler(scenario_from_dict(straight_road_doc(t_max_ms=2020)), AdsConfig(), plan)
    assert short.rows == {c: [m for m in row if m.t_pub <= 2010] for c, row in full.rows.items()}
    assert short.ego_log == [w for w in full.ego_log if w.t <= 2010]
    assert short.ego_log[-1].t == 2010
    assert full.ego_log[-1].t == 2020


def test_ideal_control_block_equals_per_ms_chain():
    # With control substituted the ego sits on the plan: chaining
    # sim_control_apply ms by ms over each block, as a 1 ms scheduler does,
    # gives every logged sample, its accel included (the speed change of the
    # block's last ms).
    sc = scenario_from_dict(straight_road_doc(t_max_ms=3000))
    trace = run_scheduler(sc, AdsConfig(), SubstitutionPlan({ComponentId.CONTROL: IdealAll()}))
    plans = trace.rows[ComponentId.PLANNING]
    for prev, w in zip(trace.ego_log, trace.ego_log[1:]):
        plan = [m for m in plans if m.t_pub <= prev.t][-1].payload
        assert len(plan.trajectory) >= 2  # the fallback is not exercised here
        ego = EgoState(prev.p, 0.0, 0.0, 0.0, prev.t)
        for ms in range(prev.t + 1, w.t + 1):
            nxt = sim_control_apply(PlanTable(plan), ms, ego)
            ego = EgoState(nxt.p, nxt.heading, nxt.speed, (nxt.speed - ego.speed) * 1000.0, ms)
        assert w == ego.sample(w.t)
