import pytest

from causetrace import runner
from causetrace.middleware import ComponentId
from causetrace.oracles import OracleConfig
from causetrace.runner import AdsConfig, SimPanic, run_scheduler, run_with_substitution, rtest
from causetrace.scenario import scenario_from_dict
from causetrace.substitutes import IdealAll, SubstitutionPlan
from conftest import straight_road_doc


def test_component_panic_becomes_sim_panic_with_diagnostics(monkeypatch):
    sc = scenario_from_dict(straight_road_doc(t_max_ms=2000))
    real_tick = runner.perception_tick

    def broken(truth, loc, ego_p, faults, t):
        if t >= 500:
            raise RuntimeError("boom")
        return real_tick(truth, loc, ego_p, faults, t)

    monkeypatch.setattr(runner, "perception_tick", broken)
    with pytest.raises(SimPanic) as exc:
        run_scheduler(sc, AdsConfig())
    panic = exc.value
    assert panic.component is ComponentId.PERCEPTION
    assert panic.t == 500
    assert any("panic" in d and "boom" in d for d in panic.trace.diagnostics)
    # The partial trace is attached and holds everything up to the panic.
    assert panic.trace.rows[ComponentId.PERCEPTION]


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

