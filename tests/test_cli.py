import hashlib
import json
from pathlib import Path

import pytest

from causetrace.benchmark import load_benchmark, scenario_path
from causetrace.cli import main
from conftest import straight_road_doc

INSTS = {i.id: i for i in load_benchmark()}
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text(encoding="utf-8"))


def write_fault(tmp_path, inst_id) -> str:
    path = tmp_path / "fault.json"
    path.write_text(json.dumps({"faults": [INSTS[inst_id].fault.to_dict()]}),
                    encoding="utf-8")
    return str(path)


def test_run_nominal_exit_zero(tmp_path, capsys):
    code = main(["run", str(scenario_path("cs3b")), "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert (tmp_path / "trace.jsonl").exists()
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["passed"] is True


def test_run_with_fault_exit_one(tmp_path, capsys):
    fault = write_fault(tmp_path, "cs1_pred_wrong")
    code = main(["run", str(scenario_path("cs1")), "--fault", fault,
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "safe_distance" in capsys.readouterr().out


def test_run_missing_file_exit_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)])
    assert code == 2


def test_run_determinism_digest_equality(tmp_path):
    fault = write_fault(tmp_path, "cs1_perc_miss")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario_path("cs1")), "--fault", fault,
                 "--out-dir", str(a)]) == 1
    assert main(["run", str(scenario_path("cs1")), "--fault", fault,
                 "--out-dir", str(b)]) == 1
    ta = (a / "trace.jsonl").read_bytes()
    tb = (b / "trace.jsonl").read_bytes()
    assert ta == tb
    da = json.loads((a / "verdict.json").read_text())["trace_digest"]
    db = json.loads((b / "verdict.json").read_text())["trace_digest"]
    assert da == db


def test_scenario_seed_does_not_change_trace(tmp_path):
    # `seed` is parsed and validated, but no component draws a random number.
    traces = []
    for seed in (7, 123):
        spath = tmp_path / f"seed{seed}.json"
        spath.write_text(json.dumps(straight_road_doc(t_max_ms=1000, seed=seed)),
                         encoding="utf-8")
        out = tmp_path / f"out{seed}"
        assert main(["run", str(spath), "--out-dir", str(out)]) in (0, 1)
        traces.append((out / "trace.jsonl").read_bytes())
    assert traces[0] == traces[1]


def _set(doc, key, value):
    doc[key] = value
    return doc


def _obj_size(doc):
    doc["objects"] = [{"id": "o", "kind": "StaticObstacle", "size": 3,
                       "waypoints": [{"t_ms": 0, "p": [50, 0], "v": [0, 0], "a": [0, 0]}]}]
    return doc


MALFORMED = {
    # case: (scenario edit, fault file doc, oracle config doc, expected field path)
    "t_max_not_int": (lambda d: _set(d, "t_max_ms", "abc"), None, None, "t_max_ms"),
    "map_not_object": (lambda d: _set(d, "map", []), None, None, "map"),
    "object_size_scalar": (_obj_size, None, None, "objects[0].size"),
    "lane_width_not_finite": (lambda d: d["map"]["lanes"][0].update(width="inf") or d,
                              None, None, "map.lanes[0].width"),
    "fault_without_target": (None, {"kind": "miss_detection"}, None, "fault"),
    "fault_unknown_kind": (None, {"faults": [{"target": "perception", "kind": "gremlin"}]},
                           None, "faults[0].kind"),
    "fault_magnitude_not_number": (None, {"faults": [{
        "target": "perception", "kind": "wrong_lateral_distance",
        "magnitude": {"offset": "x"}}]}, None, "faults[0].magnitude.offset"),
    "fault_magnitude_not_finite": (None, {
        "target": "control", "kind": "wrong_longitudinal_command",
        "magnitude": {"offset": float("inf")}}, None, "fault.magnitude.offset"),
    "fault_unknown_prediction_mode": (None, {
        "target": "prediction", "kind": "wrong_prediction_trajectory",
        "magnitude": {"mode": "sideways"}}, None, "fault.magnitude.mode"),
    "fault_trigger_t0_not_number": (None, {
        "target": "perception", "kind": "miss_detection", "trigger": {"t0_ms": "soon"}},
        None, "fault.trigger.t0_ms"),
    "fault_trigger_window_empty": (None, {"faults": [{
        "target": "perception", "kind": "miss_detection",
        "trigger": {"t0_ms": 5000, "t1_ms": 1000}}]}, None, "faults[0].trigger.t1_ms"),
    "fault_trigger_object_id_not_string": (None, {
        "target": "perception", "kind": "miss_detection", "trigger": {"object_id": [1]}},
        None, "fault.trigger.object_id"),
    "fault_trigger_center_not_finite": (None, {
        "target": "perception", "kind": "miss_detection",
        "trigger": {"region": {"center": ["nan", 0], "radius": 1.0}}},
        None, "fault.trigger.region.center[0]"),
    "fault_trigger_radius_not_finite": (None, {
        "target": "perception", "kind": "miss_detection",
        "trigger": {"region": {"center": [0.0, 0.0], "radius": "inf"}}},
        None, "fault.trigger.region.radius"),
    "fault_trigger_radius_negative": (None, {
        "target": "perception", "kind": "miss_detection",
        "trigger": {"region": {"center": [0.0, 0.0], "radius": -1.0}}},
        None, "fault.trigger.region.radius"),
    "fault_unknown_key": (None, {
        "target": "perception", "kind": "miss_detection", "tigger": {"t0_ms": 5000}},
        None, "fault.tigger: unknown key"),
    "fault_trigger_unknown_key": (None, {"faults": [{
        "target": "control", "kind": "wrong_longitudinal_command",
        "trigger": {"t0": 5000}, "magnitude": {"offset": 0.3}}]},
        None, "faults[0].trigger.t0: unknown key"),
    "fault_trigger_region_unknown_key": (None, {
        "target": "perception", "kind": "miss_detection",
        "trigger": {"region": {"center": [0.0, 0.0], "radius": 1.0, "radius_m": 2.0}}},
        None, "fault.trigger.region.radius_m: unknown key"),
    "fault_magnitude_unknown_key": (None, {
        "target": "control", "kind": "wrong_longitudinal_command",
        "trigger": {"t0_ms": 5000}, "magnitude": {"offest": 0.3}},
        None, "fault.magnitude.offest: unknown key"),
    "scenario_unknown_key": (lambda d: _set(d, "t_maxx", 1000), None, None,
                             "t_maxx: unknown key"),
    "scenario_object_unknown_key": (
        lambda d: _set(d, "objects", [{
            "id": "o", "kind": "Vehicle", "size": [4.0, 1.8, 1.5], "heading_overide": 0.5,
            "waypoints": [{"t_ms": 0, "p": [50, 0], "v": [0, 0], "a": [0, 0]}]}]),
        None, None, "objects[0].heading_overide: unknown key"),
    "scenario_object_id_not_string": (
        lambda d: _set(d, "objects", [{
            "id": None, "kind": "Vehicle", "size": [4.0, 1.8, 1.5],
            "waypoints": [{"t_ms": 0, "p": [50, 0], "v": [0, 0], "a": [0, 0]}]}]),
        None, None, "objects[0].id: expected a string"),
    "fault_file_unknown_key": (None, {"faults": [], "fault": {
        "target": "perception", "kind": "miss_detection"}}, None, "fault: unknown key"),
    "oracle_negative_c": (None, None, {"safe_distance_c": -1}, "safe_distance_c"),
    "oracle_unknown_key": (None, None, {"safe_distance": 2.0}, "safe_distance: unknown key"),
    "oracle_unknown_kind": (None, None, {"enabled": ["speedng"]}, "enabled[0]"),
    # Integer fields take integral numbers only, and no field takes a boolean.
    "t_max_not_integral": (lambda d: _set(d, "t_max_ms", 999.9), None, None,
                           "t_max_ms: expected an integer"),
    "seed_not_integral": (lambda d: _set(d, "seed", 7.9), None, None,
                          "seed: expected an integer"),
    "waypoint_t_boolean": (
        lambda d: _set(d, "objects", [{
            "id": "o", "kind": "Vehicle", "size": [4.0, 1.8, 1.5],
            "waypoints": [{"t_ms": True, "p": [50, 0], "v": [0, 0], "a": [0, 0]}]}]),
        None, None, "objects[0].waypoints[0].t_ms: expected a finite number"),
    "lane_width_boolean": (lambda d: d["map"]["lanes"][0].update(width=True) or d,
                           None, None, "map.lanes[0].width"),
    "fault_trigger_t0_not_integral": (None, {
        "target": "perception", "kind": "miss_detection", "trigger": {"t0_ms": 1500.7}},
        None, "fault.trigger.t0_ms: expected an integer"),
    "fault_magnitude_boolean": (None, {
        "target": "perception", "kind": "wrong_lateral_distance",
        "magnitude": {"offset": True}}, None, "fault.magnitude.offset"),
    "oracle_c_boolean": (None, None, {"safe_distance_c": True}, "safe_distance_c"),
    # Ids are names: a lane or an object id may appear once.
    "lane_id_repeated": (
        lambda d: d["map"]["lanes"].append(dict(d["map"]["lanes"][0])) or d,
        None, None, "map.lanes[2].id: repeats id 'lane0'"),
    "object_id_repeated": (
        lambda d: _set(d, "objects", [{
            "id": "o", "kind": "Vehicle", "size": [4.0, 1.8, 1.5],
            "waypoints": [{"t_ms": 0, "p": [x, 0], "v": [0, 0], "a": [0, 0]}]}
            for x in (50, 70)]),
        None, None, "objects[1].id: repeats id 'o'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_two_with_field_path(tmp_path, capsys, case):
    edit, fault_doc, oracle_doc, field_path = MALFORMED[case]
    doc = straight_road_doc(t_max_ms=1000)
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(edit(doc) if edit else doc), encoding="utf-8")
    argv = ["run", str(spath), "--out-dir", str(tmp_path / "out")]
    if fault_doc is not None:
        (tmp_path / "fault.json").write_text(json.dumps(fault_doc), encoding="utf-8")
        argv += ["--fault", str(tmp_path / "fault.json")]
    if oracle_doc is not None:
        (tmp_path / "oracle.json").write_text(json.dumps(oracle_doc), encoding="utf-8")
        argv += ["--oracle-config", str(tmp_path / "oracle.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {field_path}" in err
    assert "Traceback" not in err


def test_attribute_writes_report_and_matrix(tmp_path, capsys):
    fault = write_fault(tmp_path, "cs1_plan_none")
    code = main(["attribute", str(scenario_path("cs1")), "--fault", fault,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "violation-inducing component: planning" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["component_vi"] == "planning"
    assert report["simulations_total"] == 2
    matrix = (tmp_path / "verdict_matrix.csv").read_text().splitlines()
    assert matrix[0] == "component,seq,t_pub,label"
    assert sum(1 for line in matrix if line.endswith(",fail")) == 1


def test_attribute_prints_rerun_cost_outside_report(tmp_path, capsys, monkeypatch):
    from causetrace import cli
    reports = []
    real = cli.attribute
    monkeypatch.setattr(cli, "attribute",
                        lambda *a, **k: reports.append(real(*a, **k)) or reports[-1])
    fault = write_fault(tmp_path, "cs1_pred_none")
    code = main(["attribute", str(scenario_path("cs1")), "--fault", fault,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    (r,) = reports
    reruns = r.simulations_total - 1
    # Some re-runs are decided from the original's prefix, and some merge into an
    # earlier re-run at a frame, among them those that forked at the same state;
    # the rest step, each less than the whole run, and one of them stops where it
    # has come to rest.
    assert r.rerun_prefix_decided > 0 and r.rerun_merged > 1
    assert r.rerun_prefix_decided + r.rerun_merged < reruns
    assert 0 < r.rerun_fast_forwarded < reruns
    assert 0 < r.rerun_stepped_ms < reruns * 25000
    line = (f"re-run cost: {r.rerun_stepped_ms} simulated ms stepped, "
            f"{r.rerun_prefix_decided} re-runs decided from the original run's prefix, "
            f"{r.rerun_merged} merged into an earlier re-run at a frame, "
            f"{r.rerun_fast_forwarded} fast-forwarded at rest")
    assert line in capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "report.json").read_text())
    assert not {k for k in report if k.startswith("rerun_")}
    # report.json holds the golden report (wall time aside): the re-run cost and
    # its fast-forwards change nothing in it.
    doc = r.to_dict()
    doc.pop("verdict_matrix")
    assert (tmp_path / "report.json").read_text() == json.dumps(doc, indent=2) + "\n"
    doc = r.to_dict()
    del doc["wall_time_s"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["cs1_pred_none"]["report_sha256"]


def test_attribute_passing_scenario_exit_three(tmp_path, capsys):
    code = main(["attribute", str(scenario_path("cs1")), "--out-dir", str(tmp_path)])
    assert code == 3


def test_attribute_unattributable_exit_four(tmp_path):
    faults = [INSTS["cs1_perc_miss"].fault.to_dict(),
              INSTS["cs1_ctrl_long"].fault.to_dict()]
    fpath = tmp_path / "multi.json"
    fpath.write_text(json.dumps({"faults": faults}), encoding="utf-8")
    code = main(["attribute", str(scenario_path("cs1")), "--fault", str(fpath),
                 "--out-dir", str(tmp_path)])
    assert code == 4


def test_bench_small_subset(tmp_path, capsys):
    from causetrace.benchmark import data_dir
    subset = {"instances": [i.to_dict() for i in load_benchmark()
                            if i.id in ("cs1_plan_none", "cs5_plan_none")]}
    bpath = tmp_path / "bench.json"
    bpath.write_text(json.dumps(subset), encoding="utf-8")
    code = main(["bench", "--benchmark", str(bpath), "--out-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "bench_summary.json").read_text())
    assert summary["overall"]["instances"] == 2
    assert summary["overall"]["component_success_rate"] == 1.0
    assert (tmp_path / "bench_table.csv").exists()


def test_bench_empty_file(tmp_path):
    bpath = tmp_path / "empty.json"
    bpath.write_text(json.dumps({"instances": []}), encoding="utf-8")
    assert main(["bench", "--benchmark", str(bpath), "--out-dir", str(tmp_path)]) == 0


def test_replay_emits_plot_csv(tmp_path):
    fault = write_fault(tmp_path, "cs1_perc_miss")
    assert main(["run", str(scenario_path("cs1")), "--fault", fault,
                 "--out-dir", str(tmp_path)]) == 1
    code = main(["replay", str(tmp_path / "trace.jsonl"),
                 "--scenario", str(scenario_path("cs1")), "--out-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "replay.csv").read_text().splitlines()
    assert rows[0].startswith("t_ms,ego_x,ego_y,ego_speed,min_distance")
    # The min-distance column reaches zero at the collision tick.
    last = rows[-1].split(",")
    assert float(last[4]) == pytest.approx(0.0, abs=1e-9)


def test_replay_static_trace_constant_rows(tmp_path):
    import causetrace.scenario as sc_mod
    doc = straight_road_doc(t_max_ms=300, dest_x=6.0)
    spath = tmp_path / "tiny.json"
    spath.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(spath), "--out-dir", str(tmp_path)]) in (0, 1)
    assert main(["replay", str(tmp_path / "trace.jsonl"), "--scenario", str(spath),
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "replay.csv").read_text().splitlines()[1:]
    xs = {row.split(",")[1] for row in rows}
    assert len(xs) <= 3  # barely moves in 300 ms from standstill


def test_replay_corrupt_trace_exit_two(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    code = main(["replay", str(bad), "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("line, field_path", [
    ('{"kind":"ego","t":0}', "line 2: missing key 'p'"),
    ("[1,2]", "line 2: expected an object"),
    ('{"kind":"ego","t":0,"p":[0,0],"v":[0],"a":[0,0]}', "line 2.v"),
    ('{"t":0}', "line 2.kind"),
    ('{"kind":"ego","t":1.5,"p":[0,0],"v":[0,0],"a":[0,0]}', "line 2.t: expected an integer"),
    ('{"kind":"ego","t":true,"p":[0,0],"v":[0,0],"a":[0,0]}', "line 2.t"),
    ('{"kind":"ego","t":0,"p":[false,0],"v":[0,0],"a":[0,0]}', "line 2.p[0]"),
])
def test_replay_malformed_record_exit_two(tmp_path, capsys, line, field_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind":"header"}\n' + line + "\n", encoding="utf-8")
    assert main(["replay", str(bad), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field_path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, field_path", [
    (lambda doc: doc["instances"][0].pop("scenario"), "instances[0]: missing key 'scenario'"),
    (lambda doc: doc["instances"][0].update(fault=[]), "instances[0].fault"),
    (lambda doc: doc["instances"][0]["fault"].update(kind="gremlin"),
     "instances[0].fault.kind"),
    (lambda doc: doc["instances"][0].update(note="x"), "instances[0].note: unknown key"),
    (lambda doc: doc.update(instance=[]), "instance: unknown key"),
    (lambda doc: doc["instances"].append(dict(doc["instances"][0])),
     "instances[1].id: duplicate id 'cs1_plan_none'"),
    (lambda doc: doc["instances"][0].update(expected_violation="safe_distanse"),
     "instances[0].expected_violation: unknown kind 'safe_distanse'"),
])
def test_bench_malformed_instance_exit_two(tmp_path, capsys, edit, field_path):
    doc = {"instances": [INSTS["cs1_plan_none"].to_dict()]}
    edit(doc)
    bpath = tmp_path / "bench.json"
    bpath.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bench", "--benchmark", str(bpath), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field_path}" in err


@pytest.mark.parametrize("command", ["attribute", "bench"])
def test_audit_with_interval_dd_rejected_up_front(tmp_path, capsys, monkeypatch, command):
    from causetrace import benchmark, cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran before rejecting the options")
    monkeypatch.setattr(cli, "attribute", no_run)
    monkeypatch.setattr(benchmark, "run_instance", no_run)
    argv = [command, "--strategy", "interval-dd", "--audit-monotonicity",
            "--out-dir", str(tmp_path)]
    if command == "attribute":
        argv[1:1] = [str(scenario_path("cs1")), "--fault", write_fault(tmp_path, "cs1_pred_none")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: the monotonicity audit needs strategy 'binary'\n"


BAD_BYTES = {
    "not_utf8": b'{"t_max_ms": "\xff\xfe"}',
    "deeply_nested": b"[" * 200000,
    "integer_over_4300_digits": b"1" * 5000,
}
READERS = {
    "scenario": lambda bad: ["run", bad],
    "fault": lambda bad: ["run", str(scenario_path("cs1")), "--fault", bad],
    "oracle_config": lambda bad: ["run", str(scenario_path("cs1")), "--oracle-config", bad],
    "benchmark": lambda bad: ["bench", "--benchmark", bad],
    "trace": lambda bad: ["replay", bad],
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("content", sorted(BAD_BYTES))
def test_undecodable_file_exit_two_naming_the_file(tmp_path, capsys, reader, content):
    bad = tmp_path / f"{content}.json"
    bad.write_bytes(BAD_BYTES[content])
    assert main(READERS[reader](str(bad)) + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_bench_parallel_below_one_rejected(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--parallel", value, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --parallel" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["bench"], ["replay", "trace.jsonl"]])
def test_oracle_config_rejected_where_unread(tmp_path, capsys, argv):
    # Only run and attribute judge a run with the oracles, so only they take the flag.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--oracle-config", "x", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle-config x" in capsys.readouterr().err


def test_bench_parallel_capped_at_instance_count(monkeypatch):
    import concurrent.futures

    from causetrace import benchmark

    workers = []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def fake_run(inst, **kwargs):
        return {"id": inst.id, "expected_component": inst.component.value,
                "component_success": True, "wall_time_s": 0.0}

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(benchmark, "run_instance", fake_run)
    three = load_benchmark()[:3]
    assert benchmark.run_benchmark(three, parallel=100000)["overall"]["instances"] == 3
    assert benchmark.run_benchmark(three, parallel=2)["overall"]["instances"] == 3
    assert benchmark.run_benchmark(three[:1], parallel=8)["overall"]["instances"] == 1
    assert workers == [3, 2]
