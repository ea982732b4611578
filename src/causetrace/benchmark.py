"""Frozen injected-fault benchmark: scenario archetypes plus fault instances.

Five collision archetypes: CS1 in-road pedestrian, CS2 front vehicle, CS3
in-road static object, CS4 parked roadside vehicle, CS5 infrastructure contact
through lane deviation. CS3/CS4 each have a stop-response geometry variant
(cs3b/cs4b) used by the faults whose mechanism needs a braking phase rather
than a nudge. Every instance freezes one fault spec, magnitudes included, and
records the violation kind it provokes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .faults import FaultSpec, fault_from_dict
from .middleware import ComponentId
from .scenario import Scenario, expect, load_scenario, scenario_from_dict

EGO = {"init_pose": [5.0, 0.0, 0.0], "dest": [120.0, 0.0], "size": [4.6, 1.9, 1.5]}

_LANE0 = {"id": "lane0", "centerline": [[0.0, 0.0], [200.0, 0.0]], "width": 3.5,
          "speed_limit": 11.0}
_LANE1 = {"id": "lane1", "centerline": [[0.0, 3.5], [200.0, 3.5]], "width": 3.5,
          "speed_limit": 11.0}


def _static_obj(obj_id: str, kind: str, size, p, heading: float = 0.0) -> dict:
    return {
        "id": obj_id, "kind": kind, "size": list(size),
        "waypoints": [{"t_ms": 0, "p": list(p), "v": [0.0, 0.0], "a": [0.0, 0.0]}],
        "heading_override": heading,
    }


def build_cs1() -> dict:
    """Pedestrian hurrying across the road, timed to meet an unbraking ego."""
    ped = {
        "id": "ped", "kind": "Pedestrian", "size": [0.5, 0.5, 1.8],
        "waypoints": [
            {"t_ms": 0, "p": [60.0, 19.76], "v": [0.0, -2.6], "a": [0.0, 0.0]},
            {"t_ms": 11446, "p": [60.0, -10.0], "v": [0.0, -2.6], "a": [0.0, 0.0]},
        ],
    }
    return {"map": {"lanes": [_LANE0], "successors": {}}, "ego": dict(EGO),
            "objects": [ped], "signals": [], "t_max_ms": 25000, "seed": 11}


def build_cs2() -> dict:
    """Front vehicle that brakes to a stop, waits, then drives off."""
    lead = {
        "id": "lead", "kind": "Vehicle", "size": [4.4, 1.8, 1.5],
        "waypoints": [
            {"t_ms": 0, "p": [45.0, 0.0], "v": [8.0, 0.0], "a": [0.0, 0.0]},
            {"t_ms": 6000, "p": [93.0, 0.0], "v": [8.0, 0.0], "a": [-4.0, 0.0]},
            {"t_ms": 8000, "p": [101.0, 0.0], "v": [0.0, 0.0], "a": [0.0, 0.0]},
            {"t_ms": 16000, "p": [101.0, 0.0], "v": [0.0, 0.0], "a": [2.0, 0.0]},
            {"t_ms": 20000, "p": [117.0, 0.0], "v": [8.0, 0.0], "a": [0.0, 0.0]},
            {"t_ms": 30000, "p": [197.0, 0.0], "v": [8.0, 0.0], "a": [0.0, 0.0]},
        ],
    }
    return {"map": {"lanes": [_LANE0], "successors": {}}, "ego": dict(EGO),
            "objects": [lead], "signals": [], "t_max_ms": 30000, "seed": 22}


def build_cs3() -> dict:
    """Traffic cone dead-center in the lane; an adjacent lane leaves nudge room."""
    cone = _static_obj("cone", "StaticObstacle", [0.4, 0.4, 0.7], [70.0, 0.0])
    return {"map": {"lanes": [_LANE0, _LANE1], "successors": {}}, "ego": dict(EGO),
            "objects": [cone], "signals": [], "t_max_ms": 30000, "seed": 33}


def build_cs3b() -> dict:
    """Wide debris just past the destination; only braking keeps it clear."""
    debris = _static_obj("debris", "StaticObstacle", [0.8, 2.8, 0.5], [128.0, 0.0])
    return {"map": {"lanes": [_LANE0], "successors": {}}, "ego": dict(EGO),
            "objects": [debris], "signals": [], "t_max_ms": 20000, "seed": 34}


def build_cs4() -> dict:
    """Vehicle parked on the roadside edge, intruding into the lane."""
    car = _static_obj("parked", "Vehicle", [4.4, 1.8, 1.5], [70.0, -1.3])
    return {"map": {"lanes": [_LANE0, _LANE1], "successors": {}}, "ego": dict(EGO),
            "objects": [car], "signals": [], "t_max_ms": 30000, "seed": 44}


def build_cs4b() -> dict:
    """Badly double-parked vehicle past the destination, too wide to nudge."""
    car = _static_obj("parked", "Vehicle", [4.4, 1.8, 1.5], [130.0, -0.55])
    return {"map": {"lanes": [_LANE0], "successors": {}}, "ego": dict(EGO),
            "objects": [car], "signals": [], "t_max_ms": 20000, "seed": 45}


def build_cs5() -> dict:
    """Straight road with curb strips along both edges; dest further out."""
    objects = []
    for k in range(20):
        x = 5.0 + 10.0 * k
        objects.append(_static_obj(f"curb_l{k:02d}", "Infrastructure",
                                   [10.0, 0.3, 0.25], [x, 2.05]))
        objects.append(_static_obj(f"curb_r{k:02d}", "Infrastructure",
                                   [10.0, 0.3, 0.25], [x, -2.05]))
    ego = dict(EGO)
    ego["dest"] = [140.0, 0.0]
    return {"map": {"lanes": [_LANE0], "successors": {}}, "ego": ego,
            "objects": objects, "signals": [], "t_max_ms": 22000, "seed": 55}


BUILDERS = {
    "cs1": build_cs1,
    "cs2": build_cs2,
    "cs3": build_cs3,
    "cs3b": build_cs3b,
    "cs4": build_cs4,
    "cs4b": build_cs4b,
    "cs5": build_cs5,
}

# The archetype each scenario file realizes (cs3b/cs4b are geometry variants).
ARCHETYPE = {"cs1": "CS1", "cs2": "CS2", "cs3": "CS3", "cs3b": "CS3",
             "cs4": "CS4", "cs4b": "CS4", "cs5": "CS5"}


@dataclass(frozen=True)
class BenchInstance:
    id: str
    scenario: str  # scenario file stem, e.g. "cs1"
    fault: FaultSpec
    expected_violation: str

    @property
    def component(self) -> ComponentId:
        return self.fault.target

    def to_dict(self) -> dict:
        return {"id": self.id, "scenario": f"{self.scenario}.json",
                "fault": self.fault.to_dict(),
                "expected_violation": self.expected_violation}


def _f(target: str, kind: str, t0: int = 0, t1: int | None = None,
       object_id: str | None = None, **magnitude) -> FaultSpec:
    from .faults import Trigger
    return FaultSpec(target=ComponentId(target), kind=kind,
                     trigger=Trigger(t0=t0, t1=t1 if t1 is not None else 1 << 62,
                                     object_id=object_id),
                     magnitude=dict(magnitude))


def builtin_instances() -> list[BenchInstance]:
    sd = "safe_distance"
    mi = "mission"
    rows: list[tuple[str, str, FaultSpec, str]] = [
        # perception: miss detection
        ("cs1_perc_miss", "cs1", _f("perception", "miss_detection", object_id="ped"), sd),
        ("cs2_perc_miss", "cs2", _f("perception", "miss_detection", object_id="lead"), sd),
        ("cs3_perc_miss", "cs3", _f("perception", "miss_detection", object_id="cone"), sd),
        ("cs4_perc_miss", "cs4", _f("perception", "miss_detection", object_id="parked"), sd),
        # perception: wrong bounding box
        ("cs4_perc_bbox", "cs4", _f("perception", "wrong_bbox", object_id="parked",
                                    dwidth=-1.5), sd),
        # perception: wrong longitudinal distance
        ("cs1_perc_long", "cs1", _f("perception", "wrong_longitudinal_distance",
                                    object_id="ped", offset=25.0), sd),
        ("cs2_perc_long", "cs2", _f("perception", "wrong_longitudinal_distance",
                                    object_id="lead", offset=20.0), sd),
        ("cs3_perc_long", "cs3", _f("perception", "wrong_longitudinal_distance",
                                    object_id="cone", offset=25.0), sd),
        ("cs4_perc_long", "cs4", _f("perception", "wrong_longitudinal_distance",
                                    object_id="parked", offset=25.0), sd),
        # perception: wrong lateral distance
        ("cs1_perc_lat", "cs1", _f("perception", "wrong_lateral_distance",
                                   object_id="ped", offset=6.0), sd),
        ("cs2_perc_lat", "cs2", _f("perception", "wrong_lateral_distance",
                                   object_id="lead", offset=4.0), sd),
        ("cs3_perc_lat", "cs3", _f("perception", "wrong_lateral_distance",
                                   object_id="cone", offset=3.0), sd),
        ("cs4_perc_lat", "cs4", _f("perception", "wrong_lateral_distance",
                                   object_id="parked", offset=-3.0), sd),
        # perception: wrong velocity
        ("cs1_perc_vel", "cs1", _f("perception", "wrong_velocity",
                                   object_id="ped", dv=-5.2), sd),
        ("cs2_perc_vel", "cs2", _f("perception", "wrong_velocity",
                                   object_id="lead", dv=5.0), sd),
        ("cs3_perc_vel", "cs3", _f("perception", "wrong_velocity",
                                   object_id="cone", dv=5.0), sd),
        ("cs4_perc_vel", "cs4", _f("perception", "wrong_velocity",
                                   object_id="parked", dv=5.0), sd),
        # prediction
        ("cs1_pred_none", "cs1", _f("prediction", "no_prediction_trajectory",
                                    object_id="ped"), sd),
        ("cs1_pred_wrong", "cs1", _f("prediction", "wrong_prediction_trajectory",
                                     object_id="ped", mode="static"), sd),
        ("cs2_pred_wrong", "cs2", _f("prediction", "wrong_prediction_trajectory", t0=5000,
                                     object_id="lead", mode="departing", speed=5.0), sd),
        ("cs3_pred_wrong", "cs3", _f("prediction", "wrong_prediction_trajectory",
                                     object_id="cone", mode="departing", speed=5.0), sd),
        ("cs4_pred_wrong", "cs4", _f("prediction", "wrong_prediction_trajectory",
                                     object_id="parked", mode="departing", speed=5.0), sd),
        # planning: path
        ("cs3_plan_path", "cs3", _f("planning", "incorrect_path_planning", t0=3000,
                                    lateral_bias=-1.0), sd),
        ("cs4_plan_path", "cs4", _f("planning", "incorrect_path_planning", t0=3000,
                                    lateral_bias=-1.2), sd),
        ("cs5_plan_path", "cs5", _f("planning", "incorrect_path_planning", t0=4000,
                                    lateral_bias=1.2), sd),
        # planning: speed
        ("cs1_plan_speed", "cs1", _f("planning", "incorrect_speed_planning", t0=3000), sd),
        ("cs2_plan_speed", "cs2", _f("planning", "incorrect_speed_planning", t0=5000), sd),
        ("cs3b_plan_speed", "cs3b", _f("planning", "incorrect_speed_planning",
                                       t0=8000), sd),
        # planning: no trajectory
        ("cs1_plan_none", "cs1", _f("planning", "no_planning_trajectory", t0=3000), mi),
        ("cs2_plan_none", "cs2", _f("planning", "no_planning_trajectory", t0=3000), mi),
        ("cs3_plan_none", "cs3", _f("planning", "no_planning_trajectory", t0=3000), mi),
        ("cs4_plan_none", "cs4", _f("planning", "no_planning_trajectory", t0=3000), mi),
        ("cs5_plan_none", "cs5", _f("planning", "no_planning_trajectory", t0=4000), mi),
        # control
        ("cs1_ctrl_long", "cs1", _f("control", "wrong_longitudinal_command", t0=4000,
                                    offset=6.0), sd),
        ("cs2_ctrl_long", "cs2", _f("control", "wrong_longitudinal_command", t0=5000,
                                    offset=6.0), sd),
        ("cs3b_ctrl_long", "cs3b", _f("control", "wrong_longitudinal_command", t0=10000,
                                      offset=6.0), sd),
        ("cs4b_ctrl_long", "cs4b", _f("control", "wrong_longitudinal_command", t0=10000,
                                      offset=6.0), sd),
        ("cs5_ctrl_lat", "cs5", _f("control", "wrong_lateral_command", t0=4000,
                                   offset=0.25), sd),
        # localization
        ("cs5_loc_lat", "cs5", _f("localization", "wrong_lateral_localization", t0=5000,
                                  offset=1.5), sd),
        ("cs5_loc_lat2", "cs5", _f("localization", "wrong_lateral_localization", t0=7000,
                                   offset=-1.2), sd),
        ("cs5_loc_lat3", "cs5", _f("localization", "wrong_lateral_localization", t0=4000,
                                   offset=2.0), sd),
        ("cs5_loc_lat4", "cs5", _f("localization", "wrong_lateral_localization", t0=9000,
                                   offset=1.6), sd),
    ]
    return [BenchInstance(i, s, f, v) for i, s, f, v in rows]


# ---------------------------------------------------------------------------
# data files


def data_dir() -> Path:
    return Path(str(resources.files("causetrace").joinpath("data")))


def scenario_path(name: str) -> Path:
    return data_dir() / "scenarios" / f"{name}.json"


def load_builtin_scenario(name: str) -> Scenario:
    return load_scenario(scenario_path(name))


def write_data_files(root: Path | None = None) -> None:
    """Regenerate scenario files and benchmark.json from the frozen definitions."""
    root = root or data_dir()
    (root / "scenarios").mkdir(parents=True, exist_ok=True)
    for name, builder in BUILDERS.items():
        doc = builder()
        scenario_from_dict(doc)  # validate before writing
        (root / "scenarios" / f"{name}.json").write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    bench = {"instances": [inst.to_dict() for inst in builtin_instances()]}
    (root / "benchmark.json").write_text(json.dumps(bench, indent=2) + "\n",
                                         encoding="utf-8")


def load_benchmark(path: Path | None = None) -> list[BenchInstance]:
    """Instances of a benchmark file; malformed ones raise ParseError /
    ValidationError with a path such as `instances[0].scenario`."""
    path = path or (data_dir() / "benchmark.json")
    doc = expect(json.loads(Path(path).read_text(encoding="utf-8")), dict, "top level")
    out = []
    for i, raw in enumerate(expect(doc.get("instances"), list, "instances")):
        where = f"instances[{i}]"
        expect(raw, dict, where)
        out.append(BenchInstance(
            id=expect(raw.get("id"), str, f"{where}.id"),
            scenario=Path(expect(raw.get("scenario"), str, f"{where}.scenario")).stem,
            fault=fault_from_dict(raw.get("fault"), f"{where}.fault"),
            expected_violation=expect(raw.get("expected_violation"), str,
                                      f"{where}.expected_violation"),
        ))
    return out


def scenario_for_instance(inst: BenchInstance, scenario_dir: Path | None = None) -> Scenario:
    base = scenario_dir or (data_dir() / "scenarios")
    return load_scenario(base / f"{inst.scenario}.json")


# ---------------------------------------------------------------------------
# benchmark execution


def run_instance(inst: BenchInstance, strategy: str = "binary",
                 audit_monotonicity: bool = False,
                 scenario_dir: Path | None = None) -> dict:
    """Attribute one instance; never raises, failures land in the row."""
    import time as _time

    from .attribution import attribute
    from .oracles import OracleConfig
    from .runner import AdsConfig

    scenario = scenario_for_instance(inst, scenario_dir)
    ads = AdsConfig(faults=[inst.fault])
    row = {
        "id": inst.id,
        "scenario": inst.scenario,
        "expected_component": inst.component.value,
        "expected_violation": inst.expected_violation,
    }
    t0 = _time.perf_counter()
    try:
        report = attribute(scenario, ads, OracleConfig(), strategy=strategy,
                           audit_monotonicity=audit_monotonicity)
    except Exception as exc:
        row.update({"error": f"{type(exc).__name__}: {exc}",
                    "component_success": False, "message_success": False,
                    "wall_time_s": _time.perf_counter() - t0})
        return row
    near = (not report.focus_fault_affected
            and report.focus_affected_gap_ms is not None
            and report.focus_affected_gap_ms <= 1000)
    row.update({
        "component_vi": report.component_vi,
        "component_success": report.component_vi == inst.component.value,
        "focus_seq": report.focus_seq,
        "focus_t": report.focus_t,
        "message_success": bool(report.focus_fault_affected),
        "miss_within_1s": bool(near),
        "focus_affected_gap_ms": report.focus_affected_gap_ms,
        "message_total": report.message_total,
        "reduction_rate": report.reduction_rate,
        "state_count": report.state_count,
        "dtest_component_level": report.dtest_component_level,
        "dtest_message_level": report.dtest_message_level,
        "simulations_total": report.simulations_total,
        "monotonicity_audit": report.monotonicity_audit,
        "wall_time_s": report.wall_time_s,
    })
    return row


def _worker(args: tuple) -> dict:
    inst_doc, strategy, audit, scenario_dir = args
    inst = BenchInstance(
        id=inst_doc["id"], scenario=Path(inst_doc["scenario"]).stem,
        fault=fault_from_dict(inst_doc["fault"]),
        expected_violation=inst_doc["expected_violation"],
    )
    return run_instance(inst, strategy, audit,
                        Path(scenario_dir) if scenario_dir else None)


def run_benchmark(instances: list[BenchInstance], parallel: int = 1,
                  strategy: str = "binary", audit_monotonicity: bool = False,
                  scenario_dir: Path | None = None) -> dict:
    """Attribute every instance and aggregate the per-component result table."""
    jobs = [(inst.to_dict(), strategy, audit_monotonicity,
             str(scenario_dir) if scenario_dir else None) for inst in instances]
    if parallel > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as ex:
            rows = list(ex.map(_worker, jobs))
    else:
        rows = [_worker(j) for j in jobs]
    components = ["perception", "prediction", "planning", "control", "localization"]
    table = {}
    for comp in components:
        sub = [r for r in rows if r["expected_component"] == comp]
        if not sub:
            continue
        n = len(sub)
        table[comp] = {
            "instances": n,
            "component_success_rate": sum(r["component_success"] for r in sub) / n,
            "message_success_rate": sum(r.get("message_success", False) for r in sub) / n,
            "avg_reduction_rate": sum(r.get("reduction_rate", 0.0) for r in sub) / n,
            "avg_wall_time_s": sum(r["wall_time_s"] for r in sub) / n,
        }
    total = len(rows)
    summary = {
        "rows": rows,
        "table": table,
        "overall": {
            "instances": total,
            "component_success_rate":
                sum(r["component_success"] for r in rows) / total if total else 0.0,
            "message_success_rate":
                sum(r.get("message_success", False) for r in rows) / total if total else 0.0,
        },
    }
    return summary


def summary_table_csv(summary: dict) -> str:
    lines = ["component,instances,component_success_rate,message_success_rate,"
             "avg_reduction_rate,avg_wall_time_s"]
    for comp, row in summary["table"].items():
        lines.append(
            f"{comp},{row['instances']},{row['component_success_rate']:.4f},"
            f"{row['message_success_rate']:.4f},{row['avg_reduction_rate']:.6f},"
            f"{row['avg_wall_time_s']:.2f}")
    return "\n".join(lines) + "\n"
