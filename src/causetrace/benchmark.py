"""Frozen injected-fault benchmark: scenario archetypes plus fault instances.

Five collision archetypes: CS1 in-road pedestrian, CS2 front vehicle, CS3
in-road static object, CS4 parked roadside vehicle, CS5 infrastructure contact
through lane deviation. CS3/CS4 each have a stop-response geometry variant
(cs3b/cs4b) used by the faults whose mechanism needs a braking phase rather
than a nudge. Every instance freezes one fault spec, magnitudes included, and
records the violation kind it provokes.

The files under `data/` (benchmark.json and one scenario file per name in
`ARCHETYPE`) are the only copy of the benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

from .attribution import attribute, check_options
from .faults import FaultSpec, fault_from_dict
from .middleware import ComponentId
from .oracles import ALL_KINDS, OracleConfig
from .runner import AdsConfig
from .scenario import Scenario, ValidationError, expect, load_json, load_scenario, record

# Every scenario file name, and the archetype it realizes (cs3b/cs4b are
# geometry variants).
ARCHETYPE = {"cs1": "CS1", "cs2": "CS2", "cs3": "CS3", "cs3b": "CS3",
             "cs4": "CS4", "cs4b": "CS4", "cs5": "CS5"}
# The frozen perfbench/workloads.py reads the scenario names as sorted(BUILDERS).
BUILDERS = ARCHETYPE


@dataclass(frozen=True)
class BenchInstance:
    id: str
    scenario: str  # scenario file stem, e.g. "cs1"
    fault: FaultSpec
    expected_violation: str

    @property
    def component(self) -> ComponentId:
        return self.fault.target


# ---------------------------------------------------------------------------
# data files


def data_dir() -> Path:
    return Path(str(resources.files("causetrace").joinpath("data")))


def scenario_path(name: str) -> Path:
    return data_dir() / "scenarios" / f"{name}.json"


def load_builtin_scenario(name: str) -> Scenario:
    return load_scenario(scenario_path(name))


def load_benchmark(path: Path | None = None) -> list[BenchInstance]:
    """Instances of a benchmark file; malformed ones raise ParseError /
    ValidationError with a path such as `instances[0].scenario`. Ids are unique,
    and each expected violation is an oracle kind."""
    path = path or (data_dir() / "benchmark.json")
    doc = record(load_json(path), "", ("instances",))
    out = []
    for i, raw in enumerate(expect(doc["instances"], list, "instances")):
        where = f"instances[{i}]"
        record(raw, where, ("id", "scenario", "fault", "expected_violation"))
        inst_id = expect(raw["id"], str, f"{where}.id")
        if any(inst.id == inst_id for inst in out):
            raise ValidationError(f"{where}.id", f"duplicate id {inst_id!r}")
        kind = expect(raw["expected_violation"], str, f"{where}.expected_violation")
        if kind not in ALL_KINDS:
            raise ValidationError(f"{where}.expected_violation", f"unknown kind {kind!r}")
        out.append(BenchInstance(
            id=inst_id,
            scenario=Path(expect(raw["scenario"], str, f"{where}.scenario")).stem,
            fault=fault_from_dict(raw["fault"], f"{where}.fault"),
            expected_violation=kind,
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
    """Attribute one instance; a failed attribution lands in the row, a bad scenario raises."""
    scenario = scenario_for_instance(inst, scenario_dir)
    ads = AdsConfig(faults=[inst.fault])
    row = {
        "id": inst.id,
        "scenario": inst.scenario,
        "expected_component": inst.component.value,
        "expected_violation": inst.expected_violation,
    }
    t0 = time.perf_counter()
    try:
        report = attribute(scenario, ads, OracleConfig(), strategy=strategy,
                           audit_monotonicity=audit_monotonicity)
    except Exception as exc:
        row.update({"error": f"{type(exc).__name__}: {exc}",
                    "component_success": False, "message_success": False,
                    "wall_time_s": time.perf_counter() - t0})
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
        # The re-run cost that AttributionReport.to_dict leaves out.
        "rerun_stepped_ms": report.rerun_stepped_ms,
        "rerun_prefix_decided": report.rerun_prefix_decided,
        "rerun_merged": report.rerun_merged,
        "rerun_fast_forwarded": report.rerun_fast_forwarded,
    })
    return row


def run_benchmark(instances: list[BenchInstance], parallel: int = 1,
                  strategy: str = "binary", audit_monotonicity: bool = False,
                  scenario_dir: Path | None = None) -> dict:
    """Attribute every instance and aggregate the per-component result table.
    Options `attribute` would reject raise ValueError before any instance runs."""
    check_options(strategy, audit_monotonicity)
    run = partial(run_instance, strategy=strategy, audit_monotonicity=audit_monotonicity,
                  scenario_dir=scenario_dir)
    workers = min(parallel, len(instances))  # the pool forks them all at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as ex:
            rows = list(ex.map(run, instances))
    else:
        rows = [run(inst) for inst in instances]
    table = {}
    for comp in ComponentId:
        sub = [r for r in rows if r["expected_component"] == comp.value]
        if not sub:
            continue
        n = len(sub)
        table[comp.value] = {
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
