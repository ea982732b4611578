"""Command-line entry point.

    causetrace run SCENARIO [--fault F] ...        simulate and report the verdict
    causetrace attribute SCENARIO --fault F ...    full cause attribution
    causetrace bench [--benchmark B] ...           run the whole fault benchmark
    causetrace replay TRACE [--scenario S] ...     CSV plot data from a trace

Exit codes: 0 pass, 1 violation, 2 error, 3 no violation to attribute,
4 unattributable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from .attribution import (STRATEGIES, MonotonicityViolation, NoViolatingPlanningMessage,
                          NoViolation, Unattributable, attribute, check_options,
                          verdict_matrix_csv)
from .benchmark import load_benchmark, run_benchmark, summary_table_csv
from .faults import load_fault_file
from .geometry import OrientedBox, min_obb_distance
from .middleware import load_trace_records, serialize_trace
from .oracles import ALL_KINDS, OracleConfig, carried_heading
from .runner import AdsConfig, rtest
from .scenario import (ParseError, Scenario, ValidationError, Waypoint, bbox_at, expect,
                       load_json, load_scenario, parse_number, record)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_NO_VIOLATION = 3
EXIT_UNATTRIBUTABLE = 4


def _load_oracle_config(path: str | None) -> OracleConfig:
    if path is None:
        return OracleConfig()
    numbers = ("safe_distance_c", "dest_tolerance", "speed_tolerance")
    doc = record(load_json(path), "", optional=("enabled", *numbers))
    enabled = expect(doc.get("enabled", list(ALL_KINDS)), list, "enabled")
    for i, kind in enumerate(enabled):
        if kind not in ALL_KINDS:
            raise ValidationError(f"enabled[{i}]", f"unknown oracle {kind!r}")
    return OracleConfig(enabled=tuple(enabled),
                        **{k: parse_number(doc[k], k) for k in numbers if k in doc})


def _load_inputs(args) -> tuple[Scenario, AdsConfig, OracleConfig]:
    scenario = load_scenario(args.scenario)
    faults = load_fault_file(args.fault) if args.fault else []
    return scenario, AdsConfig(faults=faults), _load_oracle_config(args.oracle_config)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    scenario, ads, oracles = _load_inputs(args)
    result = rtest(scenario, ads, oracles)
    text = serialize_trace(result.trace)
    out = _out_dir(args)
    (out / "trace.jsonl").write_text(text, encoding="utf-8")
    (out / "verdict.json").write_text(json.dumps({
        "passed": result.verdict.passed,
        "violations": result.verdict.violations,
        "messages": result.trace.message_count(),
        "trace_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }, indent=2) + "\n", encoding="utf-8")
    if result.verdict.passed:
        print(f"pass: no violation in {scenario.t_max} ms "
              f"({result.trace.message_count()} messages)")
        return EXIT_PASS
    for v in result.verdict.violations:
        print(f"violation: {v['kind']} at t={v['t']} ms "
              + json.dumps({k: v[k] for k in v if k not in ('kind', 't')}))
    return EXIT_VIOLATION


def cmd_attribute(args) -> int:
    scenario, ads, oracles = _load_inputs(args)
    try:
        report = attribute(scenario, ads, oracles, strategy=args.strategy,
                           audit_monotonicity=args.audit_monotonicity)
    except NoViolation:
        print("scenario run passed; nothing to attribute", file=sys.stderr)
        return EXIT_NO_VIOLATION
    except Unattributable as exc:
        print(f"unattributable: {exc.outcomes}", file=sys.stderr)
        return EXIT_UNATTRIBUTABLE
    except MonotonicityViolation as exc:
        print(f"monotonicity audit failed; binary search not trustworthy: "
              f"{exc.outcomes}", file=sys.stderr)
        return EXIT_ERROR
    except NoViolatingPlanningMessage as exc:
        print(f"planning attributed but no violating output message found: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    out = _out_dir(args)
    doc = report.to_dict()
    matrix = doc.pop("verdict_matrix")
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    (out / "verdict_matrix.csv").write_text(verdict_matrix_csv(matrix), encoding="utf-8")
    print(f"violation-inducing component: {report.component_vi}")
    print(f"focus message: {report.focus_component} seq={report.focus_seq} "
          f"t={report.focus_t} ms (state {report.focus_state_index})")
    print(f"reduction rate: {report.reduction_rate:.6f} over "
          f"{report.message_total} messages")
    print(f"re-runs: {report.dtest_component_level} component-level + "
          f"{report.dtest_message_level} message-level "
          f"({report.simulations_total} simulations total)")
    print(f"re-run cost: {report.rerun_stepped_ms} simulated ms stepped, "
          f"{report.rerun_prefix_decided} re-runs decided from the original run's prefix, "
          f"{report.rerun_merged} merged into an earlier re-run at a frame, "
          f"{report.rerun_fast_forwarded} fast-forwarded at rest")
    print(f"wall time: {report.wall_time_s:.2f} s")
    return EXIT_PASS


def cmd_bench(args) -> int:
    instances = load_benchmark(Path(args.benchmark) if args.benchmark else None)
    scenario_dir = Path(args.scenario_dir) if args.scenario_dir else None
    summary = run_benchmark(instances, parallel=args.parallel, strategy=args.strategy,
                            audit_monotonicity=args.audit_monotonicity,
                            scenario_dir=scenario_dir)
    out = _out_dir(args)
    (out / "bench_summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                            encoding="utf-8")
    (out / "bench_table.csv").write_text(summary_table_csv(summary), encoding="utf-8")
    print(summary_table_csv(summary))
    ov = summary["overall"]
    print(f"overall: {ov['instances']} instances, "
          f"component success {ov['component_success_rate']:.0%}, "
          f"message success {ov['message_success_rate']:.0%}")
    return EXIT_PASS


def cmd_replay(args) -> int:
    ego = [Waypoint(r["p"], r["v"], r["a"], r["t"])
           for r in load_trace_records(args.trace) if r["kind"] == "ego"]
    if not ego:
        print("trace has no ego samples", file=sys.stderr)
        return EXIT_ERROR
    scenario = load_scenario(args.scenario) if args.scenario else None
    out = _out_dir(args)
    lines = ["t_ms,ego_x,ego_y,ego_speed,min_distance,nearest_object"]
    if scenario is not None:
        heading = scenario.a_init[1]
        for w in ego:
            heading = carried_heading(w, heading)
            box = OrientedBox(w.p, scenario.ego_half, heading)
            best, best_id = float("inf"), ""
            for obj in scenario.objects:
                d = min_obb_distance(box, bbox_at(obj, w.t))
                if d < best:
                    best, best_id = d, obj.id
            lines.append(f"{w.t},{w.p[0]!r},{w.p[1]!r},{math.hypot(*w.v)!r},"
                         f"{best!r},{best_id}")
    else:
        for w in ego:
            lines.append(f"{w.t},{w.p[0]!r},{w.p[1]!r},{math.hypot(*w.v)!r},,")
    (out / "replay.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(ego)} samples to {out / 'replay.csv'}")
    return EXIT_PASS


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="causetrace", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out-dir", default="out")

    sp = sub.add_parser("run", help="simulate a scenario and evaluate the oracles")
    sp.add_argument("scenario")
    sp.add_argument("--fault", default=None, help="fault spec JSON file")
    sp.add_argument("--oracle-config", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("attribute", help="attribute a violation to a component/message")
    sp.add_argument("scenario")
    sp.add_argument("--fault", default=None)
    sp.add_argument("--oracle-config", default=None)
    sp.add_argument("--strategy", choices=STRATEGIES, default="binary")
    sp.add_argument("--audit-monotonicity", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_attribute)

    sp = sub.add_parser("bench", help="run the frozen fault benchmark")
    sp.add_argument("--benchmark", default=None, help="benchmark JSON (default: built-in)")
    sp.add_argument("--scenario-dir", default=None)
    sp.add_argument("--parallel", type=_worker_count, default=1,
                    help="worker processes (at most one per instance)")
    sp.add_argument("--strategy", choices=STRATEGIES, default="binary")
    sp.add_argument("--audit-monotonicity", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("replay", help="emit CSV plot data from a trace file")
    sp.add_argument("trace")
    sp.add_argument("--scenario", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_replay)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "strategy"):
        try:
            check_options(args.strategy, args.audit_monotonicity)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.fn(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
