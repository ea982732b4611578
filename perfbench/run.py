"""causetrace benchmark: one serial closed-loop client, golden-checked ops.

    python3 perfbench/run.py --workload attr-curbs --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
The seed draws the operation sequence (see ``workloads.Rounds``). The client
sends its next operation only when the previous one has completed, and runs
whole rounds until ``--seconds`` have passed, so every run of a workload
measures the same mix of operations.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
operation twice, once plain and once traced, and prints the per-layer
metrics together with the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import workloads
from speed import Speed
from workloads import HERE, SRC, Outcome

SETUP_PROBES = 9
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
OUT = HERE / "out"


def setup_probe() -> float:
    """Set-up seconds measured in a fresh process (see setup_probe.py)."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (nearest rank);
    the median when there are too few samples for any.
    Returns (percentile, value, samples beyond it)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, key: str) -> tuple[Outcome, float]:
    start = time.perf_counter()
    try:
        outcome = fn(key)
    except Exception as exc:  # a failing op is counted, never fatal
        outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
    return outcome, time.perf_counter() - start


def source_fingerprint() -> str:
    """Digest of the program and benchmark sources: "the same commit"."""
    h = hashlib.sha256()
    for base in (SRC / "causetrace", HERE):
        for path in sorted(p for p in base.rglob("*") if p.suffix in (".py", ".json")
                           and OUT not in p.parents):
            h.update(path.relative_to(base).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Result:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, key: str, outcome: Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.problems.append(f"{key}: {outcome.detail}")


def run_plain(ops, rounds, seconds: float, result: Result) -> dict:
    """Whole rounds until the ops have taken `seconds`. Timings are reported
    in reference seconds (see speed.py). The set-up probes are spread over the
    first round, so that they see the machine as the ops do."""
    setup_probe()  # untimed: fills the bytecode cache, as any earlier run would
    speed = Speed()
    setups, latencies = [], []
    n_rounds = 0
    while sum(latencies) < seconds:
        keys = rounds.next()
        probe_at = set() if n_rounds else {len(keys) * j // SETUP_PROBES
                                           for j in range(SETUP_PROBES)}
        for i, key in enumerate(keys):
            if i in probe_at:
                setups.append(setup_probe())
            outcome, latency = timed(ops.execute, key)
            speed.sample()
            latencies.append(latency)
            result.record(key, outcome)
            print(f"op {key} {latency:.4f} s, peak rss {peak_rss_mb():.1f} MB")
        n_rounds += 1
    factor = speed.factor()
    pct, tail_value, beyond = tail(latencies)
    print(f"{n_rounds} rounds, {len(latencies)} ops in {sum(latencies):.3f} s; "
          f"latency_s.tail is p{pct:g} over {len(latencies)} samples, "
          f"{beyond} beyond it; setup_s is the median of {len(setups)} probes")
    print(f"measured seconds times {factor:.4f} give reference seconds; measured: "
          f"setup_s {statistics.median(setups):.6f}, "
          f"latency_s.p50 {statistics.median(latencies):.6f}, "
          f"ops_per_s {len(latencies) / sum(latencies):.6f}")
    return {
        "setup_s": (statistics.median(setups) * factor, "s"),
        "latency_s.p50": (statistics.median(latencies) * factor, "s"),
        "latency_s.tail": (tail_value * factor, "s"),
        "ops_per_s": (len(latencies) / (sum(latencies) * factor), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_traced(ops, rounds, seconds: float, result: Result, workload: str,
               seed: int) -> dict:
    from tracer import Tracer, op_counts

    tracer = Tracer()
    traced_execute = tracer.span("op", ops.execute)
    setups = 3
    tracer.install()
    try:
        for _ in range(setups):
            workloads.load_inputs()
    finally:
        tracer.uninstall()
    per_key: dict[str, dict] = {}
    totals: dict[str, int] = {}
    plain_s = traced_s = 0.0
    n = 0

    def plain(key):
        nonlocal plain_s
        outcome, latency = timed(ops.execute, key)
        plain_s += latency
        result.record(key, outcome)

    def traced(key):
        nonlocal traced_s
        calls_before = tracer.acc_calls()
        tracer.install()
        try:
            outcome, latency = timed(traced_execute, key)
        finally:
            tracer.uninstall()
        traced_s += latency
        result.record(key, outcome)
        counts = op_counts(tracer, calls_before)
        if per_key.setdefault(key, counts) != counts:
            result.problems.append(f"{key}: counts differ within the run")
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for key in rounds.next():
            n += 1
            tracer.op = n
            # alternate which side runs first so drift hits both alike
            for run in ((plain, traced) if n % 2 else (traced, plain)):
                run(key)
    check_counts_across_runs(per_key, result)
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
    print(f"{n} ops traced and run plain; spans in {OUT.name}/")
    return layer_metrics(tracer, totals, n, setups, traced_s / plain_s)


def check_counts_across_runs(per_key: dict, result: Result) -> None:
    """Deterministic counts of an op must repeat exactly for the same sources."""
    path = OUT / f"counts-{source_fingerprint()}.json"
    seen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key, counts in per_key.items():
        if key in seen and seen[key] != counts:
            diff = sorted(k for k in counts if seen[key].get(k) != counts[k])
            result.problems.append(f"{key}: counts differ from an earlier run: {diff}")
        seen.setdefault(key, counts)
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def layer_metrics(tracer, c: dict[str, int], n: int, setups: int,
                  overhead: float) -> dict:
    spans = tracer.span_totals()
    acc = tracer.acc

    def span_s(name, column=1):
        return spans.get(name, [0, 0, 0])[column] * 1e-9 / n

    def acc_s(name):
        return acc[name][1] * 1e-9 / n

    def per_op(name):
        return c.get(name, 0) / n

    def share(part, whole):
        return c[part] / c[whole] if c[whole] else 0.0

    sched_s = spans.get("runner.run_scheduler", [0, 0, 0])[1] * 1e-9
    m = {
        "runner.simulations_per_op": (per_op("simulations"), "count"),
        "runner.sim_ms_per_op": (per_op("sim_ms"), "ms"),
        "runner.sim_ms_per_s": (c["sim_ms"] / sched_s, "ms/s"),
        "runner.run_scheduler.self_s": (span_s("runner.run_scheduler", 2), "s"),
        "runner.rerun_prefix_ms_share": (share("rerun_prefix_ms", "rerun_ms"), "ratio"),
        "runner.rerun_post_verdict_ms_share":
            (share("rerun_post_verdict_ms", "rerun_ms"), "ratio"),
    }
    for comp in ("localization", "perception", "prediction", "planning", "control"):
        name = f"pipeline.{comp}_tick"
        m[f"{name}.s"] = (acc_s(name), "s")
        m[f"{name}.calls"] = (per_op(f"{name}.calls"), "count")
    m.update({
        "faults.apply.s": (acc_s("faults.apply"), "s"),
        "substitutes.ideal.s": (acc_s("substitutes.ideal"), "s"),
        "substitutes.split_trace.s": (span_s("substitutes.split_trace"), "s"),
        "world.step_ego.s": (acc_s("world.step_ego"), "s"),
        "world.step_ego.calls": (per_op("world.step_ego.calls"), "count"),
        "world.pose_at.s": (acc_s("world.pose_at"), "s"),
        "world.pose_at.calls": (per_op("world.pose_at.calls"), "count"),
        "scenario.bbox_at.s": (acc_s("scenario.bbox_at"), "s"),
        "scenario.bbox_at.calls": (per_op("scenario.bbox_at.calls"), "count"),
        "geometry.obb.calls": (sum(per_op(f"geometry.obb.{site}.calls")
                                   for site in ("runner", "oracles", "pipeline")), "count"),
        "geometry.obb.s.runner": (acc_s("geometry.obb.runner"), "s"),
        "geometry.obb.s.oracles": (acc_s("geometry.obb.oracles"), "s"),
        "geometry.obb.s.pipeline": (acc_s("geometry.obb.pipeline"), "s"),
        "oracles.evaluate.s": (span_s("oracles.evaluate"), "s"),
        "oracles.planning_scan.s": (acc_s("oracles.planning_scan"), "s"),
        "middleware.publish.s": (acc_s("middleware.publish"), "s"),
        "middleware.publish.calls": (per_op("middleware.publish.calls"), "count"),
        "middleware.serialize.s": (span_s("middleware.serialize"), "s"),
        "middleware.trace_bytes": (per_op("trace_bytes"), "bytes"),
        "attribution.component_level.s": (span_s("attribution.component_level"), "s"),
        "attribution.message_level.s": (span_s("attribution.message_level"), "s"),
        "attribution.rerun_cache_hit_ratio":
            (share("dtest_cache_hits", "dtest_calls"), "ratio"),
        "scenario.load.s": (spans["scenario.load"][1] * 1e-9 / setups, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        workloads.import_program()
        reference = workloads.load_reference()
    except (workloads.SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    instances, scenarios = workloads.load_inputs()
    ops = workloads.Operations(instances, scenarios, reference)
    keys = workloads.workload_keys(args.workload, instances, scenarios)
    rounds = workloads.Rounds(args.workload, keys, reference, args.seed)
    result = Result()
    print(f"workload {args.workload}, seed {args.seed}, {len(keys)} distinct ops")
    if args.trace:
        metrics = run_traced(ops, rounds, args.seconds, result, args.workload, args.seed)
    else:
        metrics = run_plain(ops, rounds, args.seconds, result)
    for problem in result.problems:
        print(f"FAILED {problem}")
    print(f"failed_op_ratio {result.failed}/{result.attempted}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
