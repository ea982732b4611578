"""Self-check: tracing must not change results, and counts must repeat.

    python3 perfbench/selfcheck.py [--ops 3] [--seed 0]

For each workload, takes the first ``--ops`` operations of the seed's first
round and runs each one plain, traced, and traced again with a fresh tracer.
All three results must match each other and perfbench/reference.json, and the
two traced runs must give identical deterministic counts. Exit code 0 when
everything matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import workloads
from tracer import Tracer, op_counts


def traced_run(ops, key: str):
    tracer = Tracer()
    execute = tracer.span("op", ops.execute)
    tracer.install()
    try:
        outcome = execute(key)
    finally:
        tracer.uninstall()
    return outcome, op_counts(tracer, {})


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--ops", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    workloads.import_program()
    reference = workloads.load_reference()
    instances, scenarios = workloads.load_inputs()
    ops = workloads.Operations(instances, scenarios, reference)
    bad = 0
    for name in workloads.WORKLOADS:
        keys = workloads.workload_keys(name, instances, scenarios)
        for key in workloads.Rounds(name, keys, reference, args.seed).next()[:args.ops]:
            plain = ops.execute(key)
            first, counts = traced_run(ops, key)
            second, counts_again = traced_run(ops, key)
            ok = (plain.ok and first.ok and second.ok
                  and plain.detail == first.detail == second.detail
                  and counts == counts_again)
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:20s} {key:28s} {plain.detail[:16]} "
                  f"sims={counts['simulations']} sim_ms={counts['sim_ms']}")
            if not ok:
                print(f"     plain={plain} traced={first} again={second}")
                print(f"     counts={counts}\n     again={counts_again}")
    print("selfcheck", "passed" if not bad else f"FAILED on {bad} ops")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
