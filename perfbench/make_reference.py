"""Regenerate perfbench/reference.json, the golden results the benchmark checks.

    python3 perfbench/make_reference.py

Runs every operation of every workload once, serially, and records:

* attribution ops: the sha256 of ``report.to_dict()`` without ``wall_time_s``,
  the attributed component (which must equal the instance's expected one), and
  the number of simulations and simulated ms it took, which choose the
  attr-single-object sample;
* run ops: the trace digest and the verdict (pass flag, violation kinds and times).

A benchmark run whose results differ from this file counts the op as failed.
Regenerate it only for a deliberate behaviour change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import time

import workloads
from tracer import Tracer, op_counts


def main() -> int:
    workloads.import_program()
    instances, scenarios = workloads.load_inputs()
    ops = workloads.Operations(instances, scenarios, reference={})
    keys = list(dict.fromkeys(key for name in workloads.WORKLOADS
                              for key in workloads.workload_keys(name, instances, scenarios)))
    reference = {}
    tracer = Tracer()
    for key in keys:
        t0 = time.perf_counter()
        tracer.install()
        try:
            entry = ops.result(key)
        finally:
            tracer.uninstall()
        counts = op_counts(tracer, {})
        expected = ops.expected_component(key)
        if expected is not None:
            if entry["component"] != expected:
                raise SystemExit(f"{key}: attributed {entry['component']}, "
                                 f"expected {expected}")
            entry.update(simulations=counts["simulations"], sim_ms=counts["sim_ms"])
        reference[key] = entry
        print(f"{key:32s} {time.perf_counter() - t0:7.3f} s", flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
