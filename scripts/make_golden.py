"""Regenerate tests/golden.json, the behaviour lock of the frozen benchmark.

For every one of the 42 instances in src/causetrace/data/benchmark.json (the
only copy of the frozen benchmark) this runs `attribute()` once with the
default configuration and records three things:

* ``trace_digest``: the sha256 of the serialized original (faulted) run, as
  `causetrace run` writes it, taken before `split_trace` annotates states;
* ``report_sha256``: the sha256 of the attribution report (`to_dict()`,
  keys sorted, ``wall_time_s`` removed), taken by the benchmark's own
  ``perfbench/workloads.report_sha256``;
* ``reruns``: every counterfactual re-run in the order it was simulated,
  one ``[components, mode, where, passed]`` row each. ``components`` joins the
  substituted components with ``+``; ``where`` is null for a whole-run
  substitution, the start state index for a suffix one and ``[a, b]`` for a
  state interval. Cache hits are not re-runs and are not listed.

tests/test_golden.py checks the code against this file. Regenerate it only
for a deliberate behaviour change, and write that change up when you do:

    PYTHONPATH=src python scripts/make_golden.py            # all instances
    PYTHONPATH=src python scripts/make_golden.py cs1_pred_none ...   # print only
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from causetrace import attribution
from causetrace.benchmark import load_benchmark, load_builtin_scenario
from causetrace.middleware import trace_digest
from causetrace.oracles import OracleConfig
from causetrace.runner import AdsConfig
from causetrace.substitutes import IdealAll, IdealFromState

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "golden.json"


def _load_perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# One digest for the golden lock and the benchmark's reference results.
report_sha256 = _load_perfbench_workloads().report_sha256


def _rerun_row(plan, passed: bool) -> list:
    modes = list(plan.modes.items())
    mode = modes[0][1]
    assert all(m == mode for _, m in modes), "one mode per re-run plan"
    if isinstance(mode, IdealAll):
        name, where = "ideal_all", None
    elif isinstance(mode, IdealFromState):
        name, where = "ideal_from_state", mode.index
    else:
        name, where = "ideal_within", [mode.a, mode.b]
    return ["+".join(c.value for c, _ in modes), name, where, passed]


def golden_entry(inst_id: str) -> dict:
    """Attribute one built-in instance and return its golden record."""
    inst = {i.id: i for i in load_benchmark()}[inst_id]
    scenario = load_builtin_scenario(inst.scenario)
    digests: list[str] = []
    reruns: list[list] = []
    real_rtest = attribution.rtest
    real_rerun = attribution.run_with_substitution

    def rtest(*args, **kwargs):
        result = real_rtest(*args, **kwargs)
        digests.append(trace_digest(result.trace))
        return result

    def run_with_substitution(scenario, ads, plan, oracles, **kwargs):
        verdict, trace = real_rerun(scenario, ads, plan, oracles, **kwargs)
        reruns.append(_rerun_row(plan, verdict.passed))
        return verdict, trace

    attribution.rtest = rtest
    attribution.run_with_substitution = run_with_substitution
    try:
        report = attribution.attribute(scenario, AdsConfig(faults=[inst.fault]),
                                       OracleConfig())
    finally:
        attribution.rtest = real_rtest
        attribution.run_with_substitution = real_rerun
    return {
        "trace_digest": digests[0],
        "report_sha256": report_sha256(report),
        "reruns": reruns,
    }


def main(argv: list[str]) -> int:
    if argv:
        for inst_id in argv:
            print(inst_id, json.dumps(golden_entry(inst_id)))
        return 0
    golden = {}
    for inst in load_benchmark():
        golden[inst.id] = golden_entry(inst.id)
        print(f"{inst.id}: {len(golden[inst.id]['reruns'])} re-runs", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
