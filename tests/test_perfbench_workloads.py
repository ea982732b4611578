"""The benchmark's workload builder (perfbench/workloads.py) imports names from
causetrace, among them `benchmark.BUILDERS` for the scenario names. Renaming or
deleting one breaks every perfbench run; this test catches that, and checks that
every operation a workload generates has a reference result."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads_module()


@pytest.mark.parametrize("workload, n_ops", [("attr-single-object", 35),
                                             ("attr-curbs", 7), ("run-trace", 49)])
def test_workload_keys_have_reference_results(workload, n_ops):
    instances, scenarios = WORKLOADS.load_inputs()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    keys = WORKLOADS.workload_keys(workload, instances, scenarios)
    assert len(keys) == len(set(keys)) == n_ops
    assert all(key in reference for key in keys)
