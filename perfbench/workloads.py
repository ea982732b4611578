"""Operations, seeded workload generator and golden correctness check.

An operation is identified by a key:

* ``attr:<instance id>``  one ``attribute()`` call on a frozen benchmark instance;
* ``run:<instance id>``   one faulted ``rtest`` plus ``split_trace`` and
  ``trace_digest``, the sha256 of ``serialize_trace`` (the ``causetrace run`` path);
* ``run:nominal:<scenario>``  the same on an unfaulted scenario.

Every call into the program goes through a module attribute lookup
(``attribution.attribute``, ``runner.rtest``, ...), so a tracer that rebinds
those names sees the operation without any source change.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("attr-single-object", "attr-curbs", "run-trace")

# attr-single-object has 35 instances (about 100 s serially on 2 cores), too long
# for one run. Its rounds hold a fixed sample: every third instance in order of
# cost (simulated ms, a deterministic count), from the second cheapest, plus
# the costliest, which sets the process's peak memory. Every run measures the
# same ops, so medians do not depend on the seed, which draws only the order.
SAMPLE_STEP = 3


class SetupError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def import_program():
    """Import causetrace from this checkout's ``src`` and nowhere else."""
    if not (SRC / "causetrace" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'causetrace'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import causetrace
    if Path(causetrace.__file__).resolve().parent != SRC / "causetrace":
        raise SetupError(f"causetrace imported from {causetrace.__file__}, "
                         f"not from {SRC}")
    return causetrace


def load_inputs():
    """Load and validate benchmark.json and every scenario file it names."""
    from causetrace import benchmark
    instances = benchmark.load_benchmark()
    names = sorted(benchmark.BUILDERS)
    scenarios = {name: benchmark.load_builtin_scenario(name) for name in names}
    return {inst.id: inst for inst in instances}, scenarios


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def report_sha256(report) -> str:
    """Digest of an attribution report with its wall time removed."""
    doc = report.to_dict()
    del doc["wall_time_s"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_keys(workload: str, instances: dict, scenarios: dict) -> list[str]:
    """Every operation key of a workload, in a fixed order."""
    def objects(inst) -> int:
        return len(scenarios[inst.scenario].objects)

    if workload == "attr-single-object":
        return [f"attr:{i}" for i, inst in instances.items() if objects(inst) == 1]
    if workload == "attr-curbs":  # cs5, the one scenario with many (static) objects
        return [f"attr:{i}" for i, inst in instances.items() if objects(inst) > 1]
    if workload == "run-trace":
        return ([f"run:{i}" for i in instances]
                + [f"run:nominal:{name}" for name in sorted(scenarios)])
    raise ValueError(f"unknown workload {workload!r}")


class Rounds:
    """Seeded source of rounds: each round is the workload's ops, shuffled."""

    def __init__(self, workload: str, keys: list[str], reference: dict, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.keys = keys
        if workload == "attr-single-object":
            *by_cost, costliest = sorted(keys, key=lambda k: (reference[k]["sim_ms"], k))
            self.keys = by_cost[1::SAMPLE_STEP] + [costliest]

    def next(self) -> list[str]:
        keys = list(self.keys)
        self.rng.shuffle(keys)
        return keys


@dataclass
class Outcome:
    ok: bool
    detail: str


class Operations:
    """Executes operation keys against the program and checks each result."""

    def __init__(self, instances: dict, scenarios: dict, reference: dict):
        from causetrace import attribution, middleware, oracles, runner, substitutes
        self.attribution = attribution
        self.middleware = middleware
        self.runner = runner
        self.substitutes = substitutes
        self.oracle_config = oracles.OracleConfig()
        self.instances = instances
        self.scenarios = scenarios
        self.reference = reference

    def _inputs(self, key: str):
        kind, _, name = key.partition(":")
        if name.startswith("nominal:"):
            return kind, self.scenarios[name.split(":", 1)[1]], [], None
        inst = self.instances[name]
        return kind, self.scenarios[inst.scenario], [inst.fault], inst

    def result(self, key: str) -> dict:
        """Run one operation and return what the reference records for it."""
        kind, scenario, faults, _ = self._inputs(key)
        ads = self.runner.AdsConfig(faults=list(faults))
        if kind == "attr":
            report = self.attribution.attribute(scenario, ads, self.oracle_config)
            return {"sha256": report_sha256(report), "component": report.component_vi}
        result = self.runner.rtest(scenario, ads, self.oracle_config)
        self.substitutes.split_trace(result.trace, ads.units)
        return {"digest": self.middleware.trace_digest(result.trace),  # sha256 of serialize_trace
                "verdict": verdict_summary(result.verdict)}

    def expected_component(self, key: str) -> str | None:
        inst = self._inputs(key)[3]
        return inst.component.value if key.startswith("attr:") else None

    def execute(self, key: str) -> Outcome:
        """Run one operation and check it; raises only what the program raises."""
        got = self.result(key)
        expected = self.expected_component(key)
        if expected is not None and got["component"] != expected:
            return Outcome(False, f"attributed {got['component']}, expected {expected}")
        ref = self.reference[key]
        mismatch = {k: v for k, v in got.items() if v != ref.get(k)}
        if mismatch:
            return Outcome(False, f"differs from the reference: {mismatch}")
        return Outcome(True, got.get("sha256") or got["digest"])


def verdict_summary(verdict) -> dict:
    return {"passed": verdict.passed,
            "violations": [[v["kind"], v["t"]] for v in verdict.violations]}
