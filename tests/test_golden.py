"""Behaviour lock: attribution results must match tests/golden.json exactly.

Each entry holds the original-run trace digest, the report hash (wall time
aside) and the ordered re-run sequence of one benchmark instance; see
scripts/make_golden.py for what is recorded and how to regenerate it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
# The benchmark's reference; its run:<id> digests are taken after split_trace.
PERFBENCH_REFERENCE = ROOT / "perfbench" / "reference.json"
FAST = ("cs1_plan_none", "cs1_pred_none", "cs5_loc_lat", "cs1_perc_vel", "cs5_ctrl_lat")
# report_sha256 of `attribute(..., strategy="interval-dd")`, which golden.json
# (default strategy only) does not cover.
INTERVAL_DD_REPORT_SHA256 = {
    "cs1_pred_none": "ec0f491e2cce77f29ad90871dca6771441281402e8ff8ff8f66f8d484b3045ee",
    "cs5_loc_lat": "199b02d20a503fe96abd7e90c10eaf9373c2e04b4c2d2a1d6ecc9066e9502dc5",
}

# sha256 of every shipped benchmark file, the only copy of the benchmark. A
# deliberate change to one of them means new digests here and a regenerated
# tests/golden.json.
DATA_SHA256 = {
    "benchmark.json": "34ff59f8c009296a9c1c7a337a268b5543cbdeb0ebd7c824018050c52f3a1326",
    "scenarios/cs1.json": "4b6b7341a9746263b5e0ef216fb0582b602befa45589a0893735727238a3e133",
    "scenarios/cs2.json": "30ea43b5d5d24549db3cfd037f3430b99eddabd88977e4a3c7d0cc8a1f87f8de",
    "scenarios/cs3.json": "9569ac48460e5a7f7cac22146f79ff2e8ca17d451893f7071ea01f541876a9e9",
    "scenarios/cs3b.json": "d211734d2ff18d17609f3a4af648587bbe8a4ef9b4102b7843bcb96045c8fde7",
    "scenarios/cs4.json": "f8ac841e332569c05ad6c2e724c32628ac8ae74c80087952ebb97dbb398a3ef8",
    "scenarios/cs4b.json": "7a0580b3c557dab4f0d45c2608b1d92121a019b1fce562c6d4ba754a813937b9",
    "scenarios/cs5.json": "31c2ad1dfa97fed2dcec2b8ea44448c4c5b8434e8dd15a662240704b80df3af4",
}


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_entry():
    return _make_golden().golden_entry


def test_data_files_are_pinned():
    from causetrace.benchmark import ARCHETYPE, data_dir
    shipped = {p.relative_to(data_dir()).as_posix() for p in data_dir().rglob("*.json")}
    assert shipped == set(DATA_SHA256)
    assert {f"scenarios/{name}.json" for name in ARCHETYPE} == shipped - {"benchmark.json"}


@pytest.mark.parametrize("name", sorted(DATA_SHA256))
def test_data_file_unchanged(name):
    from causetrace.benchmark import data_dir
    digest = hashlib.sha256((data_dir() / name).read_bytes()).hexdigest()
    assert digest == DATA_SHA256[name]


def test_golden_covers_every_instance():
    from causetrace.benchmark import load_benchmark
    assert sorted(GOLDEN) == sorted(i.id for i in load_benchmark())


@pytest.mark.parametrize("inst_id", FAST)
def test_golden_fast(golden_entry, inst_id):
    assert golden_entry(inst_id) == GOLDEN[inst_id]


@pytest.mark.parametrize("inst_id", sorted(INTERVAL_DD_REPORT_SHA256))
def test_interval_dd_report_fast(inst_id):
    from causetrace.attribution import attribute
    from causetrace.benchmark import load_benchmark, load_builtin_scenario
    from causetrace.oracles import OracleConfig
    from causetrace.runner import AdsConfig
    inst = next(i for i in load_benchmark() if i.id == inst_id)
    report = attribute(load_builtin_scenario(inst.scenario), AdsConfig(faults=[inst.fault]),
                       OracleConfig(), strategy="interval-dd")
    assert _make_golden().report_sha256(report) == INTERVAL_DD_REPORT_SHA256[inst_id]


@pytest.mark.parametrize("inst_id", FAST)
def test_state_annotated_trace_digest_fast(inst_id):
    """The golden digests have state_key null; this pins the bytes after split_trace."""
    from causetrace.benchmark import load_benchmark, load_builtin_scenario
    from causetrace.middleware import trace_digest
    from causetrace.oracles import OracleConfig
    from causetrace.runner import AdsConfig, rtest
    from causetrace.substitutes import split_trace
    reference = json.loads(PERFBENCH_REFERENCE.read_text(encoding="utf-8"))
    inst = next(i for i in load_benchmark() if i.id == inst_id)
    ads = AdsConfig(faults=[inst.fault])
    result = rtest(load_builtin_scenario(inst.scenario), ads, OracleConfig())
    split_trace(result.trace, ads.units)
    assert trace_digest(result.trace) == reference[f"run:{inst_id}"]["digest"]


@pytest.mark.slow
@pytest.mark.parametrize("inst_id", sorted(GOLDEN))
def test_golden_all(golden_entry, inst_id):
    assert golden_entry(inst_id) == GOLDEN[inst_id]
