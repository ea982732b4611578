"""Behaviour lock: attribution results must match tests/golden.json exactly.

Each entry holds the original-run trace digest, the report hash (wall time
aside) and the ordered re-run sequence of one benchmark instance; see
scripts/make_golden.py for what is recorded and how to regenerate it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
FAST = ("cs1_plan_none", "cs1_pred_none", "cs5_loc_lat")


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_entry():
    return _make_golden().golden_entry


def test_golden_covers_every_instance():
    from causetrace.benchmark import builtin_instances
    assert sorted(GOLDEN) == sorted(i.id for i in builtin_instances())


@pytest.mark.parametrize("inst_id", FAST)
def test_golden_fast(golden_entry, inst_id):
    assert golden_entry(inst_id) == GOLDEN[inst_id]


@pytest.mark.slow
@pytest.mark.parametrize("inst_id", sorted(GOLDEN))
def test_golden_all(golden_entry, inst_id):
    assert golden_entry(inst_id) == GOLDEN[inst_id]
