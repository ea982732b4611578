"""Fuzzing of the input loaders: malformed input may only raise ParseError or
ValidationError, the errors the CLI turns into exit code 2."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causetrace.benchmark import load_benchmark
from causetrace.faults import fault_from_dict
from causetrace.middleware import trace_record
from causetrace.scenario import ParseError, ValidationError, scenario_from_dict
from conftest import raw_instances, static_object, straight_road_doc

INPUT_ERRORS = (ParseError, ValidationError)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every (container, key) path inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, valid: dict):
    """`valid` with one value somewhere inside it replaced by an arbitrary one."""
    doc = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values)
    return doc


VALID_SCENARIO = straight_road_doc(objects=[static_object(), {
    "id": "ped", "kind": "Pedestrian", "size": [0.5, 0.5, 1.8], "heading_override": 0.5,
    "waypoints": [{"t_ms": 0, "p": [60.0, 5.0], "v": [0.0, -1.0], "a": [0.0, 0.0]},
                  {"t_ms": 5000, "p": [60.0, 0.0], "v": [0.0, -1.0], "a": [0.0, 0.0]}]}],
    signals=[{"id": "sig", "stop_line": [90.0, 0.0], "phases": [
        {"t_start_ms": 0, "t_end_ms": 6000, "color": "Green"}]}])
VALID_SCENARIO["map"]["successors"] = {"lane0": ["lane1"]}
VALID_FAULTS = [raw["fault"] for raw in raw_instances().values()]
VALID_FAULTS.append({"target": "perception", "kind": "miss_detection", "trigger": {
    "t0_ms": 0, "t1_ms": 100, "object_id": "ped", "region": {"center": [1, 2], "radius": 3}}})
VALID_BENCHMARK = {"instances": list(raw_instances().values())}
VALID_EGO_RECORD = {"kind": "ego", "t": 10, "p": [1.0, 2.0], "v": [0.5, 0.0],
                    "a": [0.0, 0.0]}


def _accepts_or_rejects(parse, doc):
    try:
        parse(doc)
    except INPUT_ERRORS:
        pass


@FUZZ
@given(doc=json_values | mutated(VALID_SCENARIO))
def test_scenario_from_dict_fuzz(doc):
    _accepts_or_rejects(scenario_from_dict, doc)


@FUZZ
@given(doc=json_values | st.sampled_from(VALID_FAULTS).flatmap(mutated))
def test_fault_from_dict_fuzz(doc):
    _accepts_or_rejects(fault_from_dict, doc)


@FUZZ
@given(doc=json_values | mutated(VALID_BENCHMARK))
def test_load_benchmark_fuzz(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "benchmark.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _accepts_or_rejects(load_benchmark, path)


@FUZZ
@given(doc=json_values | mutated(VALID_EGO_RECORD))
def test_trace_record_fuzz(doc):
    _accepts_or_rejects(lambda raw: trace_record(raw, "line 1"), doc)
