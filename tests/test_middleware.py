import json
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetrace.geometry import OrientedBox
from causetrace.middleware import (TICK_PRIORITY, Bus, ComponentId, OrderError, _dumps,
                                   serialize_trace, trace_digest)
from causetrace.oracles import OracleConfig
from causetrace.payloads import (ControlOut, LocalizationOut, PerceivedObject, PerceptionOut,
                                 PlanningOut, PredictedTrajectory, PredictionOut, TrajPoint)
from causetrace.runner import AdsConfig, rtest
from causetrace.scenario import scenario_from_dict
from conftest import straight_road_doc


def test_first_publish_gets_seq_one():
    bus = Bus()
    msg = bus.publish(ComponentId.PLANNING, ControlOut(0, 0), 100)
    assert msg.seq == 1
    assert msg.t_pub == 100


def test_same_tick_publishes_increment_seq():
    bus = Bus()
    a = bus.publish(ComponentId.CONTROL, ControlOut(0, 0), 50)
    b = bus.publish(ComponentId.CONTROL, ControlOut(1, 0), 50)
    assert (a.seq, b.seq) == (1, 2)
    assert a.t_pub == b.t_pub == 50


def test_time_regression_raises():
    bus = Bus()
    bus.publish(ComponentId.CONTROL, ControlOut(0, 0), 50)
    with pytest.raises(OrderError):
        bus.publish(ComponentId.CONTROL, ControlOut(0, 0), 40)


def test_latest_none_before_any_publish():
    assert Bus().latest(ComponentId.PERCEPTION) is None


def test_latest_is_highest_seq():
    bus = Bus()
    for i in range(5):
        bus.publish(ComponentId.PERCEPTION, ControlOut(i, 0), i * 10)
    assert bus.latest(ComponentId.PERCEPTION).seq == 5


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 30))
def test_seq_density(n):
    bus = Bus()
    for i in range(n):
        bus.publish(ComponentId.LOCALIZATION, ControlOut(0, 0), i)
    seqs = [m.seq for m in bus.trace.rows[ComponentId.LOCALIZATION]]
    assert seqs == list(range(1, n + 1))


def row_of(n):
    bus = Bus()
    for i in range(n):
        bus.publish(ComponentId.PLANNING, ControlOut(0, 0), i * 100)
    return bus.trace


def test_run_determinism_digest():
    doc = straight_road_doc(t_max_ms=3000)
    a = rtest(scenario_from_dict(doc), AdsConfig(), OracleConfig())
    b = rtest(scenario_from_dict(doc), AdsConfig(), OracleConfig())
    assert trace_digest(a.trace) == trace_digest(b.trace)
    assert serialize_trace(a.trace) == serialize_trace(b.trace)


def test_execution_records_reference_past_messages():
    doc = straight_road_doc(t_max_ms=2000)
    res = rtest(scenario_from_dict(doc), AdsConfig(), OracleConfig())
    by_component = res.trace.rows
    expected_topics = {
        ComponentId.LOCALIZATION: set(),
        ComponentId.PERCEPTION: {"localization"},
        ComponentId.PREDICTION: {"perception"},
        ComponentId.PLANNING: {"prediction", "localization"},
        ComponentId.CONTROL: {"planning", "localization"},
    }
    for component, row in by_component.items():
        for msg in row:
            assert set(msg.inputs) == expected_topics[component]
            for topic, seq in msg.inputs.items():
                src = by_component[ComponentId(topic)][seq - 1]
                assert src.seq == seq
                assert src.t_pub <= msg.t_pub
    exec_lines = [json.loads(line) for line in serialize_trace(res.trace).splitlines()
                  if '"kind":"exec"' in line]
    assert len(exec_lines) == res.trace.message_count()


def test_exec_lines_follow_firing_order_not_publish_order():
    bus = Bus()
    # Within each tick, publish in reverse TICK_PRIORITY order.
    for t in (0, 10):
        for component in reversed(TICK_PRIORITY):
            bus.publish(component, ControlOut(0, 0), t, inputs={"planning": t // 10})
    exec_lines = [json.loads(line) for line in serialize_trace(bus.trace).splitlines()
                  if '"kind":"exec"' in line]
    order = [(r["t"], r["component"]) for r in exec_lines]
    assert order == [(t, c.value) for t in (0, 10) for c in TICK_PRIORITY]
    assert [r["output_seq"] for r in exec_lines] == [1] * 5 + [2] * 5
    assert [r["inputs"] for r in exec_lines] == [{"planning": 0}] * 5 + [{"planning": 1}] * 5


def test_tick_rates_yield_expected_row_lengths():
    doc = straight_road_doc(t_max_ms=10000, dest_x=150.0)
    res = rtest(scenario_from_dict(doc), AdsConfig(), OracleConfig())
    rows = res.trace.rows
    assert abs(len(rows[ComponentId.PERCEPTION]) - 100) <= 1
    assert abs(len(rows[ComponentId.PLANNING]) - 100) <= 1
    assert abs(len(rows[ComponentId.CONTROL]) - 1000) <= 1
    assert abs(len(rows[ComponentId.LOCALIZATION]) - 1000) <= 1
    # More than 100 messages per second of scenario time.
    assert res.trace.message_count() > 100 * 10


def test_serialization_fixed_key_order():
    tr = row_of(2)
    lines = serialize_trace(tr).splitlines()
    msg_lines = [l for l in lines if '"kind":"msg"' in l]
    assert msg_lines[0].index('"component"') < msg_lines[0].index('"seq"')
    assert msg_lines[0].index('"seq"') < msg_lines[0].index('"t_pub"')


# ---------------------------------------------------------------------------
# payload JSON form, pinned against the hand-written encoder it replaced

REFERENCE_TO_DICT = {
    PerceivedObject: lambda o: {
        "id": o.id,
        "kind": o.kind,
        "center": list(o.box.center),
        "half_extents": list(o.box.half_extents),
        "heading": o.box.heading,
        "v": list(o.v),
    },
    PerceptionOut: lambda o: {"objects": [REFERENCE_TO_DICT[PerceivedObject](x)
                                          for x in o.objects]},
    PredictedTrajectory: lambda o: {
        "id": o.id,
        "kind": o.kind,
        "half_extents": list(o.half_extents),
        "heading": o.heading,
        "points": [[t, x, y] for t, x, y in o.points],
    },
    PredictionOut: lambda o: {"trajectories": [REFERENCE_TO_DICT[PredictedTrajectory](tr)
                                               for tr in o.trajectories]},
    TrajPoint: lambda o: {"t": o.t, "p": list(o.p), "speed": o.speed, "heading": o.heading},
    PlanningOut: lambda o: {
        "trajectory": [REFERENCE_TO_DICT[TrajPoint](pt) for pt in o.trajectory],
        "decision": o.decision,
        "branch_tags": list(o.branch_tags),
    },
    ControlOut: lambda o: {"accel_cmd": o.accel_cmd, "steer": o.steer},
    LocalizationOut: lambda o: {"p": list(o.p), "heading": o.heading, "speed": o.speed},
}


def reference(obj):
    """Each payload's listed fields; containers converted recursively."""
    if type(obj) in REFERENCE_TO_DICT:
        return reference(REFERENCE_TO_DICT[type(obj)](obj))
    if isinstance(obj, dict):
        return {k: reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    return obj


numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 2.225073858507201e-308, 1e308]),
                    st.integers(-2**80, 2**80))
vec2 = st.tuples(numbers, numbers)
times = st.integers(0, 2**40)
texts = st.text(max_size=5)


def tuples_of(elements):
    return st.lists(elements, max_size=3).map(tuple)


perceived = st.builds(PerceivedObject, texts, texts,
                      st.builds(OrientedBox, vec2, vec2, numbers), vec2)
trajectories = st.builds(PredictedTrajectory, texts, texts, vec2, numbers,
                         tuples_of(st.tuples(times, numbers, numbers)))
points = st.builds(TrajPoint, times, vec2, numbers, numbers)
payloads = st.one_of(
    perceived,
    st.builds(PerceptionOut, tuples_of(perceived)),
    trajectories,
    st.builds(PredictionOut, tuples_of(trajectories)),
    points,
    st.builds(PlanningOut, tuples_of(points), texts, tuples_of(texts)),
    st.builds(ControlOut, numbers, numbers),
    st.builds(LocalizationOut, vec2, numbers, numbers),
)


@settings(max_examples=300, deadline=None)
@given(payload=payloads)
def test_payload_json_is_its_fields_in_declaration_order(payload):
    expected = json.dumps(reference(payload), separators=(",", ":"), allow_nan=False)
    assert _dumps(payload) == expected


def test_payload_json_rejects_nan():
    with pytest.raises(ValueError):
        _dumps(LocalizationOut((0.0, float("nan")), 0.0, 1.0))


class NotAPayload:
    def __init__(self):
        self.x = 1.0


def test_payload_json_rejects_a_non_dataclass_value():
    with pytest.raises(TypeError):
        _dumps(PlanningOut((TrajPoint(0, (0.0, 0.0), 1.0, 0.0),), "Cruise", (NotAPayload(),)))
