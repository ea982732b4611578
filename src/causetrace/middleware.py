"""In-process publish/subscribe bus with complete, deterministic trace recording.

A run owns one `Bus`. Components publish typed payloads; every message lands in
the per-component trace row with a dense seq starting at 1, and carries the seq
of each input message its firing consumed. Serialization is canonical JSON-lines
(fixed key order, shortest round-trip floats) so that two runs of the same
configuration produce byte-identical files. A payload is written as its dataclass
fields in declaration order, tuples as arrays; a payload with a `to_dict`
(`PerceivedObject`, which flattens its box) is written as that instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Any

from .scenario import (ParseError, SimTime, Waypoint, expect, load_json, parse_number,
                       parse_vec, record)


class ComponentId(str, Enum):
    PERCEPTION = "perception"
    PREDICTION = "prediction"
    PLANNING = "planning"
    CONTROL = "control"
    LOCALIZATION = "localization"


# Firing order inside one tick: sensing before planning before control.
TICK_PRIORITY = (
    ComponentId.LOCALIZATION,
    ComponentId.PERCEPTION,
    ComponentId.PREDICTION,
    ComponentId.PLANNING,
    ComponentId.CONTROL,
)


class OrderError(Exception):
    """Publish time regressed for a component."""


@dataclass
class Message:
    component: ComponentId
    seq: int
    t_pub: SimTime
    payload: Any
    state_key: tuple[int, ...] | None = None
    state_index: int | None = None
    fault_affected: bool = False
    inputs: dict[str, int] = field(default_factory=dict)  # topic -> seq consumed


@dataclass
class Verdict:
    passed: bool
    violations: list[dict] = field(default_factory=list)


@dataclass
class Trace:
    rows: dict[ComponentId, list[Message]]
    ego_log: list[Waypoint]  # sampled at a fixed period
    verdict: Verdict | None = None
    diagnostics: list[str] = field(default_factory=list)
    # One runner.Checkpoint per state of a simulated run, at its first sample and
    # holding its key: the state axis of the message-level search. Not serialized.
    checkpoints: list[tuple] = field(default_factory=list)
    # The simulated ms before this time were copied from the original run, not stepped.
    forked_at: SimTime = 0

    def message_count(self) -> int:
        return sum(len(r) for r in self.rows.values())


class Bus:
    """Single-run message bus; strictly single-threaded."""

    def __init__(self) -> None:
        self.trace = Trace(rows={c: [] for c in ComponentId}, ego_log=[])

    def publish(self, component: ComponentId, payload: Any, t: SimTime,
                fault_affected: bool = False,
                inputs: dict[str, int] | None = None) -> Message:
        row = self.trace.rows[component]
        if row and t < row[-1].t_pub:
            raise OrderError(f"{component.value}: publish at t={t} before t={row[-1].t_pub}")
        msg = Message(component=component, seq=len(row) + 1, t_pub=t, payload=payload,
                      fault_affected=fault_affected, inputs=inputs or {})
        row.append(msg)
        return msg

    def latest(self, component: ComponentId) -> Message | None:
        row = self.trace.rows[component]
        return row[-1] if row else None


# ---------------------------------------------------------------------------
# canonical serialization


def _encode(obj: Any) -> Any:
    """`json.dumps` hook: a payload is its `to_dict()` if it has one, else its fields."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False, default=_encode)


def serialize_trace(trace: Trace) -> str:
    """One record per line; message lines keep a fixed key order."""
    lines = []
    lines.append(_dumps({"kind": "header", "messages": trace.message_count(),
                         "ego_samples": len(trace.ego_log)}))
    messages = [m for component in TICK_PRIORITY for m in trace.rows[component]]
    for m in messages:
        lines.append(_dumps({
            "kind": "msg",
            "component": m.component.value,
            "seq": m.seq,
            "t_pub": m.t_pub,
            "payload": m.payload,
            "state_key": m.state_key,
            "state_index": m.state_index,
            "fault_affected": m.fault_affected,
        }))
    # Firing order: by time, and within one tick in TICK_PRIORITY order (stable sort).
    for m in sorted(messages, key=attrgetter("t_pub")):
        lines.append(_dumps({
            "kind": "exec",
            "component": m.component.value,
            "inputs": dict(sorted(m.inputs.items())),
            "output_seq": m.seq,
            "t": m.t_pub,
        }))
    for w in trace.ego_log:
        lines.append(_dumps({"kind": "ego", "t": w.t, "p": w.p, "v": w.v, "a": w.a}))
    if trace.verdict is not None:
        lines.append(_dumps({"kind": "verdict", "passed": trace.verdict.passed,
                             "violations": trace.verdict.violations}))
    for d in trace.diagnostics:
        lines.append(_dumps({"kind": "diag", "text": d}))
    return "\n".join(lines) + "\n"


def trace_digest(trace: Trace) -> str:
    return hashlib.sha256(serialize_trace(trace).encode("utf-8")).hexdigest()


def save_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="utf-8")


def trace_record(raw: Any, path: str) -> dict:
    """A decoded trace line, checked; an `ego` record comes back parsed."""
    expect(raw, dict, path)
    if not isinstance(raw.get("kind"), str):
        raise ParseError(f"{path}.kind: expected a string")
    if raw["kind"] != "ego":
        return raw
    record(raw, path, ("kind", "t", "p", "v", "a"))
    return {"kind": "ego", "t": parse_number(raw["t"], f"{path}.t", int),
            "p": parse_vec(raw["p"], f"{path}.p"), "v": parse_vec(raw["v"], f"{path}.v"),
            "a": parse_vec(raw["a"], f"{path}.a")}


def load_trace_records(path: str | Path) -> list[dict]:
    """Checked record stream of a serialized trace (for replay tooling)."""
    return [trace_record(raw, f"line {n}") for n, raw in load_json(path, lines=True)]
