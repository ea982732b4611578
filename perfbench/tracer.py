"""Outside-in tracing of causetrace: no source file changes.

The tracer rebinds public names where their callers look them up (for example
``causetrace.runner.planning_tick``, which ``run_scheduler`` calls from the
runner module's globals) and restores them on ``uninstall``.

Two kinds of record:

* spans, at boundaries that run a few dozen times per operation (a
  simulation, an oracle evaluation, a re-run, split_trace, serialization):
  name, start, end, parent span and op id, kept in a flat in-memory array and
  written out by ``dump``;
* accumulators (call count plus inclusive time), at boundaries that run
  10^4 to 10^6 times per operation: the pipeline ticks, fault application,
  idealized substitutes, bus publish, ``step_ego``, ``ObjectTracker.pose_at``,
  ``bbox_at`` and the OBB primitives. A span per call there would cost more
  memory than the program itself.

A span's self time is its duration minus its child spans and minus the
outermost accumulated calls made directly inside it, so
``runner.run_scheduler`` self time is the scheduler's own dispatch, state
tracking and contact loop.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

ns = time.perf_counter_ns

COMPONENTS = ("localization", "perception", "prediction", "planning", "control")
SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")  # flat rows of SPAN_FIELDS, name as an index
        self._stack: list[list[int]] = []  # [span id, name id, start, child ns]
        self._next_id = 1
        self._depth = 0  # nesting of accumulated calls
        self.acc: dict[str, list[int]] = {}  # name -> [calls, inclusive ns]
        self.op = 0
        self._patches: list[tuple[object, str, object]] = []
        # per-op observations, read back by op_counts
        self.sim_ms: list[int] = []
        self.reruns: list[tuple] = []  # (plan, units, ego_log, verdict) per re-run
        self.dtest_calls = 0
        self.trace_bytes = 0

    # ------------------------------------------------------------------ records

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        tr = self

        def traced(*args, **kwargs):
            parent = tr._stack[-1][0] if tr._stack else 0
            frame = [tr._next_id, nid, ns(), 0]
            tr._next_id += 1
            tr._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ns()
                tr._stack.pop()
                dur = end - frame[2]
                if tr._stack:
                    tr._stack[-1][3] += dur
                tr.spans.extend((frame[0], parent, tr.op, nid, frame[2], end,
                                 dur - frame[3]))
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def leaf(self, name: str, fn):
        acc = self.acc.setdefault(name, [0, 0])
        tr = self

        def accumulated(*args, **kwargs):
            tr._depth += 1
            t0 = ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = ns() - t0
                tr._depth -= 1
                acc[0] += 1
                acc[1] += dt
                if not tr._depth and tr._stack:
                    tr._stack[-1][3] += dt

        return accumulated

    # ---------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap_span(self, owner, attr, name, on_return=None):
        self._patch(owner, attr, self.span(name, getattr(owner, attr), on_return))

    def _wrap_leaf(self, owner, attr, name):
        self._patch(owner, attr, self.leaf(name, getattr(owner, attr)))

    def install(self) -> None:
        from causetrace import (attribution, benchmark, geometry, middleware, oracles,
                                pipeline, runner, substitutes, world)

        def on_sim(args, trace):
            self.sim_ms.append(trace.ego_log[-1].t if trace.ego_log else 0)

        def on_rerun(args, result):
            verdict, trace = result
            self.reruns.append((args[2], args[1].units, trace.ego_log, verdict))

        def on_dtest(args, passed):
            self.dtest_calls += 1

        def on_serialize(args, text):
            self.trace_bytes += len(text)  # ASCII JSON: one byte per character

        # spans
        self._wrap_span(benchmark, "load_scenario", "scenario.load")
        self._wrap_span(attribution, "rtest", "runner.rtest")
        self._wrap_span(runner, "rtest", "runner.rtest")
        self._wrap_span(attribution, "run_with_substitution",
                        "runner.run_with_substitution", on_rerun)
        self._wrap_span(runner, "run_scheduler", "runner.run_scheduler", on_sim)
        self._wrap_span(runner, "evaluate", "oracles.evaluate")
        self._wrap_span(attribution.DtestSession, "passed", "attribution.dtest", on_dtest)
        self._wrap_span(attribution, "attribute_component", "attribution.component_level")
        for attr in ("attribute_message_planning", "attribute_message_nonplanning",
                     "attribute_interval_dd"):
            self._wrap_span(attribution, attr, "attribution.message_level")
        self._wrap_span(attribution, "split_trace", "substitutes.split_trace")
        self._wrap_span(substitutes, "split_trace", "substitutes.split_trace")
        self._wrap_span(middleware, "serialize_trace", "middleware.serialize", on_serialize)
        self._wrap_span(middleware, "trace_digest", "middleware.digest")
        # accumulators
        for comp in COMPONENTS:
            self._wrap_leaf(runner, f"{comp}_tick", f"pipeline.{comp}_tick")
            self._wrap_leaf(pipeline, f"apply_{comp}_faults", "faults.apply")
        for attr in ("ideal_localization", "ideal_perception", "ideal_prediction",
                     "derived_control", "sim_control_apply"):
            self._wrap_leaf(runner, attr, "substitutes.ideal")
        self._wrap_leaf(runner, "step_ego", "world.step_ego")
        self._wrap_leaf(world.ObjectTracker, "pose_at", "world.pose_at")
        for module in (oracles, substitutes):
            self._wrap_leaf(module, "bbox_at", "scenario.bbox_at")
        for module, label in ((runner, "runner"), (oracles, "oracles")):
            for attr in ("obb_separation_at_least", "min_obb_distance"):
                self._wrap_leaf(module, attr, f"geometry.obb.{label}")
        # pipeline imports obb_separation_at_least inside _first_conflict, so it
        # finds the name on the geometry module; nothing else the ops run does.
        self._wrap_leaf(pipeline, "min_obb_distance", "geometry.obb.pipeline")
        self._wrap_leaf(geometry, "obb_separation_at_least", "geometry.obb.pipeline")
        self._wrap_leaf(middleware.Bus, "publish", "middleware.publish")
        self._wrap_leaf(attribution, "planning_message_violates", "oracles.planning_scan")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ queries

    def span_rows(self):
        width = len(SPAN_FIELDS)
        for i in range(0, len(self.spans), width):
            yield self.spans[i:i + width]

    def span_totals(self) -> dict[str, list[int]]:
        """name -> [count, total ns, self ns] over every recorded span."""
        out: dict[str, list[int]] = {}
        for row in self.span_rows():
            tot = out.setdefault(self.names[row[3]], [0, 0, 0])
            tot[0] += 1
            tot[1] += row[5] - row[4]
            tot[2] += row[6]
        return out

    def acc_calls(self) -> dict[str, int]:
        return {name: a[0] for name, a in self.acc.items()}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, names resolved."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for row in self.span_rows():
                rec = dict(zip(SPAN_FIELDS, row))
                rec["name"] = self.names[rec["name"]]
                out.write(json.dumps(rec, separators=(",", ":")) + "\n")


def first_active_ms(plan, units, ego_log) -> int:
    """Simulated ms before any substitute of a re-run becomes active.

    Mirrors the scheduler: the state index advances at each ego sample, and a
    substitute is active from the first sample whose index reaches its start.
    """
    from causetrace.substitutes import (IdealAll, IdealFromState, IdealWithinStates,
                                        OnlineStateTracker)
    starts = []
    for mode in plan.modes.values():
        if isinstance(mode, IdealAll):
            return 0
        if isinstance(mode, IdealFromState):
            starts.append(mode.index)
        elif isinstance(mode, IdealWithinStates):
            starts.append(mode.a)
    if not starts:
        return ego_log[-1].t
    start = min(starts)
    tracker = OnlineStateTracker(units)
    for w in ego_log:
        if tracker.observe(w.p, w.v, w.a)[0] >= start:
            return w.t
    return ego_log[-1].t


def op_counts(tracer: Tracer, calls_before: dict[str, int]) -> dict:
    """Deterministic counts of the op just traced; resets the per-op lists."""
    from causetrace.oracles import MISSION
    rerun_ms = prefix_ms = post_ms = 0
    for plan, units, ego_log, verdict in tracer.reruns:
        end = ego_log[-1].t
        rerun_ms += end
        prefix_ms += first_active_ms(plan, units, ego_log)
        decided = [v["t"] for v in verdict.violations if v["kind"] != MISSION]
        if decided:
            post_ms += end - decided[0]
    dtest = tracer.dtest_calls
    counts = {
        "simulations": len(tracer.sim_ms),
        "sim_ms": sum(tracer.sim_ms),
        "rerun_ms": rerun_ms,
        "rerun_prefix_ms": prefix_ms,
        "rerun_post_verdict_ms": post_ms,
        "dtest_calls": dtest,
        "dtest_cache_hits": dtest - len(tracer.reruns),
        "trace_bytes": tracer.trace_bytes,
    }
    for name, calls in tracer.acc_calls().items():
        counts[f"{name}.calls"] = calls - calls_before.get(name, 0)
    tracer.sim_ms.clear()
    tracer.reruns.clear()
    tracer.dtest_calls = 0
    tracer.trace_bytes = 0
    return counts
