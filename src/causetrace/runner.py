"""Deterministic clock-driven scheduler: one run = one trace.

Components fire at multiples of 10 ms, so SimTime advances in 10 ms blocks. At
the start of each block the ego log is sampled (100 Hz) and the set of active
substitutes follows the state index, which only advances at a sample; a contact
stops the run early. A contact is `safe_distance_at` at the gap `ANY_GAP`: an
object box that no face axis, of its own or of the ego box, separates from the
ego box by a positive gap, so `min_obb_distance` reads 0.0. Then the due
components fire in a fixed priority order (localization, perception,
prediction, planning, control), and the world integrates the block's ego motion
in 1 ms steps from the latest control command (or along the planning trajectory
when control is substituted). Each firing publishes one message carrying its
inputs. Identical inputs produce byte-identical serialized traces.

A run records a checkpoint at the first sample of every state. A counterfactual
re-run given the original trace equals the original run until one of its
substitutes first publishes something the original did not; it resumes from the
checkpoint of that message's state and stops at its first safe-distance or
speeding violation, since that decides its verdict.

Every FRAME_MS all five components fire, each reading only what was published
at that sample, and the ego then moves by what they published. Apart from the
substitute windows, nothing in a run's future reads the absolute state index,
and the quantized key that moves the index on is a function of the ego state.
So a re-run's future from a frame sample is fixed by its frame state: the time,
the ego state, the heading the oracle carries and each substitute's window
relative to the current state index. Payloads published before the frame need
no comparison, because the frame overwrites them all. A re-run that reaches the
frame state an earlier re-run of the same `ForkMemo` passed merges into it
there: it stops and takes that run's verdict. Two re-runs that fork at the same
state with the same substitutes active from there on reach the same frame state
at their first frame sample, so they merge there.

A re-run can also come to rest in a world that no longer changes. From some
time on, every object is past its last waypoint, and no fault trigger window or
signal phase opens or closes before the run ends (`still_from`). Nothing a
component reads then changes with time, except through the times it stamps on
its outputs, which every reader takes relative to the message. So when the
frame state at a frame sample t equals the one at t - FRAME_MS apart from t, in
a world still from t - FRAME_MS on, the run repeats the samples of
[t - FRAME_MS, t) with period FRAME_MS to its end. Equal relative windows mean
that every window is constant from here on or that the state index did not move
in that period; with the samples repeating, it never moves again. Those samples
passed the monitor, so safe distance and speeding cannot newly fail, and there
is no contact. The re-run stops at t (it fast-forwards) with the verdict of its
closing sample: the mission violation, if any, of the logged sample at the same
phase of the period, at the time of the full run's last sample.
"""

from __future__ import annotations

import functools
import gc
import struct
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .faults import FaultSpec
from .geometry import ANY_GAP
# The frozen perfbench/tracer.py times these two under geometry.obb.runner, and
# patches them here; nothing in this module calls them.
from .geometry import min_obb_distance, obb_separation_at_least  # noqa: F401
from .middleware import Bus, ComponentId, Message, TICK_PRIORITY, Trace, Verdict
from .oracles import (MISSION, OracleConfig, SampleMonitor, carried_heading, evaluate,
                      mission_violation, safe_distance_at)
from .pipeline import (PlanTable, control_tick, localization_tick, make_planner_context,
                       perception_tick, planning_tick, prediction_tick)
from .scenario import Scenario, SimTime, Waypoint
from .substitutes import (OnlineStateTracker, QuantizationUnits, StateKey,
                          SubstitutionPlan, active_states, derived_control,
                          ideal_localization, ideal_perception, ideal_prediction,
                          sim_control_apply, state_at)
from .world import Broadphase, EgoState, step_ego

SAMPLE_MS = 10  # ego log and state tracking at 100 Hz
FRAME_MS = 100  # every component fires at a multiple of FRAME_MS

DEFAULT_PERIODS = {
    ComponentId.LOCALIZATION: 10,   # 100 Hz
    ComponentId.PERCEPTION: 100,    # 10 Hz
    ComponentId.PREDICTION: 100,    # 10 Hz
    ComponentId.PLANNING: 100,      # 10 Hz
    ComponentId.CONTROL: 10,        # 100 Hz
}
# Components fire only at the start of a SAMPLE_MS block, and all of them at a
# frame sample.
assert all(period % SAMPLE_MS == 0 and FRAME_MS % period == 0
           for period in DEFAULT_PERIODS.values())


class SimPanic(Exception):
    def __init__(self, component: ComponentId, t: SimTime, cause: BaseException,
                 trace: Trace):
        self.component = component
        self.t = t
        self.cause = cause
        self.trace = trace
        super().__init__(f"{component.value} panicked at t={t}: {cause!r}")


@dataclass
class AdsConfig:
    faults: list[FaultSpec] = field(default_factory=list)
    units: QuantizationUnits = field(default_factory=QuantizationUnits)


class Checkpoint(NamedTuple):
    """The scheduler at the first sample of a state, before the sample is taken.

    Rows only grow and payloads are immutable, so the run up to here is the
    trace cut at `t` (`_prefix`); nothing is copied when a checkpoint is taken.
    """

    t: SimTime
    ego: EgoState
    key: StateKey  # the key of the state that starts here


def _prefix(trace: Trace, t: SimTime, through: bool = False
           ) -> tuple[dict[ComponentId, list], list[Waypoint]]:
    """The rows and ego log of a run up to time t: the messages published before
    t and the samples before t (through t with `through`). The ego log holds a
    sample every SAMPLE_MS from t=0, and t is a sample time."""
    rows = {c: row[:bisect_left(row, t, key=attrgetter("t_pub"))]
            for c, row in trace.rows.items()}
    return rows, trace.ego_log[:t // SAMPLE_MS + through]


def frame_state(t: SimTime, windows: dict[ComponentId, tuple[int, float]], index: int,
                ego: EgoState, heading: float) -> tuple:
    """What fixes a run's future from frame sample t on: t, each substitute window
    not yet over relative to the state index at t (0 once it has opened), the ego
    state and the heading the oracle carries into t. The floats are packed bit
    for bit, so a signed zero makes another frame state."""
    relative = tuple(sorted((c.value, max(lo - index, 0), hi - index)
                            for c, (lo, hi) in windows.items() if hi >= index))
    return t, relative, struct.pack("<6d", *ego.p, ego.heading, ego.speed, ego.accel,
                                    heading)


def still_from(scenario: Scenario, faults: list[FaultSpec]) -> SimTime:
    """The time from which nothing outside the ego changes with time in a run:
    every object is past its last waypoint, and every fault trigger bound and
    signal phase bound below t_max has passed. Bounds at or after t_max are never
    reached, since components fire before t_max; waypoints count wherever they
    lie, since prediction looks ahead of t."""
    bounds = [b for f in faults for b in (f.trigger.t0, f.trigger.t1)]
    bounds += [b for sig in scenario.signals for ph in sig.phases
               for b in (ph.t_start, ph.t_end)]
    return max([b for b in bounds if b < scenario.t_max]
               + [obj.waypoints[-1].t for obj in scenario.objects], default=0)


def _verdict(violation: dict | None) -> Verdict:
    return Verdict(violation is None, [violation] if violation else [])


def _resting_verdict(scenario: Scenario, trace: Trace, t: SimTime,
                     config: OracleConfig) -> Verdict:
    """The verdict of a re-run whose samples repeat with period FRAME_MS from
    frame sample t - FRAME_MS on: the mission verdict of its closing sample, which
    repeats the logged sample at the same phase of the period."""
    end = scenario.t_max - scenario.t_max % SAMPLE_MS  # the full run's last sample
    phase = t - FRAME_MS + (end - t) % FRAME_MS
    closing = replace(trace.ego_log[phase // SAMPLE_MS], t=end)
    return _verdict(mission_violation([closing], scenario, config))


def run_scheduler(scenario: Scenario, ads: AdsConfig,
                  plan: SubstitutionPlan | None = None,
                  fork: tuple[Trace, int] | None = None,
                  monitor: SampleMonitor | None = None,
                  memo: ForkMemo | None = None) -> Trace:
    """One run, which stops early at a contact. `fork` = (origin, k) resumes the
    run `origin` from its checkpoint at state k.

    `monitor` (which needs `memo`) judges each sample and stops the run at the
    first violating one. At each frame sample, the run also stops, after logging
    the sample:
    - where it merges into the earlier re-run of `memo.frames` with the same
      frame state, taking that run's verdict;
    - where it fast-forwards: its frame state repeats the one of the frame
      before, apart from t, in a world still since then (see the module
      docstring). It takes the verdict of its closing sample, and counts in
      `memo.fast_forwards`.
    Every monitored run ends in one place: `trace.verdict` is the merged or
    resting verdict, else the monitor's first violation, else the mission
    violation, if any; and every frame state the run passed goes into
    `memo.frames` with that verdict. Without `monitor`, `trace.verdict` stays
    None."""
    plan = plan or SubstitutionPlan()
    bus = Bus()
    trace = bus.trace
    ctx = make_planner_context(scenario)
    ego = EgoState(p=scenario.a_init[0], heading=scenario.a_init[1], speed=0.0,
                   accel=0.0, t=0)
    ego_half, ego_r = scenario.ego_half, scenario.ego_radius
    objects = Broadphase(scenario.objects, ego_r)
    state_tracker = OnlineStateTracker(ads.units)
    if fork is not None:
        origin, k = fork
        cp = origin.checkpoints[k - 1]
        ego = cp.ego
        trace.rows, trace.ego_log = _prefix(origin, cp.t)
        trace.checkpoints = origin.checkpoints[:k]
        trace.forked_at = cp.t
        state_tracker.index, state_tracker.key = k, cp.key
    faults = {c: [f for f in ads.faults if f.target is c] for c in ComponentId}
    windows = {c: active_states(m) for c, m in plan.modes.items()}
    ideal: set[ComponentId] = set()  # substitutes active at the current state index
    still = still_from(scenario, ads.faults) if monitor is not None else 0
    passed: list[tuple] = []  # the frame states this run passed
    verdict = None  # set where a merge or a fast-forward decides the run
    tabled: list = [None, None]  # the planning message control last read, and its table

    def plan_table(msg: Message) -> PlanTable:
        if msg is not tabled[0]:
            tabled[:] = msg, PlanTable(msg.payload)
        return tabled[1]

    def fire(component: ComponentId, t: SimTime) -> tuple[Any, bool, dict[str, int]]:
        """Payload, fault flag and consumed input seqs of one firing. Every
        component fires at t=0 in TICK_PRIORITY order, so each input exists."""
        sub = component in ideal
        fs = faults[component]
        if component is ComponentId.LOCALIZATION:
            out = (ideal_localization(ego), False) if sub else localization_tick(ego, fs, t)
            return *out, {}
        loc = bus.latest(ComponentId.LOCALIZATION)
        if component is ComponentId.PERCEPTION:
            truth = ideal_perception(scenario, t, ego.p)
            out = (truth, False) if sub else perception_tick(truth, loc.payload, ego.p, fs, t)
            return *out, {"localization": loc.seq}
        if component is ComponentId.PREDICTION:
            perc = bus.latest(ComponentId.PERCEPTION)
            out = ((ideal_prediction(scenario, t), False) if sub
                   else prediction_tick(perc.payload, fs, t))
            return *out, {"perception": perc.seq}
        if component is ComponentId.PLANNING:
            pred = bus.latest(ComponentId.PREDICTION)
            return (*planning_tick(pred.payload, loc.payload, ctx, fs, t),
                    {"prediction": pred.seq, "localization": loc.seq})
        plan_msg = bus.latest(ComponentId.PLANNING)
        planned = plan_table(plan_msg)
        out = ((derived_control(planned, ego.speed, t), False) if sub
               else control_tick(planned, loc.payload, fs, t))
        return *out, {"planning": plan_msg.seq, "localization": loc.seq}

    for t in range(trace.forked_at, scenario.t_max, SAMPLE_MS):
        wp = ego.sample(t)
        index, key = state_tracker.observe(wp.p, wp.v, wp.a)
        if index > len(trace.checkpoints):
            trace.checkpoints.append(Checkpoint(t, ego, key))
        trace.ego_log.append(wp)
        ideal = {c for c, (lo, hi) in windows.items() if lo <= index <= hi}
        if monitor is not None and t % FRAME_MS == 0:
            frame = frame_state(t, windows, index, ego, monitor.heading)
            verdict = memo.frames.get(frame)
            if verdict is not None:
                memo.merges += 1
                break
            if passed and frame[1:] == passed[-1][1:] and t - FRAME_MS >= still:
                memo.fast_forwards += 1
                verdict = _resting_verdict(scenario, trace, t, monitor.config)
            passed.append(frame)
            if verdict is not None:
                break
        if monitor is not None and monitor.violated(wp):
            break
        contact = safe_distance_at(wp, ego.heading, ego_half, ego_r, objects.near(ego.p),
                                   ANY_GAP)
        if contact is not None:
            trace.diagnostics.append(f"contact t={t} object={contact[0]}")
            break
        for component in TICK_PRIORITY:
            if t % DEFAULT_PERIODS[component] == 0:
                try:
                    payload, changed, inputs = fire(component, t)
                except Exception as exc:  # component panic: diagnose and abort the run
                    trace.diagnostics.append(
                        f"panic component={component.value} t={t} err={exc!r}")
                    raise SimPanic(component, t, exc, trace) from exc
                bus.publish(component, payload, t, changed, inputs)
        end = min(t + SAMPLE_MS, scenario.t_max)
        if ComponentId.CONTROL in ideal:
            # The ego sits on the plan at every ms, and the plan does not change
            # within a block (an empty plan's fallback keeps p and heading); the
            # accel is the speed change of the block's last ms.
            planned = plan_table(bus.latest(ComponentId.PLANNING))
            before = sim_control_apply(planned, end - 1, ego).speed if end - 1 > t else ego.speed
            nxt = sim_control_apply(planned, end, ego)
            ego = EgoState(nxt.p, nxt.heading, nxt.speed, (nxt.speed - before) * 1000.0, end)
        else:
            cmd = bus.latest(ComponentId.CONTROL).payload
            ego = step_ego(ego, cmd.accel_cmd, cmd.steer, end - t)
    else:
        if scenario.t_max % SAMPLE_MS == 0:  # closing sample, not a state of its own
            wp = ego.sample(scenario.t_max)
            trace.ego_log.append(wp)
            if monitor is not None:
                monitor.violated(wp)
    if monitor is not None:
        trace.verdict = verdict or _verdict(
            monitor.violation or mission_violation(trace.ego_log, scenario, monitor.config))
        memo.frames.update(dict.fromkeys(passed, trace.verdict))
    return trace


# ---------------------------------------------------------------------------
# rtest / dtest entry points


def collector_paused(fn: Callable) -> Callable:
    """Run `fn` with the cyclic garbage collector off, then put it back on.

    A run keeps its whole trace alive and makes no reference cycles, so a
    collection during a run or an attribution rescans that growing heap and
    frees nothing; reference counting frees a finished re-run's trace at once.
    If the caller has already turned the collector off, `fn` runs unchanged
    and the collector stays off.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@dataclass
class RunResult:
    verdict: Verdict
    ego_log: list[Waypoint]
    trace: Trace


@collector_paused
def rtest(scenario: Scenario, ads: AdsConfig, oracles: OracleConfig) -> RunResult:
    """One full simulated run plus the violation verdict over its artifacts."""
    verdict, trace = run_with_substitution(scenario, ads, SubstitutionPlan(), oracles)
    return RunResult(verdict, trace.ego_log, trace)


class ForkMemo:
    """The verdicts of the simulated re-runs of one original run, by each frame
    state they passed, which `run_scheduler` records as each re-run ends.
    `merges` counts the re-runs that merged into an earlier re-run at a frame
    state, and `fast_forwards` those that stopped where their frame state
    repeats."""

    def __init__(self) -> None:
        self.frames: dict[tuple, Verdict] = {}
        self.merges = 0
        self.fast_forwards = 0


def _differs(scenario: Scenario, origin: Trace, m: Message) -> bool:
    """Whether the substitute of `m`'s component, fired where the original run
    fired `m`, would publish anything else. Equality is exact: `repr` tells a
    signed zero apart, which `==` does not."""
    if m.fault_affected:
        return True
    if m.component is ComponentId.PERCEPTION:
        ideal = ideal_perception(scenario, m.t_pub, origin.ego_log[m.t_pub // SAMPLE_MS].p)
    elif m.component is ComponentId.PREDICTION:
        ideal = ideal_prediction(scenario, m.t_pub)
    else:
        # Unfaulted localization publishes exactly ideal_localization's value;
        # the trace keeps too little of the ego state to recompute it.
        return False
    return repr(m.payload) != repr(ideal)


def _first_difference(scenario: Scenario, origin: Trace, component: ComponentId,
                      lo: int, end: int) -> int | None:
    """The state of the first message of `component` in states lo to end - 1 of
    the original run that its substitute would not publish; None if there is none."""
    cps = origin.checkpoints
    row = origin.rows[component]
    t_end = cps[end - 1].t if end <= len(cps) else scenario.t_max
    for m in islice(row, bisect_left(row, cps[lo - 1].t, key=attrgetter("t_pub")), None):
        if m.t_pub >= t_end:
            return None
        if _differs(scenario, origin, m):
            return state_at(cps, m.t_pub)
    return None


def _fork(scenario: Scenario, plan: SubstitutionPlan, origin: Trace) -> int | None:
    """The state where a re-run of `plan` first publishes something the original
    run did not; None if that never happens.

    Up to that state's first sample the re-run is the original, message for
    message. The control substitute moves the ego by another model, so it
    differs at its first active state; any other substitute is compared with the
    original's messages from its first active state on, up to the earliest
    difference found so far.
    """
    cps = origin.checkpoints
    windows = {c: active_states(m) for c, m in plan.modes.items()}
    fork = len(cps) + 1  # the original never reaches this state
    ctrl_lo, ctrl_hi = windows.get(ComponentId.CONTROL, (fork, 0))
    if ctrl_lo <= ctrl_hi:
        fork = min(fork, ctrl_lo)
    for c, (lo, hi) in windows.items():
        if c is not ComponentId.CONTROL and lo <= hi and lo < fork:
            state = _first_difference(scenario, origin, c, lo, min(hi + 1, fork))
            if state is not None:
                fork = state
    return fork if fork <= len(cps) else None


def run_with_substitution(scenario: Scenario, ads: AdsConfig, plan: SubstitutionPlan,
                          oracles: OracleConfig, origin: Trace | None = None,
                          memo: ForkMemo | None = None) -> tuple[Verdict, Trace]:
    """One run with the plan's substitutes active, plus its verdict.

    Without `origin` the run is simulated from t=0 to its end and the verdict
    lists every violation kind. `origin` is the trace of the original run (no
    substitutes) of the same scenario and faults, judged with the same oracles.
    Up to the first sample of the state where a substitute first publishes
    something the original did not (`_fork`), the re-run equals that run. So its
    verdict is taken from the original when the original's first safe-distance
    or speeding violation lies in that prefix, or when no substitute ever does
    so. Otherwise it resumes from the original's checkpoint at the fork and stops
    at its first safe-distance or speeding violation; the verdict then holds that
    violation, or else the mission violation, if any. It may also stop at a frame
    sample where it merges into an earlier re-run of `memo` (`run_scheduler`),
    and take that run's verdict: one that forked at the same state, with the
    same substitutes active from there on, merges at the first frame sample at or
    after the fork. Without `memo` the re-run shares frame states with no other.

    A re-run also stops at a frame sample where it has come to rest in a still
    world: its frame state repeats the one of the frame before, apart from t,
    and nothing outside the ego has changed with time since that frame
    (`still_from`). Its future repeats that last frame period, whose samples all
    passed, so the only violation left is the mission, judged on the closing
    sample the full run would log: the logged sample at the same phase of the
    period, at the full run's last sample time. Its trace ends at the fixed
    point, so its ego log is a prefix of the full run's. A run without `origin`
    has no monitor, and stops early only at a contact.
    """
    if origin is None:
        trace = run_scheduler(scenario, ads, plan)
        verdict = evaluate(trace.ego_log, scenario, oracles)
        trace.verdict = verdict
        return verdict, trace
    fork = _fork(scenario, plan, origin)
    decided = [v for v in origin.verdict.violations if v["kind"] != MISSION]
    if decided and (fork is None or decided[0]["t"] <= origin.checkpoints[fork - 1].t):
        t = decided[0]["t"]
        verdict = Verdict(False, decided[:1])
        # The trace an early-stopped run would leave: the samples through t and
        # the messages published before it.
        rows, ego_log = _prefix(origin, t, through=True)
        return verdict, Trace(rows, ego_log, verdict, forked_at=t)
    if fork is None:
        # The re-run publishes what the original did, to the end: it is the original.
        return origin.verdict, Trace(origin.rows, origin.ego_log, origin.verdict,
                                     forked_at=origin.ego_log[-1].t)
    cp = origin.checkpoints[fork - 1]
    heading = scenario.a_init[1]
    for w in origin.ego_log[:cp.t // SAMPLE_MS]:
        heading = carried_heading(w, heading)
    monitor = SampleMonitor(scenario, oracles, heading)
    trace = run_scheduler(scenario, ads, plan, fork=(origin, fork), monitor=monitor,
                          memo=memo or ForkMemo())
    return trace.verdict, trace
