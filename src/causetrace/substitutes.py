"""Idealized component substitutes, vehicle-dynamic-state quantization, and the
substitution plans that say when each substitute is active.

Substitutes publish ground truth taken straight from the scenario (perception,
prediction, localization) or bypass the motion model by driving the ego along
the planning trajectory (control). State quantization turns the sampled ego
dynamics into integer keys; consecutive equal keys form one state, and the
state index is the time axis of the message-level search. A re-run substitutes
from state k onward, and runs identically to the original until a substitute
publishes something the original did not, at state k or later; the runner
therefore forks such a re-run from the original run's checkpoint at that state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, itemgetter

from .geometry import Vec2
from .middleware import ComponentId, Trace
from .payloads import (ControlOut, LocalizationOut, PerceivedObject, PerceptionOut,
                       PlanningOut, PredictedTrajectory, PredictionOut)
from .pipeline import PREDICTION_HORIZON_MS, PREDICTION_STEP_MS
from .scenario import Scenario, SimTime, bbox_at, object_box, object_pose_at
from .world import EgoState, SENSOR_RANGE

StateKey = tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class QuantizationUnits:
    p_unit: float = 0.2
    v_unit: float = 0.1
    a_unit: float = 0.1


def quantize_state(p: Vec2, v: Vec2, a: Vec2, units: QuantizationUnits) -> StateKey:
    """Floor quantization of (p, v, a) into integer cells."""
    return (
        math.floor(p[0] / units.p_unit),
        math.floor(p[1] / units.p_unit),
        math.floor(v[0] / units.v_unit),
        math.floor(v[1] / units.v_unit),
        math.floor(a[0] / units.a_unit),
        math.floor(a[1] / units.a_unit),
    )


@dataclass(frozen=True)
class DynamicState:
    index: int  # 1-based position in the state sequence
    key: StateKey
    t_start: SimTime
    t_end: SimTime  # time of the last sample inside the state


class OnlineStateTracker:
    """Incremental version of split_trace used during a live run."""

    def __init__(self, units: QuantizationUnits):
        self.units = units
        self.index = 0
        self.key: StateKey | None = None

    def observe(self, p: Vec2, v: Vec2, a: Vec2) -> tuple[int, StateKey]:
        key = quantize_state(p, v, a, self.units)
        if key != self.key:
            self.index += 1
            self.key = key
        return self.index, key


def split_trace(trace: Trace, units: QuantizationUnits) -> list[DynamicState]:
    """Quantize the ego log into merged states and assign every message to one.

    Consecutive identical keys merge; a later visit to a key is a new state.
    Messages are annotated in place (state_key / state_index).
    """
    assert trace.ego_log, "split_trace needs the ego waypoint log"
    states: list[DynamicState] = []
    tracker = OnlineStateTracker(units)
    sample_index: list[tuple[SimTime, int]] = []
    for w in trace.ego_log:
        idx, key = tracker.observe(w.p, w.v, w.a)
        if idx > len(states):
            states.append(DynamicState(idx, key, w.t, w.t))
        else:
            states[-1] = DynamicState(idx, key, states[-1].t_start, w.t)
        sample_index.append((w.t, idx))
    for row in trace.rows.values():
        for msg in row:
            idx = _state_at(sample_index, msg.t_pub)
            msg.state_index = idx
            msg.state_key = states[idx - 1].key
    return states


def _state_at(sample_index: list[tuple[SimTime, int]], t: SimTime) -> int:
    """State of the last sample at or before t (the first sample's before it)."""
    i = bisect_right(sample_index, t, key=itemgetter(0))
    return sample_index[max(i - 1, 0)][1]


# ---------------------------------------------------------------------------
# substitution plans


@dataclass(frozen=True)
class IdealAll:
    def to_dict(self):
        return {"mode": "ideal_all"}


@dataclass(frozen=True)
class IdealFromState:
    index: int

    def to_dict(self):
        return {"mode": "ideal_from_state", "index": self.index}


@dataclass(frozen=True)
class IdealWithinStates:
    a: int
    b: int

    def to_dict(self):
        return {"mode": "ideal_within", "a": self.a, "b": self.b}


Mode = IdealAll | IdealFromState | IdealWithinStates


@dataclass(frozen=True)
class SubstitutionPlan:
    """The active substitute of each substituted component; a component
    without one runs its original code."""

    modes: dict[ComponentId, Mode] = field(default_factory=dict)

    def __post_init__(self):
        if ComponentId.PLANNING in self.modes:
            raise ValueError("no idealized substitute exists for planning")

    def to_dict(self) -> dict:
        return {c.value: self.modes[c].to_dict() if c in self.modes else {"mode": "original"}
                for c in ComponentId}

    @staticmethod
    def ideal_all(*components: ComponentId) -> "SubstitutionPlan":
        return SubstitutionPlan({c: IdealAll() for c in components})


def active_states(mode: Mode) -> tuple[int, float]:
    """First and last state index at which the substitute is active; the last is
    infinite for a substitute that stays on. State indices start at 1, so a start
    at 0 or below counts as 1. The window is empty when first > last."""
    if isinstance(mode, IdealAll):
        return 1, math.inf
    if isinstance(mode, IdealFromState):
        return max(mode.index, 1), math.inf
    return max(mode.a, 1), mode.b


# ---------------------------------------------------------------------------
# idealized outputs


def ideal_perception(scenario: Scenario, t: SimTime, ego_p: Vec2) -> PerceptionOut:
    """Exact ground-truth object list within sensor range, world frame, no faults."""
    objs = []
    for obj in scenario.objects:
        seen = obj.fixed_perceived
        if seen is None:
            p, v, _ = object_pose_at(obj, t)
        else:
            p = seen.box.center
        dx, dy = p[0] - ego_p[0], p[1] - ego_p[1]
        if dx * dx + dy * dy <= SENSOR_RANGE * SENSOR_RANGE:
            objs.append(seen if seen is not None
                        else PerceivedObject(obj.id, obj.kind, object_box(obj, t, p, v), v))
    return PerceptionOut(tuple(objs))


def ideal_prediction(scenario: Scenario, t: SimTime) -> PredictionOut:
    """Future trajectories read directly from the scripted waypoints."""
    steps = PREDICTION_HORIZON_MS // PREDICTION_STEP_MS + 1
    trajs = []
    for obj in scenario.objects:
        box = obj.fixed_box or bbox_at(obj, t)
        if obj.is_static:
            pts = tuple(zip(range(t, t + PREDICTION_HORIZON_MS + 1, PREDICTION_STEP_MS),
                            repeat(box.center[0]), repeat(box.center[1])))
        else:
            pts = [(t, *box.center)]
            for k in range(1, steps):
                tq = t + k * PREDICTION_STEP_MS
                p = object_pose_at(obj, tq)[0]
                pts.append((tq, p[0], p[1]))
            pts = tuple(pts)
        trajs.append(PredictedTrajectory(obj.id, obj.kind, box.half_extents,
                                         box.heading, pts))
    return PredictionOut(tuple(trajs))


def ideal_localization(true_ego: EgoState) -> LocalizationOut:
    return LocalizationOut(true_ego.p, true_ego.heading, true_ego.speed)


def sim_control_apply(plan: PlanningOut, t: SimTime, fallback: EgoState) -> EgoState:
    """Ego state interpolated on the planning trajectory; frozen on empty plans."""
    if len(plan.trajectory) < 2:
        return EgoState(fallback.p, fallback.heading, 0.0, 0.0, t)
    traj = plan.trajectory
    if t <= traj[0].t:
        pt = traj[0]
        return EgoState(pt.p, pt.heading, pt.speed, 0.0, t)
    if t >= traj[-1].t:
        pt = traj[-1]
        return EgoState(pt.p, pt.heading, pt.speed, 0.0, t)
    lo = bisect_right(traj, t, key=attrgetter("t")) - 1
    a, b = traj[lo], traj[lo + 1]
    u = (t - a.t) / (b.t - a.t)
    p = (a.p[0] + (b.p[0] - a.p[0]) * u, a.p[1] + (b.p[1] - a.p[1]) * u)
    speed = a.speed + (b.speed - a.speed) * u
    accel = (b.speed - a.speed) / ((b.t - a.t) / 1000.0)
    heading = a.heading if u < 1.0 else b.heading
    return EgoState(p, heading, speed, accel, t)


def derived_control(plan: PlanningOut, ego_speed: float, t: SimTime) -> ControlOut:
    """Command the idealized control substitute reports into the trace."""
    if len(plan.trajectory) < 2:
        return ControlOut(0.0, 0.0)
    nxt = sim_control_apply(plan, t + 100, EgoState((0, 0), 0, 0, 0, t))
    accel = max(-8.0, min(3.0, (nxt.speed - ego_speed) / 0.1))
    return ControlOut(accel, 0.0)

