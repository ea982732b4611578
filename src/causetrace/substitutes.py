"""Idealized component substitutes, vehicle-dynamic-state quantization, and the
substitution plans that say when each substitute is active.

Substitutes publish ground truth taken straight from the scenario (perception,
prediction, localization) or bypass the motion model by driving the ego along
the planning trajectory (control). State quantization turns the sampled ego
dynamics into integer keys; consecutive equal keys form one state, and the
state index is the time axis of the message-level search. The scheduler
quantizes each sample as it runs (`OnlineStateTracker`) and records a
checkpoint where a state starts; a message belongs to the state of the last
checkpoint at or before its publication (`state_at`). A re-run substitutes from
state k onward, and runs identically to the original until a substitute
publishes something the original did not, at state k or later; the runner
therefore forks such a re-run from the original run's checkpoint at that state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

from .geometry import Vec2
from .middleware import ComponentId, Trace
from .payloads import (ControlOut, LocalizationOut, PerceivedObject, PerceptionOut,
                       PredictedTrajectory, PredictionOut)
from .pipeline import (CONTROL_SPEED_LOOKAHEAD_MS, PREDICTION_HORIZON_MS,
                       PREDICTION_STEP_MS, PlanTable)
from .scenario import Scenario, SimTime, bbox_at, object_box, object_pose_at
from .world import ACCEL_MAX, ACCEL_MIN, EgoState, SENSOR_RANGE

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


class OnlineStateTracker:
    """The state quantizer of a run: numbers the states as the scheduler
    observes each sample."""

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


def state_at(checkpoints: list[tuple], t: SimTime) -> int:
    """The state that holds time t: the count of checkpoints at or before t."""
    return bisect_right(checkpoints, t, key=attrgetter("t"))


def split_trace(trace: Trace, units: QuantizationUnits) -> list[tuple]:
    """Assign every message of a run to its state (`state_at`); returns the
    run's states, one `runner.Checkpoint` each.

    Messages are annotated in place (state_key / state_index). The states are
    the scheduler's: consecutive identical keys merge, a later visit to a key is
    a new state, and the closing `t_max` sample, which the scheduler does not
    observe, is no state. `units` is unread, because the scheduler quantized
    the run with its own; it stays in the signature, which the benchmark's
    workloads call, until `QuantizationUnits` become module constants.
    """
    cps = trace.checkpoints
    assert cps, "split_trace needs the checkpoints of a simulated run"
    for row in trace.rows.values():
        for msg in row:
            msg.state_index = idx = state_at(cps, msg.t_pub)
            msg.state_key = cps[idx - 1].key
    return cps


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


def sim_control_apply(plan: PlanTable, t: SimTime, fallback: EgoState) -> EgoState:
    """Ego state interpolated on the planning trajectory; frozen on empty plans."""
    if plan.n < 2:
        return EgoState(fallback.p, fallback.heading, 0.0, 0.0, t)
    if t <= plan.t0:
        return EgoState(plan.p[0], plan.heading[0], plan.speed[0], 0.0, t)
    lo, r = divmod(t - plan.t0, plan.step)
    if lo >= plan.n - 1:
        return EgoState(plan.p[-1], plan.heading[-1], plan.speed[-1], 0.0, t)
    (ax, ay), (bx, by) = plan.p[lo], plan.p[lo + 1]
    va, vb = plan.speed[lo], plan.speed[lo + 1]
    u = r / plan.step
    # t lies before the next point (u < 1), so the segment's start heading holds.
    return EgoState((ax + (bx - ax) * u, ay + (by - ay) * u), plan.heading[lo],
                    va + (vb - va) * u, (vb - va) / (plan.step / 1000.0), t)


def derived_control(plan: PlanTable, ego_speed: float, t: SimTime) -> ControlOut:
    """Command the idealized control substitute reports into the trace: the
    acceleration that reaches the plan speed CONTROL_SPEED_LOOKAHEAD_MS ahead."""
    if plan.n < 2:
        return ControlOut(0.0, 0.0)
    ahead = plan.speed_at(t + CONTROL_SPEED_LOOKAHEAD_MS)
    accel = (ahead - ego_speed) / (CONTROL_SPEED_LOOKAHEAD_MS / 1000.0)
    return ControlOut(max(ACCEL_MIN, min(ACCEL_MAX, accel)), 0.0)
