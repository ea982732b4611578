"""Declarative fault injection applied to component output payloads.

Faults are data: a target component, a kind, a trigger (time window, optional
object id / region), and kind-specific magnitude parameters. Mutators return
the possibly-changed payload plus whether anything actually changed, which is
what marks a message as fault-affected in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import OrientedBox, Vec2
from .middleware import ComponentId
from .payloads import (ControlOut, LocalizationOut, PerceivedObject, PerceptionOut,
                       PlanningOut, PredictedTrajectory, PredictionOut, TrajPoint)
from .scenario import (SimTime, ValidationError, expect, load_json, parse_number, parse_vec,
                       record)

FAULT_KINDS: dict[str, ComponentId] = {
    "miss_detection": ComponentId.PERCEPTION,
    "wrong_bbox": ComponentId.PERCEPTION,
    "wrong_longitudinal_distance": ComponentId.PERCEPTION,
    "wrong_lateral_distance": ComponentId.PERCEPTION,
    "wrong_velocity": ComponentId.PERCEPTION,
    "no_prediction_trajectory": ComponentId.PREDICTION,
    "wrong_prediction_trajectory": ComponentId.PREDICTION,
    "incorrect_path_planning": ComponentId.PLANNING,
    "incorrect_speed_planning": ComponentId.PLANNING,
    "no_planning_trajectory": ComponentId.PLANNING,
    "wrong_longitudinal_command": ComponentId.CONTROL,
    "wrong_lateral_command": ComponentId.CONTROL,
    "wrong_lateral_localization": ComponentId.LOCALIZATION,
}

# Magnitude keys the mutators read with float(), and the prediction fault modes.
MAGNITUDE_NUMBERS = ("dlength", "dwidth", "offset", "dv", "speed", "lateral_bias", "ramp_ms",
                     "target_speed")
PREDICTION_MODES = ("static", "departing")


@dataclass(frozen=True)
class Trigger:
    t0: SimTime = 0
    t1: SimTime = 1 << 62  # half-open [t0, t1)
    object_id: str | None = None
    region: tuple[Vec2, float] | None = None  # (center, radius) on the subject position

    def time_active(self, t: SimTime) -> bool:
        return self.t0 <= t < self.t1

    def matches_object(self, obj_id: str) -> bool:
        return self.object_id is None or self.object_id == obj_id

    def in_region(self, p: Vec2) -> bool:
        if self.region is None:
            return True
        (cx, cy), r = self.region
        return (p[0] - cx) ** 2 + (p[1] - cy) ** 2 <= r * r


@dataclass(frozen=True)
class FaultSpec:
    target: ComponentId
    kind: str
    trigger: Trigger = field(default_factory=Trigger)
    magnitude: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if FAULT_KINDS[self.kind] is not self.target:
            raise ValueError(f"fault kind {self.kind!r} invalid for {self.target.value}")

    def to_dict(self) -> dict:
        out: dict = {"target": self.target.value, "kind": self.kind}
        trig: dict = {}
        if self.trigger.t0 != 0:
            trig["t0_ms"] = self.trigger.t0
        if self.trigger.t1 < (1 << 62):
            trig["t1_ms"] = self.trigger.t1
        if self.trigger.object_id is not None:
            trig["object_id"] = self.trigger.object_id
        if self.trigger.region is not None:
            trig["region"] = {"center": list(self.trigger.region[0]),
                              "radius": self.trigger.region[1]}
        if trig:
            out["trigger"] = trig
        if self.magnitude:
            out["magnitude"] = self.magnitude
        return out


def fault_from_dict(doc: dict, path: str = "fault") -> FaultSpec:
    """Parse one fault; malformed input raises ParseError / ValidationError."""
    record(doc, path, ("target", "kind"), ("trigger", "magnitude"))
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in FAULT_KINDS:
        raise ValidationError(f"{path}.kind", f"unknown fault kind {kind!r}")
    if doc["target"] != FAULT_KINDS[kind].value:
        raise ValidationError(f"{path}.target", f"fault kind {kind!r} targets "
                              f"{FAULT_KINDS[kind].value}, not {doc['target']!r}")
    trigger = _trigger_from_dict(doc.get("trigger", {}), f"{path}.trigger")
    magnitude = dict(record(doc.get("magnitude", {}), f"{path}.magnitude",
                            optional=(*MAGNITUDE_NUMBERS, "mode")))
    for key in MAGNITUDE_NUMBERS:
        if key in magnitude:
            parse_number(magnitude[key], f"{path}.magnitude.{key}")
    if magnitude.get("mode", "static") not in PREDICTION_MODES:
        raise ValidationError(f"{path}.magnitude.mode", f"unknown mode {magnitude['mode']!r}")
    return FaultSpec(target=FAULT_KINDS[kind], kind=kind, trigger=trigger,
                     magnitude=magnitude)


def _trigger_from_dict(doc, path: str) -> Trigger:
    record(doc, path, optional=("t0_ms", "t1_ms", "object_id", "region"))
    t0 = parse_number(doc.get("t0_ms", 0), f"{path}.t0_ms", int)
    t1 = parse_number(doc.get("t1_ms", 1 << 62), f"{path}.t1_ms", int)
    if t1 <= t0:
        raise ValidationError(f"{path}.t1_ms", f"must be > t0_ms ({t0})")
    object_id = doc.get("object_id")
    if object_id is not None:
        expect(object_id, str, f"{path}.object_id")
    region = None
    if "region" in doc:
        where = f"{path}.region"
        raw = record(doc["region"], where, ("center", "radius"))
        radius = parse_number(raw["radius"], f"{where}.radius")
        if radius < 0:
            raise ValidationError(f"{where}.radius", "must be >= 0")
        region = (parse_vec(raw["center"], f"{where}.center"), radius)
    return Trigger(t0=t0, t1=t1, object_id=object_id, region=region)


def load_fault_file(path: str | Path) -> list[FaultSpec]:
    doc = load_json(path)
    if isinstance(doc, dict):
        if "faults" not in doc:
            return [fault_from_dict(doc)]
        doc = record(doc, "", ("faults",))["faults"]
    faults = expect(doc, list, "faults")
    return [fault_from_dict(d, f"faults[{i}]") for i, d in enumerate(faults)]


# ---------------------------------------------------------------------------
# mutators


def _unit(heading: float) -> Vec2:
    return (math.cos(heading), math.sin(heading))


def _left_normal(heading: float) -> Vec2:
    return (-math.sin(heading), math.cos(heading))


def apply_perception_faults(out: PerceptionOut, faults: list[FaultSpec], t: SimTime,
                            ego_heading: float) -> tuple[PerceptionOut, bool]:
    objs = list(out.objects)
    changed = False
    for f in faults:
        if not f.trigger.time_active(t):
            continue
        new_objs: list[PerceivedObject] = []
        for o in objs:
            if not (f.trigger.matches_object(o.id) and f.trigger.in_region(o.box.center)):
                new_objs.append(o)
                continue
            if f.kind == "miss_detection":
                changed = True
                continue
            if f.kind == "wrong_bbox":
                dl = float(f.magnitude.get("dlength", 0.0))
                dw = float(f.magnitude.get("dwidth", 0.0))
                hl = max(0.05, o.box.half_extents[0] + dl / 2.0)
                hw = max(0.05, o.box.half_extents[1] + dw / 2.0)
                new_objs.append(PerceivedObject(o.id, o.kind,
                                                OrientedBox(o.box.center, (hl, hw), o.box.heading),
                                                o.v))
                changed = True
            elif f.kind in ("wrong_longitudinal_distance", "wrong_lateral_distance"):
                off = float(f.magnitude.get("offset", 0.0))
                axis = _unit(ego_heading) if f.kind == "wrong_longitudinal_distance" \
                    else _left_normal(ego_heading)
                c = (o.box.center[0] + axis[0] * off, o.box.center[1] + axis[1] * off)
                new_objs.append(PerceivedObject(o.id, o.kind,
                                                OrientedBox(c, o.box.half_extents, o.box.heading),
                                                o.v))
                changed = True
            elif f.kind == "wrong_velocity":
                dv = float(f.magnitude.get("dv", 0.0))
                speed = math.hypot(*o.v)
                if speed > 1e-9:
                    ux, uy = o.v[0] / speed, o.v[1] / speed
                else:
                    ux, uy = _unit(o.box.heading)
                new_objs.append(PerceivedObject(o.id, o.kind, o.box,
                                                (o.v[0] + ux * dv, o.v[1] + uy * dv)))
                changed = True
            else:
                new_objs.append(o)
        objs = new_objs
    if not changed:
        return out, False
    return PerceptionOut(tuple(objs)), True


def apply_prediction_faults(out: PredictionOut, faults: list[FaultSpec],
                            t: SimTime) -> tuple[PredictionOut, bool]:
    trajs = list(out.trajectories)
    changed = False
    for f in faults:
        if not f.trigger.time_active(t):
            continue
        new_trajs: list[PredictedTrajectory] = []
        for tr in trajs:
            p0 = (tr.points[0][1], tr.points[0][2])
            if not (f.trigger.matches_object(tr.id) and f.trigger.in_region(p0)):
                new_trajs.append(tr)
                continue
            if f.kind == "no_prediction_trajectory":
                changed = True
                continue
            if f.kind == "wrong_prediction_trajectory":
                mode = f.magnitude.get("mode", "static")
                if mode == "static":
                    pts = tuple((pt, p0[0], p0[1]) for pt, _, _ in tr.points)
                else:  # departing: constant speed along current heading
                    spd = float(f.magnitude.get("speed", 5.0))
                    ux, uy = _unit(tr.heading)
                    pts = tuple((pt, p0[0] + ux * spd * (pt - tr.points[0][0]) / 1000.0,
                                 p0[1] + uy * spd * (pt - tr.points[0][0]) / 1000.0)
                                for pt, _, _ in tr.points)
                if pts != tr.points:
                    changed = True
                new_trajs.append(PredictedTrajectory(tr.id, tr.kind, tr.half_extents,
                                                     tr.heading, pts))
            else:
                new_trajs.append(tr)
        trajs = new_trajs
    if not changed:
        return out, False
    return PredictionOut(tuple(trajs)), True


def apply_planning_faults(out: PlanningOut, faults: list[FaultSpec], t: SimTime,
                          ego_p: Vec2) -> tuple[PlanningOut, bool]:
    cur = out
    changed = False
    for f in faults:
        if not (f.trigger.time_active(t) and f.trigger.in_region(ego_p)):
            continue
        if f.kind == "no_planning_trajectory":
            if cur.trajectory:
                cur = PlanningOut((), cur.decision, cur.branch_tags)
                changed = True
        elif f.kind == "incorrect_path_planning" and cur.trajectory:
            bias = float(f.magnitude.get("lateral_bias", 0.0))
            ramp_ms = float(f.magnitude.get("ramp_ms", 1500.0))
            t0 = cur.trajectory[0].t
            pts = []
            for pt in cur.trajectory:
                k = min(1.0, (pt.t - t0) / ramp_ms) if ramp_ms > 0 else 1.0
                nx, ny = _left_normal(pt.heading)
                pts.append(TrajPoint(pt.t, (pt.p[0] + nx * bias * k, pt.p[1] + ny * bias * k),
                                     pt.speed, pt.heading))
            cur = PlanningOut(tuple(pts), cur.decision, cur.branch_tags)
            changed = True
        elif f.kind == "incorrect_speed_planning" and cur.trajectory:
            target = float(f.magnitude.get("target_speed",
                                           max(pt.speed for pt in cur.trajectory)))
            if any(pt.speed < target - 1e-6 for pt in cur.trajectory):
                # Re-integrate positions so the trajectory really cruises through:
                # march along the original headings, extending straight past the end.
                first = cur.trajectory[0]
                pts = [TrajPoint(first.t, first.p, max(first.speed, target), first.heading)]
                for i in range(1, len(cur.trajectory)):
                    prev_src = cur.trajectory[i - 1]
                    src = cur.trajectory[i]
                    dt_s = (src.t - prev_src.t) / 1000.0
                    prev = pts[-1]
                    ux, uy = _unit(prev_src.heading)
                    pts.append(TrajPoint(src.t,
                                         (prev.p[0] + ux * target * dt_s,
                                          prev.p[1] + uy * target * dt_s),
                                         target, src.heading))
                cur = PlanningOut(tuple(pts), cur.decision, cur.branch_tags)
                changed = True
    return cur, changed


def apply_control_faults(out: ControlOut, faults: list[FaultSpec], t: SimTime,
                         ego_p: Vec2) -> tuple[ControlOut, bool]:
    accel, steer = out.accel_cmd, out.steer
    changed = False
    for f in faults:
        if not (f.trigger.time_active(t) and f.trigger.in_region(ego_p)):
            continue
        if f.kind == "wrong_longitudinal_command":
            accel += float(f.magnitude.get("offset", 0.0))
            changed = True
        elif f.kind == "wrong_lateral_command":
            steer += float(f.magnitude.get("offset", 0.0))
            changed = True
    if not changed:
        return out, False
    return ControlOut(accel, steer), True


def apply_localization_faults(out: LocalizationOut, faults: list[FaultSpec],
                              t: SimTime) -> tuple[LocalizationOut, bool]:
    cur = out
    changed = False
    for f in faults:
        if f.kind != "wrong_lateral_localization":
            continue
        if not (f.trigger.time_active(t) and f.trigger.in_region(cur.p)):
            continue
        off = float(f.magnitude.get("offset", 0.0))
        nx, ny = _left_normal(cur.heading)
        cur = LocalizationOut((cur.p[0] + nx * off, cur.p[1] + ny * off),
                              cur.heading, cur.speed)
        changed = True
    return cur, changed
