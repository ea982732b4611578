"""Scenario data model: map, traffic objects, signals, loading and geometry queries.

Scenario files are JSON (see `load_scenario`); distances are meters, speeds m/s,
times integer milliseconds. Loaded scenarios are immutable and safe to share
across parallel re-runs.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .geometry import OrientedBox, Vec2, vec_lerp

SimTime = int  # integer milliseconds

KINDS = ("Pedestrian", "Vehicle", "StaticObstacle", "Infrastructure")
SIGNAL_COLORS = ("Red", "Yellow", "Green")


class ParseError(Exception):
    """Scenario file is not valid JSON or misses required structure."""


class ValidationError(Exception):
    """A scenario invariant is violated; message carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Waypoint:
    p: Vec2
    v: Vec2
    a: Vec2
    t: SimTime


@dataclass(frozen=True)
class TrafficObject:
    id: str
    kind: str
    size: tuple[float, float, float]  # length, width, height
    waypoints: tuple[Waypoint, ...]
    heading_override: float | None = None

    @cached_property
    def times(self) -> tuple[SimTime, ...]:
        """The waypoint times, in order: what `object_pose_at` bisects."""
        return tuple(w.t for w in self.waypoints)

    @cached_property
    def is_static(self) -> bool:
        """Never moves: one position and zero velocity at every waypoint."""
        first = self.waypoints[0]
        return all(w.p == first.p and w.v == (0.0, 0.0) for w in self.waypoints)

    @cached_property
    def fixed_box(self) -> OrientedBox | None:
        """The box of an object with a single waypoint, which has the same pose
        and box at every t, bit for bit; None for any other object. A static
        object with several waypoints is not fixed bit for bit: `vec_lerp` between
        two equal points turns -0.0 into 0.0."""
        if len(self.waypoints) != 1:
            return None
        w = self.waypoints[0]
        return object_box(self, w.t, w.p, w.v)

    @cached_property
    def fixed_perceived(self):
        """What ideal perception reports of an object with a `fixed_box`, at any t;
        None for any other object."""
        from .payloads import PerceivedObject  # payloads imports this module
        box = self.fixed_box
        return None if box is None else PerceivedObject(self.id, self.kind, box,
                                                        self.waypoints[0].v)


@dataclass(frozen=True)
class Lane:
    id: str
    centerline: tuple[Vec2, ...]
    width: float
    speed_limit: float

    @cached_property
    def table(self) -> PolylineTable:
        """The centerline's segments."""
        return PolylineTable(self.centerline)


@dataclass(frozen=True)
class LaneMap:
    lanes: tuple[Lane, ...]
    successors: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def lane_by_id(self, lane_id: str) -> Lane:
        for lane in self.lanes:
            if lane.id == lane_id:
                return lane
        raise KeyError(lane_id)

    @cached_property
    def lanes_by_id(self) -> tuple[Lane, ...]:
        """The lanes sorted by id, the order in which `lane_at` breaks ties."""
        return tuple(sorted(self.lanes, key=attrgetter("id")))


@dataclass(frozen=True)
class SignalPhase:
    t_start: SimTime
    t_end: SimTime  # half-open interval [t_start, t_end)
    color: str


@dataclass(frozen=True)
class TrafficSignal:
    id: str
    stop_line: Vec2
    phases: tuple[SignalPhase, ...]

    def color_at(self, t: SimTime) -> str:
        for ph in self.phases:
            if ph.t_start <= t < ph.t_end:
                return ph.color
        return self.phases[-1].color


@dataclass(frozen=True)
class Scenario:
    map: LaneMap
    a_init: tuple[Vec2, float]  # position + heading
    a_dest: Vec2
    objects: tuple[TrafficObject, ...]
    signals: tuple[TrafficSignal, ...]
    t_max: SimTime
    seed: int
    ego_size: tuple[float, float, float]

    @cached_property
    def ego_half(self) -> tuple[float, float]:
        """Half length and half width of the ego box."""
        return (self.ego_size[0] / 2.0, self.ego_size[1] / 2.0)

    @cached_property
    def ego_radius(self) -> float:
        """Radius of the circle that holds the ego box at any heading."""
        return math.hypot(*self.ego_half)


# ---------------------------------------------------------------------------
# geometry queries


def object_pose_at(obj: TrafficObject, t: SimTime) -> tuple[Vec2, Vec2, Vec2]:
    """Pose (p, v, a) at time t: linear interpolation, clamped outside the script."""
    wps = obj.waypoints
    if t <= wps[0].t:
        w = wps[0]
        return w.p, w.v, w.a
    if t >= wps[-1].t:
        w = wps[-1]
        return w.p, w.v, w.a
    i = bisect_right(obj.times, t) - 1
    w0, w1 = wps[i], wps[i + 1]
    u = (t - w0.t) / (w1.t - w0.t)
    return vec_lerp(w0.p, w1.p, u), vec_lerp(w0.v, w1.v, u), w0.a


def _heading_from_motion(obj: TrafficObject, t: SimTime, v: Vec2) -> float:
    """The one heading rule of the object model."""
    if v != (0.0, 0.0):
        return math.atan2(v[1], v[0])
    if obj.heading_override is not None:
        return obj.heading_override
    # Zero instantaneous velocity: fall back to the previous moving segment.
    prev = None
    for w in obj.waypoints:
        if w.t > t:
            break
        if w.v != (0.0, 0.0):
            prev = w
    if prev is not None:
        return math.atan2(prev.v[1], prev.v[0])
    return 0.0


def object_box(obj: TrafficObject, t: SimTime, p: Vec2, v: Vec2) -> OrientedBox:
    """Box of `obj` at time t, given its position and velocity there."""
    length, width, _ = obj.size
    return OrientedBox(p, (length / 2.0, width / 2.0), _heading_from_motion(obj, t, v))


def bbox_at(obj: TrafficObject, t: SimTime) -> OrientedBox:
    p, v, _ = object_pose_at(obj, t)
    return object_box(obj, t, p, v)


class PolylineTable:
    """A polyline's per-segment constants, computed once.

    `point(s)` is the point and heading at arc length s, clamped to the ends.
    `pose(s, lat)` is that point moved `lat` along the segment's left normal.
    `project(p)` is the projection of p on the line: (arc length of the
    projection, signed lateral offset, heading of the segment hit), lateral
    positive to the left of travel; the first of equally near segments (within
    1e-12) wins.
    """

    def __init__(self, line: tuple[Vec2, ...]):
        self.line = line
        ends = []  # arc length at the end of each segment
        # Per segment: start s, length, start point, deltas, heading, left normal.
        segments = []
        # Per segment of positive length: start s, length, start point, unit
        # direction and its heading.
        units = []
        s_acc = 0.0
        for i in range(len(line) - 1):
            ax, ay = line[i]
            bx, by = line[i + 1]
            dx, dy = bx - ax, by - ay
            seg_len = math.hypot(dx, dy)
            heading = math.atan2(dy, dx)
            segments.append((s_acc, seg_len, line[i], (dx, dy), heading,
                             (-math.sin(heading), math.cos(heading))))
            if seg_len > 0.0:
                ux, uy = dx / seg_len, dy / seg_len
                units.append((s_acc, seg_len, ax, ay, ux, uy, math.atan2(uy, ux)))
            s_acc += seg_len
            ends.append(s_acc)
        self.ends, self.segments, self._units = tuple(ends), tuple(segments), tuple(units)

    def _at(self, s: float) -> tuple[Vec2, int]:
        """The point at arc length s and the index of its segment."""
        if s <= 0.0:
            return self.line[0], 0
        if not s <= self.ends[-1]:  # past the end, or NaN
            return self.line[-1], len(self.ends) - 1
        i = bisect_left(self.ends, s)
        start, seg_len, (ax, ay), (dx, dy), _, _ = self.segments[i]
        u = (s - start) / seg_len
        return (ax + dx * u, ay + dy * u), i

    def point(self, s: float) -> tuple[Vec2, float]:
        p, i = self._at(s)
        return p, self.segments[i][4]

    def pose(self, s: float, lat: float) -> tuple[Vec2, float]:
        (x, y), i = self._at(s)
        _, _, _, _, heading, (nx, ny) = self.segments[i]
        return (x + nx * lat, y + ny * lat), heading

    def project(self, p: Vec2) -> tuple[float, float, float]:
        px, py = p
        best = None
        for start, seg_len, ax, ay, ux, uy, heading in self._units:
            t = ((px - ax) * ux + (py - ay) * uy)
            t_cl = min(seg_len, max(0.0, t))
            qx, qy = ax + ux * t_cl, ay + uy * t_cl
            d = math.hypot(px - qx, py - qy)
            if best is None or d < best[0] - 1e-12:
                lateral = -(px - qx) * uy + (py - qy) * ux
                best = (d, start + t_cl, lateral, heading)
        assert best is not None
        return best[1], best[2], best[3]


def lane_at(lane_map: LaneMap, p: Vec2) -> tuple[Lane, float, float] | None:
    """Nearest lane containing p within its width; ties go to the smaller lane id."""
    best: tuple[Lane, float, float] | None = None
    best_abs = math.inf
    for lane in lane_map.lanes_by_id:
        s, lateral, _ = lane.table.project(p)
        if abs(lateral) <= lane.width / 2.0 + 1e-9:
            if abs(lateral) < best_abs - 1e-12:
                best = (lane, s, lateral)
                best_abs = abs(lateral)
    return best


# ---------------------------------------------------------------------------
# load / save / validate


def parse_number(raw, path: str, kind: type = float):
    """`kind(raw)` for a finite JSON number (or numeric string), integral for an
    `int` field; ParseError otherwise. A JSON boolean is not a number."""
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        if kind is int and isinstance(raw, float) and not raw.is_integer():
            raise ParseError(f"{path}: expected an integer, got {raw!r}")
        try:
            value = kind(raw)
            if math.isfinite(value):
                return value
        except (ValueError, OverflowError):
            pass
    raise ParseError(f"{path}: expected a finite number, got {raw!r}")


_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}


def expect(raw, kind: type, path: str):
    """`raw` if it is a `kind`: dict, list or str for a JSON object, array or string."""
    if not isinstance(raw, kind):
        raise ParseError(f"{path}: expected {_JSON_TYPE_NAMES[kind]}")
    return raw


def record(raw, path: str, required=(), optional=()) -> dict:
    """`raw` if it is a JSON object with every `required` key and no key outside
    `required` and `optional`: a misspelt key would otherwise be ignored and
    change what runs. A `path` of "" is the top level of a file."""
    expect(raw, dict, path or "top level")
    for key in raw:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in raw:
            raise ParseError(f"{path or 'top level'}: missing key {key!r}")
    return raw


def parse_vec(raw, path: str) -> Vec2:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ParseError(f"{path}: expected [x, y]")
    return parse_number(raw[0], f"{path}[0]"), parse_number(raw[1], f"{path}[1]")


def _size(raw, path: str) -> tuple[float, float, float]:
    size = tuple(parse_number(x, f"{path}[{i}]") for i, x in enumerate(expect(raw, list, path)))
    if len(size) != 3 or any(x <= 0 for x in size):
        raise ValidationError(path, "size components must be > 0")
    return size


def _parse_waypoint(raw: dict, path: str) -> Waypoint:
    record(raw, path, ("t_ms", "p", "v", "a"))
    t = parse_number(raw["t_ms"], f"{path}.t_ms", int)
    p = parse_vec(raw["p"], f"{path}.p")
    v = parse_vec(raw["v"], f"{path}.v")
    a = parse_vec(raw["a"], f"{path}.a")
    if t < 0:
        raise ValidationError(f"{path}.t_ms", "must be >= 0")
    return Waypoint(p, v, a, t)


def _parse_object(raw: dict, idx: int) -> TrafficObject:
    path = f"objects[{idx}]"
    record(raw, path, ("id", "kind", "size", "waypoints"), ("heading_override",))
    obj_id = expect(raw["id"], str, f"{path}.id")
    kind = raw["kind"]
    size = _size(raw["size"], f"{path}.size")
    wps_raw = expect(raw["waypoints"], list, f"{path}.waypoints")
    if kind not in KINDS:
        raise ValidationError(f"{path}.kind", f"unknown kind {kind!r}")
    if not wps_raw:
        raise ValidationError(f"{path}.waypoints", "must be non-empty")
    wps = tuple(_parse_waypoint(w, f"{path}.waypoints[{i}]") for i, w in enumerate(wps_raw))
    for i in range(1, len(wps)):
        if wps[i].t <= wps[i - 1].t:
            raise ValidationError(f"{path}.waypoints[{i}].t_ms", "must be strictly increasing")
    obj = TrafficObject(
        id=obj_id,
        kind=kind,
        size=(size[0], size[1], size[2]),
        waypoints=wps,
        heading_override=(parse_number(raw["heading_override"], f"{path}.heading_override")
                          if "heading_override" in raw else None),
    )
    if kind in ("StaticObstacle", "Infrastructure"):
        first = wps[0]
        for i, w in enumerate(wps):
            if w.p != first.p or w.v != (0.0, 0.0) or w.a != (0.0, 0.0):
                raise ValidationError(
                    f"{path}.waypoints[{i}]", "static object requires constant p and zero v, a"
                )
    return obj


def _parse_lane(raw: dict, idx: int) -> Lane:
    path = f"map.lanes[{idx}]"
    record(raw, path, ("id", "centerline", "width", "speed_limit"))
    lane_id = expect(raw["id"], str, f"{path}.id")
    pts = tuple(parse_vec(p, f"{path}.centerline[{i}]")
                for i, p in enumerate(expect(raw["centerline"], list, f"{path}.centerline")))
    width = parse_number(raw["width"], f"{path}.width")
    speed_limit = parse_number(raw["speed_limit"], f"{path}.speed_limit")
    if len(set(pts)) < 2:
        raise ValidationError(f"{path}.centerline", "needs at least 2 distinct points")
    if width <= 0:
        raise ValidationError(f"{path}.width", "must be > 0")
    if speed_limit <= 0:
        raise ValidationError(f"{path}.speed_limit", "must be > 0")
    return Lane(lane_id, pts, width, speed_limit)


def _parse_signal(raw: dict, idx: int, t_max: SimTime) -> TrafficSignal:
    path = f"signals[{idx}]"
    record(raw, path, ("id", "stop_line", "phases"))
    sig_id = expect(raw["id"], str, f"{path}.id")
    stop_line = parse_vec(raw["stop_line"], f"{path}.stop_line")
    phases_raw = expect(raw["phases"], list, f"{path}.phases")
    phases = []
    for i, ph in enumerate(phases_raw):
        ph_path = f"{path}.phases[{i}]"
        color = record(ph, ph_path, ("color", "t_start_ms", "t_end_ms"))["color"]
        if color not in SIGNAL_COLORS:
            raise ValidationError(f"{ph_path}.color", f"unknown color {color!r}")
        t_start = parse_number(ph["t_start_ms"], f"{ph_path}.t_start_ms", int)
        t_end = parse_number(ph["t_end_ms"], f"{ph_path}.t_end_ms", int)
        phases.append(SignalPhase(t_start, t_end, color))
    # In time order, each named by its index in the file.
    order = sorted(range(len(phases)), key=lambda i: phases[i].t_start)
    cursor = 0
    for i in order:
        ph = phases[i]
        if ph.t_start != cursor:
            raise ValidationError(f"{path}.phases[{i}]", "phases must be contiguous from 0")
        if ph.t_end <= ph.t_start:
            raise ValidationError(f"{path}.phases[{i}]", "empty phase interval")
        cursor = ph.t_end
    if cursor < t_max:
        raise ValidationError(f"{path}.phases", f"phases must cover [0, {t_max})")
    return TrafficSignal(sig_id, stop_line, tuple(phases[i] for i in order))


def _reachable_lanes(lane_map: LaneMap, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in lane_map.successors.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _unique_ids(items, path: str) -> set[str]:
    """The ids of `items`; a repeated one fails at `<path>[<i>].id`."""
    ids: set[str] = set()
    for i, item in enumerate(items):
        if item.id in ids:
            raise ValidationError(f"{path}[{i}].id", f"repeats id {item.id!r}")
        ids.add(item.id)
    return ids


def scenario_from_dict(doc: dict) -> Scenario:
    record(doc, "", ("map", "ego", "t_max_ms", "seed"), ("objects", "signals"))
    map_raw = record(doc["map"], "map", ("lanes",), ("successors",))
    ego = record(doc["ego"], "ego", ("init_pose", "dest", "size"))
    t_max = parse_number(doc["t_max_ms"], "t_max_ms", int)
    seed = parse_number(doc["seed"], "seed", int)

    lanes = tuple(_parse_lane(ln, i)
                  for i, ln in enumerate(expect(map_raw["lanes"], list, "map.lanes")))
    lane_ids = _unique_ids(lanes, "map.lanes")
    successors = {}
    for lane_id, succ in expect(map_raw.get("successors", {}), dict, "map.successors").items():
        if lane_id not in lane_ids:
            raise ValidationError(f"map.successors.{lane_id}", "unknown lane")
        for s in expect(succ, list, f"map.successors.{lane_id}"):
            if not isinstance(s, str) or s not in lane_ids:
                raise ValidationError(f"map.successors.{lane_id}", f"unknown successor {s!r}")
        successors[lane_id] = tuple(succ)
    lane_map = LaneMap(lanes, successors)

    init_pose_raw = expect(ego["init_pose"], list, "ego.init_pose")
    if len(init_pose_raw) != 3:
        raise ParseError("ego.init_pose: expected [x, y, heading]")
    a_init = (parse_vec(init_pose_raw[:2], "ego.init_pose"),
              parse_number(init_pose_raw[2], "ego.init_pose[2]"))
    a_dest = parse_vec(ego["dest"], "ego.dest")
    ego_size = _size(ego["size"], "ego.size")

    if t_max <= 0:
        raise ValidationError("t_max_ms", "must be > 0")
    if seed < 0 or seed >= 2**64:
        raise ValidationError("seed", "must fit in 64 unsigned bits")

    objects = tuple(_parse_object(o, i)
                    for i, o in enumerate(expect(doc.get("objects", []), list, "objects")))
    _unique_ids(objects, "objects")

    signals = tuple(_parse_signal(s, i, t_max)
                    for i, s in enumerate(expect(doc.get("signals", []), list, "signals")))

    init_hit = lane_at(lane_map, a_init[0])
    if init_hit is None:
        raise ValidationError("ego.init_pose", "must lie on some lane")
    dest_hit = lane_at(lane_map, a_dest)
    if dest_hit is None:
        raise ValidationError("ego.dest", "must lie on some lane")
    if dest_hit[0].id not in _reachable_lanes(lane_map, init_hit[0].id):
        raise ValidationError("ego.dest", "destination lane unreachable from initial lane")

    return Scenario(
        map=lane_map,
        a_init=a_init,
        a_dest=a_dest,
        objects=objects,
        signals=signals,
        t_max=t_max,
        seed=seed,
        ego_size=(ego_size[0], ego_size[1], ego_size[2]),
    )


def load_json(path: str | Path, lines: bool = False):
    """The JSON document in file `path`; with `lines`, a JSON-lines file as a list
    of (line number, document) for its non-blank lines. Unreadable, non-UTF-8,
    malformed, too deeply nested or over-long-integer input raises ParseError
    naming the file (and the line)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not lines:
        return _decode_json(text, str(path))
    return [(n, _decode_json(line, f"{path}: line {n}"))
            for n, line in enumerate(text.splitlines(), 1) if line.strip()]


def _decode_json(text: str, where: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{where}: invalid JSON: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(load_json(path))


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "map": {
            "lanes": [
                {
                    "id": ln.id,
                    "centerline": [list(p) for p in ln.centerline],
                    "width": ln.width,
                    "speed_limit": ln.speed_limit,
                }
                for ln in sc.map.lanes
            ],
            "successors": {k: list(v) for k, v in sorted(sc.map.successors.items())},
        },
        "ego": {
            "init_pose": [sc.a_init[0][0], sc.a_init[0][1], sc.a_init[1]],
            "dest": list(sc.a_dest),
            "size": list(sc.ego_size),
        },
        "objects": [
            {
                "id": o.id,
                "kind": o.kind,
                "size": list(o.size),
                "waypoints": [
                    {"t_ms": w.t, "p": list(w.p), "v": list(w.v), "a": list(w.a)}
                    for w in o.waypoints
                ],
                **({"heading_override": o.heading_override} if o.heading_override is not None else {}),
            }
            for o in sc.objects
        ],
        "signals": [
            {
                "id": s.id,
                "stop_line": list(s.stop_line),
                "phases": [
                    {"t_start_ms": p.t_start, "t_end_ms": p.t_end, "color": p.color}
                    for p in s.phases
                ],
            }
            for s in sc.signals
        ],
        "t_max_ms": sc.t_max,
        "seed": sc.seed,
    }


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(sc), indent=2) + "\n", encoding="utf-8")
