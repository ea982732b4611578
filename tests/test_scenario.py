import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetrace.geometry import vec_lerp
from causetrace.scenario import (Lane, LaneMap, ParseError, PolylineTable, TrafficObject,
                                 ValidationError, Waypoint, bbox_at, lane_at,
                                 load_scenario, object_pose_at, parse_number,
                                 scenario_from_dict)
from conftest import static_object, straight_road_doc


def crossing_ped(speed=1.6):
    return TrafficObject(
        id="p", kind="Pedestrian", size=(0.5, 0.5, 1.8),
        waypoints=(
            Waypoint((60.0, 8.0), (0.0, -speed), (0.0, 0.0), 0),
            Waypoint((60.0, -8.0), (0.0, -speed), (0.0, 0.0), int(16000 / speed)),
        ),
    )


def test_minimal_scenario_no_objects():
    sc = scenario_from_dict(straight_road_doc())
    assert sc.objects == ()
    assert sc.t_max == 5000


def test_cs1_has_one_pedestrian():
    from causetrace.benchmark import load_builtin_scenario

    sc = load_builtin_scenario("cs1")
    peds = [o for o in sc.objects if o.kind == "Pedestrian"]
    assert len(peds) == 1


def test_dest_off_lane_rejected():
    doc = straight_road_doc()
    doc["ego"]["dest"] = [120.0, 50.0]
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(doc)
    assert "ego.dest" in str(exc.value)


def test_validation_error_survives_pickling():
    # A process-pool worker hands its exception back pickled.
    again = pickle.loads(pickle.dumps(ValidationError("a.b", "msg")))
    assert type(again) is ValidationError
    assert (again.path, str(again)) == ("a.b", "a.b: msg")


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nope.json")


def test_malformed_json_is_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(bad)


def test_nonmonotone_waypoints_rejected():
    doc = straight_road_doc(objects=[{
        "id": "o", "kind": "Vehicle", "size": [4, 2, 1.5],
        "waypoints": [
            {"t_ms": 1000, "p": [0, 0], "v": [1, 0], "a": [0, 0]},
            {"t_ms": 1000, "p": [1, 0], "v": [1, 0], "a": [0, 0]},
        ]}])
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(doc)
    assert "waypoints[1]" in str(exc.value)


def test_static_kind_requires_zero_motion():
    doc = straight_road_doc(objects=[{
        "id": "o", "kind": "StaticObstacle", "size": [1, 1, 1],
        "waypoints": [
            {"t_ms": 0, "p": [10, 0], "v": [0, 0], "a": [0, 0]},
            {"t_ms": 1000, "p": [11, 0], "v": [0, 0], "a": [0, 0]},
        ]}])
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)


def test_interpolation_midpoint():
    obj = TrafficObject("o", "Vehicle", (4, 2, 1.5), (
        Waypoint((0.0, 0.0), (2.0, 0.0), (0.0, 0.0), 0),
        Waypoint((4.0, 0.0), (2.0, 0.0), (0.0, 0.0), 2000),
    ))
    p, v, a = object_pose_at(obj, 1000)
    assert p == pytest.approx((2.0, 0.0))
    assert v == pytest.approx((2.0, 0.0))


def test_static_object_constant():
    obj = scenario_from_dict(straight_road_doc(objects=[static_object()])).objects[0]
    for t in (0, 500, 123456):
        p, v, _ = object_pose_at(obj, t)
        assert p == (70.0, 0.0)
        assert v == (0.0, 0.0)


def test_clamp_beyond_last_waypoint_matches_dense_resampling():
    obj = crossing_ped()
    t_end = obj.waypoints[-1].t
    p_end = obj.waypoints[-1].p
    # Dense resampling oracle: beyond the script, pose must be frozen.
    for t in range(t_end, t_end + 5000, 97):
        p, v, _ = object_pose_at(obj, t)
        assert p == p_end
    p_before, _, _ = object_pose_at(obj, -50)
    assert p_before == obj.waypoints[0].p


def test_bbox_moving_vehicle():
    obj = TrafficObject("o", "Vehicle", (4, 2, 1.5), (
        Waypoint((10.0, 0.0), (5.0, 0.0), (0.0, 0.0), 0),
        Waypoint((20.0, 0.0), (5.0, 0.0), (0.0, 0.0), 2000),
    ))
    box = bbox_at(obj, 0)
    assert box.center == (10.0, 0.0)
    assert box.half_extents == (2.0, 1.0)
    assert box.heading == 0.0


def test_bbox_static_pedestrian_heading_zero():
    obj = TrafficObject("p", "Pedestrian", (0.5, 0.5, 1.8),
                        (Waypoint((3.0, 4.0), (0.0, 0.0), (0.0, 0.0), 0),))
    assert bbox_at(obj, 1000).heading == 0.0


def test_bbox_rotated_corners_match_rotation_matrix():
    heading = math.radians(45)
    vx, vy = 3 * math.cos(heading), 3 * math.sin(heading)
    obj = TrafficObject("o", "Vehicle", (4, 2, 1.5), (
        Waypoint((0.0, 0.0), (vx, vy), (0.0, 0.0), 0),
        Waypoint((vx, vy), (vx, vy), (0.0, 0.0), 1000),
    ))
    box = bbox_at(obj, 0)
    c, s = math.cos(heading), math.sin(heading)
    for got, (lx, ly) in zip(box.corners(), ((2, 1), (2, -1), (-2, -1), (-2, 1))):
        want = (lx * c - ly * s, lx * s + ly * c)
        assert got == pytest.approx(want, abs=1e-12)


def test_heading_falls_back_to_previous_segment():
    obj = TrafficObject("o", "Vehicle", (4, 2, 1.5), (
        Waypoint((0.0, 0.0), (0.0, 3.0), (0.0, 0.0), 0),
        Waypoint((0.0, 6.0), (0.0, 0.0), (0.0, 0.0), 2000),
        Waypoint((0.0, 6.0), (0.0, 0.0), (0.0, 0.0), 4000),
    ))
    assert bbox_at(obj, 3000).heading == pytest.approx(math.pi / 2)


def make_map():
    return LaneMap(lanes=(
        Lane("a", ((0.0, 0.0), (100.0, 0.0)), 3.5, 11.0),
        Lane("b", ((0.0, 3.5), (100.0, 3.5)), 3.5, 11.0),
    ))


def test_lane_at_centerline():
    hit = lane_at(make_map(), (50.0, 0.0))
    assert hit is not None
    lane, s, lateral = hit
    assert lane.id == "a"
    assert s == pytest.approx(50.0)
    assert lateral == pytest.approx(0.0)


def test_lane_at_off_all_lanes():
    assert lane_at(make_map(), (50.0, 15.0)) is None


def test_lane_at_tie_breaks_to_smaller_id():
    # y=1.75 is exactly half-width from both centerlines.
    hit = lane_at(make_map(), (50.0, 1.75))
    assert hit is not None
    assert hit[0].id == "a"


def test_lane_at_tie_rule_holds_whatever_the_map_order():
    # The id order is taken once per map; a map listing "b" first still ties to "a".
    lanes = make_map().lanes
    flipped = LaneMap(lanes=lanes[::-1])
    assert [ln.id for ln in flipped.lanes_by_id] == ["a", "b"]
    assert flipped.lanes_by_id is flipped.lanes_by_id
    for p in ((50.0, 1.75), (50.0, 0.0), (50.0, 3.0), (50.0, 15.0)):
        assert lane_at(flipped, p) == lane_at(make_map(), p)
    assert lane_at(flipped, (50.0, 1.75))[0].id == "a"


def test_lateral_sign_is_left_positive():
    hit = lane_at(make_map(), (50.0, 1.0))
    assert hit[2] == pytest.approx(1.0)


def _full_doc():
    return straight_road_doc(objects=[static_object()],
                             signals=[{"id": "s1", "stop_line": [80.0, 0.0], "phases": [
                                 {"t_start_ms": 0, "t_end_ms": 5000, "color": "Red"}]}])


@pytest.mark.parametrize("where, path", [
    (lambda d: d, "t_maxx"),
    (lambda d: d["map"], "map.t_maxx"),
    (lambda d: d["map"]["lanes"][1], "map.lanes[1].t_maxx"),
    (lambda d: d["ego"], "ego.t_maxx"),
    (lambda d: d["objects"][0], "objects[0].t_maxx"),
    (lambda d: d["objects"][0]["waypoints"][0], "objects[0].waypoints[0].t_maxx"),
    (lambda d: d["signals"][0], "signals[0].t_maxx"),
    (lambda d: d["signals"][0]["phases"][0], "signals[0].phases[0].t_maxx"),
])
def test_unknown_key_rejected_at_every_level(where, path):
    doc = _full_doc()
    scenario_from_dict(doc)
    where(doc)["t_maxx"] = 1
    with pytest.raises(ValidationError, match=rf"^{re.escape(path)}: unknown key"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("where, key, path", [
    (lambda d: d, "map", "top level"),
    (lambda d: d["map"], "lanes", "map"),
    (lambda d: d["map"]["lanes"][1], "width", "map.lanes[1]"),
    (lambda d: d["ego"], "dest", "ego"),
    (lambda d: d["objects"][0], "kind", "objects[0]"),
    (lambda d: d["objects"][0]["waypoints"][0], "p", "objects[0].waypoints[0]"),
    (lambda d: d["signals"][0], "phases", "signals[0]"),
    (lambda d: d["signals"][0]["phases"][0], "color", "signals[0].phases[0]"),
])
def test_missing_key_reported_at_every_level(where, key, path):
    doc = _full_doc()
    del where(doc)[key]
    with pytest.raises(ParseError, match=rf"^{re.escape(path)}: missing key '{key}'$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("raw, want", [(5000, 5000), (5000.0, 5000), ("5000", 5000),
                                       (-0.0, 0), (2**63, 2**63)])
def test_integer_fields_take_integral_numbers(raw, want):
    got = parse_number(raw, "t_max_ms", int)
    assert (got, type(got)) == (want, int)


@pytest.mark.parametrize("raw, kind", [(4999.9, int), ("4999.9", int), (True, int),
                                       (False, int), (True, float), (math.inf, int)])
def test_number_fields_reject_non_integral_and_boolean(raw, kind):
    with pytest.raises(ParseError, match=r"^t_max_ms: expected "):
        parse_number(raw, "t_max_ms", kind)


def test_signal_phase_error_names_the_phase_in_the_file():
    # The phases are checked in time order, but named by their index in the file.
    doc = straight_road_doc(signals=[{"id": "s1", "stop_line": [80.0, 0.0], "phases": [
        {"t_start_ms": 3000, "t_end_ms": 3000, "color": "Green"},
        {"t_start_ms": 0, "t_end_ms": 3000, "color": "Red"}]}])
    with pytest.raises(ValidationError, match=r"^signals\[0\]\.phases\[0\]: empty phase"):
        scenario_from_dict(doc)
    doc["signals"][0]["phases"][0]["t_end_ms"] = 5000
    assert [ph.color for ph in scenario_from_dict(doc).signals[0].phases] == ["Red", "Green"]


def test_repeated_ids_are_rejected_where_they_repeat():
    # Lanes are looked up by id (lane_by_id, map.successors), so a repeated lane
    # id would make a name mean two lanes.
    doc = straight_road_doc()
    doc["map"]["lanes"].append(dict(doc["map"]["lanes"][0], centerline=[[0.0, 7.0],
                                                                         [200.0, 7.0]]))
    assert [ln["id"] for ln in doc["map"]["lanes"]] == ["lane0", "lane1", "lane0"]
    with pytest.raises(ValidationError, match=r"^map\.lanes\[2\]\.id: repeats id 'lane0'"):
        scenario_from_dict(doc)
    doc = straight_road_doc(objects=[static_object("a"), static_object("b", p=(80.0, 0.0)),
                                     static_object("a", p=(90.0, 0.0))])
    with pytest.raises(ValidationError, match=r"^objects\[2\]\.id: repeats id 'a'"):
        scenario_from_dict(doc)


def test_signal_phase_gaps_rejected():
    doc = straight_road_doc(signals=[{"id": "s1", "stop_line": [80.0, 0.0],
                                      "phases": [
                                          {"t_start_ms": 0, "t_end_ms": 2000, "color": "Red"},
                                          {"t_start_ms": 2500, "t_end_ms": 5000, "color": "Green"},
                                      ]}])
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)


@settings(max_examples=100, deadline=None)
@given(t1=st.integers(0, 10000), t2=st.integers(0, 10000))
def test_displacement_bounded_by_max_segment_speed(t1, t2):
    obj = crossing_ped(speed=1.6)
    if t1 > t2:
        t1, t2 = t2, t1
    p1, _, _ = object_pose_at(obj, t1)
    p2, _, _ = object_pose_at(obj, t2)
    dist = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
    assert dist <= 1.6 * (t2 - t1) / 1000.0 + 1e-9


_COORD = st.sampled_from([0.0, -0.0, 1.0, 2.5])
_VEC = st.tuples(_COORD, _COORD)


@settings(max_examples=200, deadline=None)
@given(ps=st.lists(st.tuples(_VEC, _VEC), min_size=1, max_size=4))
def test_is_static_matches_a_fresh_waypoint_scan(ps):
    wps = tuple(Waypoint(p, v, (0.0, 0.0), 100 * i) for i, (p, v) in enumerate(ps))
    obj = TrafficObject("o", "StaticObstacle", (1.0, 1.0, 1.0), wps)
    first = obj.waypoints[0]
    scanned = all(w.p == first.p and w.v == (0.0, 0.0) for w in obj.waypoints)
    assert obj.is_static is scanned
    assert obj.is_static is scanned  # computed once, read again


# --- route table --------------------------------------------------------------


def point_on_polyline_reference(line, s):
    """The arc-length walk the planner used before the polyline table."""
    if s <= 0.0:
        ax, ay = line[0]
        bx, by = line[1]
        return line[0], math.atan2(by - ay, bx - ax)
    s_acc = 0.0
    for i in range(len(line) - 1):
        ax, ay = line[i]
        bx, by = line[i + 1]
        seg_len = math.hypot(bx - ax, by - ay)
        if s_acc + seg_len >= s:
            u = (s - s_acc) / seg_len
            return vec_lerp(line[i], line[i + 1], u), math.atan2(by - ay, bx - ax)
        s_acc += seg_len
    ax, ay = line[-2]
    bx, by = line[-1]
    return line[-1], math.atan2(by - ay, bx - ax)


def project_on_polyline_reference(line, p):
    """The projection on a polyline from before the polyline table."""
    best = None
    s_acc = 0.0
    for i in range(len(line) - 1):
        ax, ay = line[i]
        bx, by = line[i + 1]
        dx, dy = bx - ax, by - ay
        seg_len = math.hypot(dx, dy)
        if seg_len <= 0.0:
            continue
        ux, uy = dx / seg_len, dy / seg_len
        t = ((p[0] - ax) * ux + (p[1] - ay) * uy)
        t_cl = min(seg_len, max(0.0, t))
        qx, qy = ax + ux * t_cl, ay + uy * t_cl
        d = math.hypot(p[0] - qx, p[1] - qy)
        if best is None or d < best[0] - 1e-12:
            lateral = -(p[0] - qx) * uy + (p[1] - qy) * ux
            best = (d, s_acc + t_cl, lateral, math.atan2(uy, ux))
        s_acc += seg_len
    assert best is not None
    return best[1], best[2], best[3]


def route_pose_reference(line, s, lat):
    """The planner's route pose before the polyline table."""
    p, heading = point_on_polyline_reference(line, s)
    nx, ny = -math.sin(heading), math.cos(heading)
    return (p[0] + nx * lat, p[1] + ny * lat), heading


polyline_xy = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-50.0, 50.0))


@st.composite
def polylines(draw):
    """Two to seven points; a point may repeat its predecessor."""
    pts = [(draw(polyline_xy), draw(polyline_xy))]
    while len(pts) < 2 or (len(pts) < 7 and draw(st.booleans())):
        pts.append(draw(st.one_of(st.tuples(polyline_xy, polyline_xy),
                                  st.just(pts[-1]))))
    if len(set(pts)) < 2:
        pts.append((pts[-1][0] + 1.0, pts[-1][1]))
    return tuple(pts)


@settings(max_examples=400, deadline=None)
@given(line=polylines(), data=st.data())
def test_route_table_equals_polyline_walk(line, data):
    # Every arc length, on a joint, at or below 0, past the end or NaN, and every
    # point near the line give the reference's floats; repr tells -0.0 from 0.0.
    table = PolylineTable(line)
    joints = [0.0]
    for a, b in zip(line, line[1:]):
        joints.append(joints[-1] + math.hypot(b[0] - a[0], b[1] - a[1]))
    arc = st.one_of(st.sampled_from(joints + [-0.0, -1.0, joints[-1] + 1.0, math.nan]),
                    st.floats(-5.0, joints[-1] + 5.0))
    for _ in range(8):
        s = data.draw(arc)
        lat = data.draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
        assert repr(table.point(s)) == repr(point_on_polyline_reference(line, s))
        assert repr(table.pose(s, lat)) == repr(route_pose_reference(line, s, lat))
        p = data.draw(st.one_of(st.tuples(polyline_xy, polyline_xy), st.sampled_from(line)))
        assert repr(table.project(p)) == repr(project_on_polyline_reference(line, p))
