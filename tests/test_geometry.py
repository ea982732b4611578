import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causetrace.geometry import (FixedBox, OrientedBox, SatProbe, min_obb_distance,
                                 obb_separation_at_least,
                                 point_to_obb_distance, vec_dist)


def rotation_matrix_corners(center, half, heading):
    c, s = math.cos(heading), math.sin(heading)
    out = []
    for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
        lx, ly = sx * half[0], sy * half[1]
        out.append((center[0] + lx * c - ly * s, center[1] + lx * s + ly * c))
    return out


def sample_boundary(box: OrientedBox, n: int):
    corners = box.corners()
    per_edge = n // 4
    pts = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        for k in range(per_edge):
            u = k / per_edge
            pts.append((a[0] + (b[0] - a[0]) * u, a[1] + (b[1] - a[1]) * u))
    return pts


def sampled_distance(a: OrientedBox, b: OrientedBox, n=10000):
    """Independent oracle: boundary-point sampling against the exact point test."""
    best = math.inf
    for p in sample_boundary(a, n // 2):
        best = min(best, point_to_obb_distance(p, b))
    for p in sample_boundary(b, n // 2):
        best = min(best, point_to_obb_distance(p, a))
    return best


def test_corners_match_rotation_matrix():
    box = OrientedBox((10.0, -3.0), (2.0, 1.0), math.radians(45))
    expected = rotation_matrix_corners((10.0, -3.0), (2.0, 1.0), math.radians(45))
    for got, want in zip(box.corners(), expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_unit_squares_axis_aligned():
    a = OrientedBox((0.0, 0.0), (0.5, 0.5), 0.0)
    b = OrientedBox((3.0, 0.0), (0.5, 0.5), 0.0)
    assert min_obb_distance(a, b) == pytest.approx(2.0, abs=1e-12)


def test_overlapping_boxes_zero():
    a = OrientedBox((0.0, 0.0), (1.0, 1.0), 0.0)
    b = OrientedBox((0.5, 0.5), (1.0, 1.0), 0.7)
    assert min_obb_distance(a, b) == 0.0


def test_rotated_near_corner_contact_vs_sampling_oracle():
    a = OrientedBox((0.0, 0.0), (1.0, 0.5), 0.0)
    b = OrientedBox((1.9, 1.1), (0.8, 0.4), math.radians(45))
    exact = min_obb_distance(a, b)
    approx = sampled_distance(a, b)
    assert exact <= approx + 1e-9
    assert approx - exact < 1e-3


def contains(box, p):
    """Whether p lies in the box, boundary included, tested in the box frame."""
    dx, dy = p[0] - box.center[0], p[1] - box.center[1]
    c, s = math.cos(box.heading), math.sin(box.heading)
    return (abs(dx * c + dy * s) <= box.half_extents[0]
            and abs(-dx * s + dy * c) <= box.half_extents[1])


def test_random_pairs_against_sampling_oracle():
    rng = random.Random(42)
    for _ in range(100):
        a = OrientedBox((rng.uniform(-5, 5), rng.uniform(-5, 5)),
                        (rng.uniform(0.25, 1.5), rng.uniform(0.25, 1.5)),
                        rng.uniform(0, math.tau))
        b = OrientedBox((rng.uniform(-5, 5), rng.uniform(-5, 5)),
                        (rng.uniform(0.25, 1.5), rng.uniform(0.25, 1.5)),
                        rng.uniform(0, math.tau))
        exact = min_obb_distance(a, b)
        approx = sampled_distance(a, b)
        if exact == 0.0:
            # Boundary sampling can only confirm closeness for overlapping boxes.
            assert approx < 0.05 or contains(a, b.center) or contains(b, a.center)
        else:
            assert -1e-9 <= approx - exact < 1e-3


boxes = st.builds(
    OrientedBox,
    st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    st.tuples(st.floats(0.1, 5), st.floats(0.1, 5)),
    st.floats(0, math.tau),
)


@settings(max_examples=150, deadline=None)
@given(a=boxes, b=boxes)
def test_distance_symmetric(a, b):
    assert min_obb_distance(a, b) == pytest.approx(min_obb_distance(b, a), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(a=boxes, b=boxes, shift=st.tuples(st.floats(-100, 100), st.floats(-100, 100)))
def test_distance_translation_invariant(a, b, shift):
    a2 = OrientedBox((a.center[0] + shift[0], a.center[1] + shift[1]),
                     a.half_extents, a.heading)
    b2 = OrientedBox((b.center[0] + shift[0], b.center[1] + shift[1]),
                     b.half_extents, b.heading)
    assert min_obb_distance(a, b) == pytest.approx(min_obb_distance(a2, b2), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(a=boxes, b=boxes, threshold=st.floats(0.01, 5))
def test_separation_bound_sound(a, b, threshold):
    if obb_separation_at_least(a, b, threshold):
        assert min_obb_distance(a, b) >= threshold - 1e-9


def test_area_independent_of_heading():
    for heading in (0.0, 0.3, 1.2, math.pi):
        box = OrientedBox((1.0, 2.0), (2.3, 0.95), heading)
        c = box.corners()
        area = 0.0
        for i in range(4):
            x0, y0 = c[i]
            x1, y1 = c[(i + 1) % 4]
            area += x0 * y1 - x1 * y0
        assert abs(area) / 2 == pytest.approx(4.6 * 1.9, rel=1e-12)


def test_point_to_obb():
    box = OrientedBox((0.0, 0.0), (1.0, 0.5), 0.0)
    assert point_to_obb_distance((0.2, 0.1), box) == 0.0
    assert point_to_obb_distance((3.0, 0.0), box) == pytest.approx(2.0)
    assert point_to_obb_distance((2.0, 1.5), box) == pytest.approx(vec_dist((2, 1.5), (1, 0.5)))


# --- separating-axis test against fixed boxes ---------------------------------

SAT_THRESHOLDS = (math.ulp(0.0), 1e-9, 0.3)
coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-8.0, 8.0))
half = st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 2.0))
heading = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi, 0.3]),
                    st.floats(-math.pi, math.pi))


@st.composite
def fixed_boxes_around(draw, probe: OrientedBox):
    """Boxes anywhere near the probe; some overlap it, some touch it face to face
    along one of its axes, some share its heading or each other's."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        he = draw(half)
        h = draw(st.one_of(heading, st.just(probe.heading),
                           st.sampled_from([b.heading for b in out] or [0.0])))
        placement = draw(st.sampled_from(["free", "overlap", "touch"]))
        if placement == "overlap":
            center = (probe.center[0] + draw(st.floats(-0.5, 0.5)),
                      probe.center[1] + draw(st.floats(-0.5, 0.5)))
        elif placement == "touch":
            # Same heading, the faces meeting: the gap on the probe's axis is
            # zero up to rounding.
            h = probe.heading
            reach = probe.half_extents[0] + he[0]
            center = (probe.center[0] + reach * math.cos(h),
                      probe.center[1] + reach * math.sin(h))
        else:
            center = (draw(coord), draw(coord))
        out.append(OrientedBox(center, he, h))
    return out


@settings(max_examples=400, deadline=None)
@given(data=st.data(), center=st.tuples(coord, coord), he=half, h=heading)
def test_sat_probe_equals_pairwise_test(data, center, he, h):
    # One probe against many fixed boxes, each threshold in turn, answers what
    # obb_separation_at_least answers for each pair: the probe's cached
    # projections (per fixed heading, and on its own axes) change nothing.
    probe_box = OrientedBox(center, he, h)
    probe = SatProbe(probe_box, probe_box.corners())
    fixed = data.draw(fixed_boxes_around(probe_box))
    for threshold in SAT_THRESHOLDS:
        for box in fixed:
            assert (probe.separated(FixedBox(box), threshold)
                    == obb_separation_at_least(probe_box, box, threshold))


def test_sat_probe_touching_and_signed_zero_headings():
    # Two unit squares with touching faces: no gap at any threshold, though the
    # fixed box's heading is -0.0 and the probe first met a 0.0 box.
    probe_box = OrientedBox((0.0, 0.0), (0.5, 0.5), 0.0)
    probe = SatProbe(probe_box, probe_box.corners())
    apart = OrientedBox((3.0, 0.0), (0.5, 0.5), 0.0)
    touching = OrientedBox((1.0, -0.0), (0.5, 0.5), -0.0)
    for threshold in SAT_THRESHOLDS:
        assert probe.separated(FixedBox(apart), threshold)
        assert not probe.separated(FixedBox(touching), threshold)
        assert not obb_separation_at_least(probe_box, touching, threshold)
