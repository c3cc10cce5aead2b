import math
import random

from avtestbed.geometry import (
    rect_corners,
    rect_disc_penetration,
    rect_rect_penetration,
)

from oracles import point_polyline_distance, rects_overlap_oracle


def test_far_apart_rectangles():
    assert rect_rect_penetration((0, 0, 0, 4.8, 1.8), (100, 0, 0, 4.8, 1.8)) is None


def test_identical_rectangles_fully_overlap():
    pen = rect_rect_penetration((5, 5, 0.3, 4.8, 1.8), (5, 5, 0.3, 4.8, 1.8))
    assert pen is not None and pen > 0
    assert math.isclose(pen, 1.8)


def test_bumper_gap_of_ten_centimeters():
    # nose to tail: centers 4.9 m apart leaves a 0.1 m gap for 4.8 m bodies
    assert rect_rect_penetration((0, 0, 0, 4.8, 1.8), (4.9, 0, 0, 4.8, 1.8)) is None
    assert rects_overlap_oracle((0, 0, 0, 4.8, 1.8), (4.9, 0, 0, 4.8, 1.8)) is False


def test_overlap_is_symmetric():
    rng = random.Random(3)
    for _ in range(200):
        ra = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi), 4.8, 1.8)
        rb = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi), 4.8, 1.8)
        ab = rect_rect_penetration(ra, rb)
        ba = rect_rect_penetration(rb, ra)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert math.isclose(ab, ba, rel_tol=1e-12)


def test_agrees_with_vertex_edge_oracle():
    rng = random.Random(41)
    hits = 0
    for _ in range(1000):
        ra = (rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi),
              rng.uniform(1, 6), rng.uniform(0.5, 3))
        rb = (rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi),
              rng.uniform(1, 6), rng.uniform(0.5, 3))
        sat = rect_rect_penetration(ra, rb) is not None
        oracle = rects_overlap_oracle(ra, rb)
        assert sat == oracle, f"disagreement for {ra} vs {rb}"
        hits += sat
    # the sample must exercise both outcomes to mean anything
    assert 100 < hits < 900


def test_corners_form_the_right_box():
    corners = rect_corners(0, 0, 0, 4, 2)
    assert sorted(corners) == [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)]


def test_disc_outside_rect():
    assert rect_disc_penetration((0, 0, 0, 4.8, 1.8), 10, 0, 0.25) is None


def test_disc_touching_face():
    # face at x=2.4, disc center at 2.6 with r=0.25 overlaps by 0.05
    pen = rect_disc_penetration((0, 0, 0, 4.8, 1.8), 2.6, 0, 0.25)
    assert pen is not None and math.isclose(pen, 0.05)


def test_disc_center_inside():
    pen = rect_disc_penetration((0, 0, 0, 4.8, 1.8), 0.0, 0.5, 0.25)
    assert pen is not None and math.isclose(pen, 0.25 + 0.4)


def test_point_polyline_distance():
    path = [(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]
    assert math.isclose(point_polyline_distance(5, 2, path), 2.0)
    assert math.isclose(point_polyline_distance(12, 5, path), 2.0)
    assert point_polyline_distance(0, 0, []) == math.inf
