"""Box arithmetic against independent oracles and hand values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damtrack.geometry import (Box, FrameDims, Vec2, area, clamp_to_frame,
                               iou, norm_displacement, roi_crop, union_bbox)


def rasterized_iou(a: Box, b: Box, grid: int = 64) -> float:
    """Pixel-count IoU on an integer grid; exact for integer boxes."""
    canvas_a = np.zeros((grid, grid), dtype=bool)
    canvas_b = np.zeros((grid, grid), dtype=bool)
    canvas_a[int(a.y):int(a.y2), int(a.x):int(a.x2)] = True
    canvas_b[int(b.y):int(b.y2), int(b.x):int(b.x2)] = True
    union = np.logical_or(canvas_a, canvas_b).sum()
    inter = np.logical_and(canvas_a, canvas_b).sum()
    return inter / union


def random_int_box(rng, lim: int = 50) -> Box:
    x = int(rng.integers(0, lim))
    y = int(rng.integers(0, lim))
    w = int(rng.integers(1, 14))
    h = int(rng.integers(1, 14))
    return Box(float(x), float(y), float(w), float(h))


def test_iou_matches_rasterized_oracle(rng):
    for _ in range(300):
        a = random_int_box(rng)
        b = random_int_box(rng)
        assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-12)


def test_iou_known_values():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Box(10, 0, 10, 10)) == 0.0  # edge contact is not overlap
    assert iou(a, Box(100, 100, 5, 5)) == 0.0
    # unit squares overlapping by half: 0.5 / 1.5
    assert iou(Box(0, 0, 1, 1), Box(0.5, 0, 1, 1)) == pytest.approx(1 / 3)


_coords = st.floats(-1e4, 1e4, allow_nan=False)
_sides = st.floats(1e-3, 1e4, allow_nan=False)
_boxes = st.builds(Box, _coords, _coords, _sides, _sides)
_dims = st.builds(FrameDims, st.integers(1, 4000), st.integers(1, 4000))


@st.composite
def _box_pairs(draw):
    """Independent boxes, equal boxes, and a box beside a shifted copy."""
    a = draw(_boxes)
    kind = draw(st.sampled_from(["any", "same", "shifted"]))
    if kind == "any":
        return a, draw(_boxes)
    if kind == "same":
        return a, Box(a.x, a.y, a.w, a.h)
    dx, dy = (draw(st.floats(-2.0, 2.0)) * side for side in (a.w, a.h))
    return a, Box(a.x + dx, a.y + dy, a.w, a.h)


def _inside(b: Box, d: FrameDims) -> bool:
    return 0.0 <= b.x and 0.0 <= b.y and b.x2 <= d.width and b.y2 <= d.height


@settings(max_examples=500, deadline=None)
@given(_box_pairs())
def test_iou_symmetric_and_bounded(pair):
    a, b = pair
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


def test_area():
    assert area(Box(3, 4, 5, 6)) == 30.0


def test_union_bbox():
    boxes = [Box(2, 3, 4, 4), Box(0, 5, 3, 1), Box(5, 1, 1, 2)]
    u = union_bbox(boxes)
    assert (u.x, u.y, u.x2, u.y2) == (0, 1, 6, 7)
    for b in boxes:
        assert b.x >= u.x and b.y >= u.y and b.x2 <= u.x2 and b.y2 <= u.y2
    single = union_bbox([boxes[0]])
    assert single == boxes[0]
    with pytest.raises(ValueError):
        union_bbox([])


def test_clamp_to_frame():
    dims = FrameDims(100, 80)
    inside = Box(10, 10, 20, 20)
    assert clamp_to_frame(inside, dims) == inside
    straddling = clamp_to_frame(Box(-5, 70, 20, 20), dims)
    assert (straddling.x, straddling.y) == (0, 70)
    assert (straddling.x2, straddling.y2) == (15, 80)
    # fully outside collapses to a border strip, at least 1 px wide
    gone = clamp_to_frame(Box(200, 200, 10, 10), dims)
    assert gone.x2 <= 100 and gone.y2 <= 80
    assert gone.w >= 1.0 and gone.h >= 1.0


def test_clamp_always_inside(rng):
    dims = FrameDims(60, 40)
    for _ in range(200):
        b = Box(float(rng.uniform(-80, 120)), float(rng.uniform(-60, 90)),
                float(rng.uniform(0.5, 90)), float(rng.uniform(0.5, 70)))
        c = clamp_to_frame(b, dims)
        assert 0 <= c.x and 0 <= c.y
        assert c.x2 <= dims.width and c.y2 <= dims.height
        assert c.w >= 1.0 and c.h >= 1.0


@settings(max_examples=500, deadline=None)
@given(_boxes, _dims)
def test_clamp_to_frame_inside_any_frame(b, d):
    c = clamp_to_frame(b, d)
    assert _inside(c, d)
    assert c.w >= 1.0 and c.h >= 1.0


def test_clamp_to_frame_minimum_side_survives_rounding():
    # x + w rounds, so x2 - x1 reads one ulp under 1 without the floor
    c = clamp_to_frame(Box(0.001, 0, 1, 1), FrameDims(2, 1))
    assert c.w == 1.0 and c.h == 1.0
    assert c.x == 0.001 and c.x2 <= 2


@settings(max_examples=500, deadline=None)
@given(_boxes, st.floats(1.0, 10.0), _dims)
def test_roi_crop_always_inside(prev, kappa, d):
    assert _inside(roi_crop(prev, kappa, d), d)


def test_roi_crop_preserves_center_and_scales():
    dims = FrameDims(640, 480)
    prev = Box(100, 100, 40, 30)
    roi = roi_crop(prev, 2.0, dims)
    assert roi.cx == pytest.approx(prev.cx)
    assert roi.cy == pytest.approx(prev.cy)
    assert roi.w == pytest.approx(80)
    assert roi.h == pytest.approx(60)
    assert roi_crop(prev, 1.0, dims) == prev
    with pytest.raises(ValueError):
        roi_crop(prev, 0.5, dims)


def test_roi_crop_clamps_at_border():
    dims = FrameDims(100, 100)
    roi = roi_crop(Box(0, 0, 20, 20), 3.0, dims)
    assert roi.x == 0 and roi.y == 0
    assert roi.x2 <= 100 and roi.y2 <= 100


def test_norm_displacement_hand_value():
    b = Box(0, 0, 10, 10)  # center (5,5), diagonal sqrt(200)
    moved = Box(3, 4, 10, 10)  # center (8,9): distance 5
    assert norm_displacement(moved, b) == pytest.approx(5 / math.sqrt(200))
    assert norm_displacement(b, b) == 0.0


def test_box_validation():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 10)
    with pytest.raises(ValueError):
        Box(0, 0, 10, -1)
    with pytest.raises(ValueError):
        Box(float("nan"), 0, 1, 1)
    with pytest.raises(ValueError):
        Box(0, float("inf"), 1, 1)


def test_box_properties_and_dict_round_trip():
    b = Box(1.5, 2.5, 3.0, 4.0)
    assert (b.x2, b.y2) == (4.5, 6.5)
    assert (b.cx, b.cy) == (3.0, 4.5)
    assert b.diagonal == pytest.approx(5.0)
    assert Box.from_dict(b.to_dict()) == b
    with pytest.raises(Exception):
        b.x = 9.0  # frozen


def test_vec2_and_dims_validation():
    with pytest.raises(ValueError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        FrameDims(0, 10)
    with pytest.raises(ValueError):
        FrameDims(10, 0)
    assert Vec2(1.0, -2.0).dx == 1.0
