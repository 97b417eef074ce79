"""Template tracker and motion estimation on synthetic shifts."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TexturedFrame, full_path_reached, make_scene
from damtrack import tracker as tracker_module
from damtrack.geometry import Box, roi_crop
from damtrack.media import Frame, crop_rect
from damtrack.tracker import SEARCH_SCALE, MotionEstimator, TemplateTracker


def scene_with_patch(x: int, y: int) -> Frame:
    return make_scene(160, 120, [(Box(x, y, 32, 32), 11)])


# --- template tracker ---------------------------------------------------------


def test_tracker_recovers_known_shift():
    # a 32 px box maps 1:1 onto the 32 px template, so the peak lands on
    # the exact pixel
    t0 = scene_with_patch(40, 30)
    tracker = TemplateTracker()
    tracker.reinit(t0, Box(40, 30, 32, 32))
    for dx, dy in [(3, 2), (-4, 1), (0, -5)]:
        frame = scene_with_patch(40 + dx, 30 + dy)
        box, conf = tracker.update(frame)
        assert box.x == pytest.approx(40 + dx, abs=0.51)
        assert box.y == pytest.approx(30 + dy, abs=0.51)
        assert (box.w, box.h) == (32, 32)
        assert conf > 0.9
        tracker.reinit(t0, Box(40, 30, 32, 32))  # reset for the next shift


def test_tracker_confidence_collapses_on_flat_frame():
    t0 = scene_with_patch(40, 30)
    tracker = TemplateTracker()
    tracker.reinit(t0, Box(40, 30, 32, 32))
    flat = make_scene(160, 120, [])
    _box, conf = tracker.update(flat)
    assert conf == 0.0


def _search_rect(tracker: TemplateTracker, frame: Frame):
    return crop_rect(frame.dims,
                     roi_crop(tracker.last_box, SEARCH_SCALE, frame.dims))


def test_tracker_flat_window_skips_gray_resample_and_ncc(monkeypatch):
    tracker = TemplateTracker()
    tracker.reinit(scene_with_patch(40, 30), Box(40.25, 30.5, 32.75, 31.5))
    monkeypatch.setattr(Frame, "gray", full_path_reached)
    monkeypatch.setattr(tracker_module, "resample", full_path_reached)
    monkeypatch.setattr(tracker_module, "ncc_scores", full_path_reached)
    flat = make_scene(160, 120, [])
    x0, y0, x1, y1 = _search_rect(tracker, flat)
    box, conf = tracker.update(flat)
    assert box == Box(float(x0), float(y0), 32.75, 31.5)
    assert conf == 0.0 and tracker.last_box == box
    # one channel of one pixel in the next window takes the full path
    x0, y0, x1, y1 = _search_rect(tracker, flat)
    flat.pixels[y1 - 1, x1 - 1, 2] += 1
    with pytest.raises(AssertionError, match="full path reached"):
        tracker.update(flat)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 255), st.floats(-20.0, 150.0), st.floats(-20.0, 110.0),
       st.floats(2.0, 80.0), st.floats(2.0, 80.0))
def test_tracker_flat_window_matches_full_path(level, x, y, w, h):
    box = Box(x, y, w, h)
    flat = make_scene(160, 120, [], background=level)
    assume(crop_rect(flat.dims, box) is not None)
    results = []
    for cls in (Frame, TexturedFrame):
        tracker = TemplateTracker()
        tracker.reinit(scene_with_patch(40, 30), box)
        # two steps: the second searches from where the first moved the box
        results.append([tracker.update(cls(flat.pixels)) for _ in range(2)])
    assert results[0] == results[1]


def test_tracker_update_before_init_raises():
    with pytest.raises(RuntimeError):
        TemplateTracker().update(scene_with_patch(10, 10))


def test_tracker_init_off_frame_raises():
    with pytest.raises(ValueError):
        TemplateTracker().reinit(scene_with_patch(10, 10), Box(500, 500, 10, 10))


def test_tracker_last_box_advances():
    t0 = scene_with_patch(40, 30)
    tracker = TemplateTracker()
    tracker.reinit(t0, Box(40, 30, 32, 32))
    moved = scene_with_patch(43, 30)
    box, _conf = tracker.update(moved)
    assert tracker.last_box == box


# --- motion estimator ---------------------------------------------------------


def test_ema_dead_reckoning_math():
    est = MotionEstimator()
    # first call only seeds the origin
    v = est.estimate_velocity(Box(40, 30, 32, 32))
    assert (v.dx, v.dy) == (0.0, 0.0)
    # second call sees displacement (4, 0): ema = 0.25 * 4
    v = est.estimate_velocity(Box(44, 30, 32, 32))
    assert v.dx == pytest.approx(1.0)
    assert v.dy == pytest.approx(0.0)
    # third: ema = 0.75 * 1.0 + 0.25 * 4.0
    v = est.estimate_velocity(Box(48, 30, 32, 32))
    assert v.dx == pytest.approx(1.75)
    assert v == est.velocity


def test_ema_converges_to_constant_velocity():
    est = MotionEstimator()
    for k in range(60):
        v = est.estimate_velocity(Box(2.0 * k, 30, 32, 32))
    assert v.dx == pytest.approx(2.0, abs=1e-3)
    assert v.dy == pytest.approx(0.0, abs=1e-9)


def test_rebase_discounts_recovery_jump():
    est = MotionEstimator()
    for k in range(30):
        est.estimate_velocity(Box(2.0 * k, 30, 32, 32))
    v_before = est.velocity
    # a 80 px recovery snap must not register as motion
    est.rebase(Box(140, 30, 32, 32))
    v = est.estimate_velocity(Box(142, 30, 32, 32))
    assert v.dx == pytest.approx(0.75 * v_before.dx + 0.25 * 2.0)


def test_offset_origin_discounts_realignment():
    est = MotionEstimator()
    est.estimate_velocity(Box(50, 30, 32, 32))
    # hypothesis nudged +3 px onto a detection, then moves 2 px of real motion
    est.offset_origin(3.0, 0.0)
    v = est.estimate_velocity(Box(55, 30, 32, 32))
    assert v.dx == pytest.approx(0.25 * 2.0)
