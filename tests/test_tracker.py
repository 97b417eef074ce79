"""Template tracker and motion estimation on synthetic shifts."""

from __future__ import annotations

import pytest

from conftest import make_scene
from damtrack.geometry import Box
from damtrack.media import Frame
from damtrack.tracker import MotionEstimator, TemplateTracker


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
