"""Tracking state machine: switching, held-box glide, staged recovery.

The end-to-end cases build tiny hand-laid scenes where every descriptor
cosine, motion prior, and NCC peak is known, so each recovery stage can be
forced (or forbidden) deterministically.
"""

from __future__ import annotations

import math
import os
import weakref

import numpy as np
import pytest

from conftest import make_block_patch, make_scene, tiny_scenario
from damtrack.detection import Detection, ScriptedDetector, DetectionSet
from damtrack.geometry import Box, FrameDims, Vec2
from damtrack import media
from damtrack.media import Frame
from damtrack.pipeline import (MODE_HOLDING, MODE_NORMAL, PipelineConfig,
                               TrackerSession, compute_switch,
                               detect_occlusion_set, motion_prior,
                               run_sequence, update_held)
from damtrack.synth import generate, write_scenario

TARGET_SEED = 33


def scene(t: int, target_at: tuple[int, int] | None,
          extras: list[tuple[Box, int]] = (), dims=(200, 150)) -> Frame:
    """One 200x150 frame; the target patch is 32x32 with a fixed pattern."""
    boxes = list(extras)
    if target_at is not None:
        boxes.append((Box(target_at[0], target_at[1], 32, 32), TARGET_SEED))
    return make_scene(dims[0], dims[1], boxes, index=t)


def run_frames(frames: list[Frame], b0: Box, per_frame: dict,
               cfg: PipelineConfig | None = None):
    detector = ScriptedDetector(per_frame)
    return run_sequence(frames, b0, detector, cfg or PipelineConfig())


# --- pure helpers -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(tau_conf=1.2)
    with pytest.raises(ValueError):
        PipelineConfig(beta=-0.1)
    with pytest.raises(ValueError):
        PipelineConfig(ncc_region_factor=0.8)
    for mode in ("hold", "det"):
        with pytest.raises(ValueError):
            PipelineConfig(stage1_reinit=mode)
    with pytest.raises(ValueError):
        PipelineConfig(use_ram=False, use_drm=True)


def test_compute_switch_truth_table():
    cfg = PipelineConfig()
    prev = Box(0, 0, 10, 10)
    near = Box(0.5, 0, 10, 10)
    # healthy: no switch
    assert not compute_switch(0.9, near, prev, 0, cfg)
    # confidence: strictly below the floor only
    assert compute_switch(0.34, near, prev, 0, cfg)
    assert not compute_switch(cfg.tau_conf, near, prev, 0, cfg)
    # jump: strictly above the ceiling only
    diag = prev.diagonal
    assert not compute_switch(0.9, Box(0.29 * diag, 0, 10, 10), prev, 0, cfg)
    assert compute_switch(0.9, Box(0.31 * diag, 0, 10, 10), prev, 0, cfg)
    # crowding: two or more
    assert not compute_switch(0.9, near, prev, 1, cfg)
    assert compute_switch(0.9, near, prev, 2, cfg)


def test_detect_occlusion_set_boundary():
    prev = Box(0, 0, 10, 10)
    at_gate = Detection(Box(0, 0, 10, 4), 0.9)  # IoU exactly 0.40
    below = Detection(Box(0, 0, 10, 3.9), 0.9)
    far = Detection(Box(50, 50, 10, 10), 0.9)
    dets = DetectionSet(0, [at_gate, below, far])
    assert detect_occlusion_set(dets, prev, 0.40) == [at_gate.box]


def test_update_held_glides_and_blends():
    dims = FrameDims(640, 480)
    prev = Box(10, 20, 30, 40)
    # empty overlap set: pure glide, size frozen
    out = update_held(prev, Vec2(2.0, -3.0), [], 0.3, dims)
    assert out == Box(12, 17, 30, 40)
    # crowding boxes pull the size toward their union
    out = update_held(prev, Vec2(2.0, -3.0), [Box(0, 0, 60, 60)], 0.3, dims)
    assert out.w == pytest.approx(0.7 * 30 + 0.3 * 60)
    assert out.h == pytest.approx(0.7 * 40 + 0.3 * 60)
    assert (out.cx, out.cy) == (27, 37)


def test_update_held_clamps_to_frame():
    dims = FrameDims(100, 100)
    out = update_held(Box(1, 1, 10, 10), Vec2(-50.0, 0.0), [], 0.3, dims)
    assert out.x >= 0 and out.y >= 0
    assert out.x2 <= 100 and out.y2 <= 100
    assert out.w >= 1 and out.h >= 1


def test_motion_prior_values():
    anchor = Box(10, 10, 10, 10)  # center (15, 15)
    assert motion_prior(anchor, (15.0, 15.0), 7.0) == 1.0
    assert motion_prior(anchor, (22.0, 15.0), 7.0) == pytest.approx(math.exp(-1))
    with pytest.raises(ValueError):
        motion_prior(anchor, (0.0, 0.0), 0.0)


def test_track_output_record():
    rec = run_sequence(
        [scene(0, (40, 30))], Box(40, 30, 32, 32), None,
        PipelineConfig(use_detector=False, use_ram=False, use_drm=False),
    )[0][0].to_record()
    assert rec == {"t": 0, "box": {"x": 40.0, "y": 30.0, "w": 32.0, "h": 32.0},
                   "mode": "NORMAL", "conf": 1.0, "o_count": 0,
                   "switch": False, "recovery_stage": 0}


# --- session lifecycle --------------------------------------------------------


def test_init_validation_and_seed_admission():
    session = TrackerSession(ScriptedDetector({}))
    with pytest.raises(ValueError):
        session.init(scene(0, (40, 30)), Box(190, 140, 32, 32))  # leaves frame
    out = session.init(scene(0, (40, 30)), Box(40, 30, 32, 32))
    assert out.t == 0 and out.mode == MODE_NORMAL and out.conf == 1.0
    # the first-frame box is ground truth: admitted against itself
    assert len(session.dam.ram) == 1
    assert session.dam.ram[0].box == Box(40, 30, 32, 32)
    assert session.dam.ram[0].timestamp == 0


def test_detector_required_when_enabled():
    with pytest.raises(ValueError):
        TrackerSession(None, PipelineConfig())
    TrackerSession(None, PipelineConfig(use_detector=False, use_ram=True,
                                        use_drm=True))  # fine without one


def test_step_ordering_errors():
    session = TrackerSession(ScriptedDetector({}))
    with pytest.raises(RuntimeError):
        session.step(scene(1, (40, 30)))
    session.init(scene(0, (40, 30)), Box(40, 30, 32, 32))
    with pytest.raises(ValueError):
        session.step(scene(5, (40, 30)))  # expected index 1


def test_step_rejects_frame_of_other_dims():
    session = TrackerSession(ScriptedDetector({}))
    session.init(scene(0, (40, 30)), Box(40, 30, 32, 32))
    for dims in [(240, 150), (200, 160)]:
        with pytest.raises(ValueError, match="differ from the init frame"):
            session.step(scene(1, (40, 30), dims=dims))
    # a rejected frame leaves the session where it was
    assert session.step(scene(1, (40, 30))).t == 1


def test_run_sequence_empty_raises():
    with pytest.raises(ValueError):
        run_sequence([], Box(0, 0, 5, 5), ScriptedDetector({}))


# --- stable-path behavior -----------------------------------------------------


def test_realignment_snaps_to_matching_detection():
    frames = [scene(t, (40, 30)) for t in range(4)]
    det_box = Box(43, 31, 32, 32)  # IoU 0.78 with the tracked box
    outputs, _, session = run_frames(frames, Box(40, 30, 32, 32),
                                     {3: [Detection(det_box, 0.9)]})
    assert outputs[3].box == det_box  # adopted verbatim on the stride frame
    assert outputs[3].mode == MODE_NORMAL
    assert session.dam.ram[-1].timestamp == 3
    assert session.dam.ram[-1].box == det_box


def test_no_realignment_below_iou_gate_banks_the_detection():
    frames = [scene(t, (40, 30)) for t in range(4)]
    far_box = Box(60, 45, 32, 32)  # IoU 0.11: below tau_match and tau_occ
    outputs, _, session = run_frames(frames, Box(40, 30, 32, 32),
                                     {3: [Detection(far_box, 0.9)]})
    assert outputs[3].box == Box(40, 30, 32, 32)  # tracker box kept
    # the unclaimed nearby detection lands in the negative bank
    assert len(session.dam.bank) == 1


def test_detections_are_stale_off_stride():
    frames = [scene(t, (40, 30)) for t in range(3)]
    _outputs, _, session = run_frames(
        frames, Box(40, 30, 32, 32),
        {1: [Detection(Box(40, 30, 32, 32), 0.9)]})
    # t=1 and t=2 are off the stride-3 schedule: the provided set is still
    # the (empty) one from t=0
    assert session.last_set.t == 0 and len(session.last_set) == 0


def test_drm_promotion_during_stable_tracking():
    frames = [scene(t, (120, 90)) for t in range(4)]
    _outputs, _, session = run_frames(frames, Box(120, 90, 32, 32), {})
    # static target: identical descriptors agree instantly, and the
    # near-duplicate guard keeps the buffer at one anchor
    assert len(session.dam.drm) == 1
    assert session.dam.drm[0].box == Box(120, 90, 32, 32)


# --- holding and recovery -----------------------------------------------------


def occlusion_run(visible: int, hidden: int, reveal_at: tuple[int, int] | None,
                  per_frame: dict | None = None,
                  cfg: PipelineConfig | None = None,
                  start: tuple[int, int] = (120, 90),
                  reveal_extras: list | None = None):
    """Static target, then fully hidden frames, then an optional reveal frame."""
    frames = [scene(t, start) for t in range(visible)]
    frames += [scene(visible + k, None) for k in range(hidden)]
    n = visible + hidden
    if reveal_at is not None or reveal_extras:
        frames.append(scene(n, reveal_at, extras=reveal_extras or []))
    b0 = Box(start[0], start[1], 32, 32)
    return run_frames(frames, b0, per_frame or {}, cfg)


def test_holding_entry_and_glide():
    outputs, _, session = occlusion_run(3, 3, None)
    for out in outputs[3:]:
        assert out.mode == MODE_HOLDING
        assert out.switch is True
        assert out.recovery_stage == "held"
        assert out.box == Box(120, 90, 32, 32)  # static: zero velocity glide
    assert session.mode == MODE_HOLDING


def test_occlusion_forces_full_frame_detection(monkeypatch):
    # t=4 is off the stride, but the previous frame ended occluded, so the
    # detector runs over the whole frame and sees a detection far outside
    # any ROI of the held box
    detect = ScriptedDetector.detect
    rois = {}

    def recording(self, frame, roi=None):
        rois[frame.index] = roi
        return detect(self, frame, roi)

    monkeypatch.setattr(ScriptedDetector, "detect", recording)
    far = Detection(Box(5, 5, 10, 10), 0.9)
    _outputs, _, session = occlusion_run(3, 3, None, per_frame={4: [far]})
    # t=3 is a stride frame that started while tracking: an ROI pass
    assert rois[3] is not None and rois[4] is None
    assert 4 in rois and 5 in rois  # every held frame runs
    assert session.last_set.t == 5


def test_stage1_anchor_reacquisition():
    # reveal exactly at the held box: the stored anchor vouches for it
    outputs, _, session = occlusion_run(3, 3, (120, 90))
    reveal = outputs[6]
    assert reveal.recovery_stage == 1
    assert reveal.mode == MODE_NORMAL
    assert reveal.switch is True  # recovery frame still reports the switch
    assert reveal.box == Box(120, 90, 32, 32)
    assert len(session.dam.drm) >= 1


def test_stage1_resume_box_per_reinit_mode():
    # the target reappears 4 px off the held box with its own detection:
    # the anchor accepts in every mode, which decides only where to resume
    per_frame = {6: [Detection(Box(124, 92, 32, 32), 0.9)]}
    resumed = {}
    for mode in ("ref", "anchor"):
        outputs, _, session = occlusion_run(
            3, 3, (124, 92), per_frame=per_frame,
            cfg=PipelineConfig(stage1_reinit=mode))
        assert outputs[6].recovery_stage == 1
        resumed[mode] = outputs[6].box
        if mode == "anchor":
            anchor_boxes = [entry.box for entry in session.dam.drm]
    assert resumed["ref"] == Box(120, 90, 32, 32)
    assert resumed["anchor"] in anchor_boxes


def test_stage1_requires_uncrowded_scene_stage2_settles():
    # two detections crowd the held box at reveal: the anchor stage must
    # stand down and the detection-led snap-back decides
    a = Detection(Box(120, 90, 32, 32), 0.9)  # the true target
    b = Detection(Box(112, 86, 32, 32), 0.85)
    outputs, _, session = occlusion_run(3, 3, (120, 90),
                                        per_frame={6: [a, b]})
    reveal = outputs[6]
    assert reveal.o_count == 2
    assert reveal.recovery_stage == 2
    assert reveal.box == a.box
    # the losing crowder is remembered as a distractor
    assert len(session.dam.bank) == 1


def test_stage2_locality_gate():
    # same pattern, perfect appearance, but planted far from the prediction:
    # the motion prior floor must reject it and holding must continue
    decoy_far = Box(140, 100, 32, 32)
    outputs, _, _ = occlusion_run(
        3, 3, None, per_frame={4: [Detection(decoy_far, 0.9)]},
        start=(40, 30),
        reveal_extras=[(decoy_far, TARGET_SEED)])
    reveal = outputs[6]
    assert reveal.mode == MODE_HOLDING
    assert reveal.recovery_stage == "held"
    assert reveal.box == Box(40, 30, 32, 32)


def test_stage2_accepts_inside_locality():
    # identical setup, decoy moved inside the prior radius: now appearance
    # plus locality win and the snap-back fires
    decoy_near = Box(100, 60, 32, 32)
    outputs, _, _ = occlusion_run(
        3, 3, None, per_frame={6: [Detection(decoy_near, 0.9)]},
        start=(40, 30),
        reveal_extras=[(decoy_near, TARGET_SEED)])
    reveal = outputs[6]
    assert reveal.recovery_stage == 2
    assert reveal.box == decoy_near


def test_stage2_penalizes_banked_look_alike():
    # two candidates each keep one half of the target's pattern, so both
    # match its descriptor about equally and each other hardly at all. The
    # nearer one was seen, unclaimed, beside the target and banked; without
    # the penalty its stronger motion prior wins, with it the other one does
    target = make_block_patch(32, 32, TARGET_SEED)

    def spliced(seed: int, rows: slice):
        patch = target.copy()
        patch[rows] = make_block_patch(32, 32, seed)[rows]
        return patch

    start = Box(84, 59, 32, 32)
    near, far = Box(120, 59, 32, 32), Box(34, 59, 32, 32)
    look_alike = (near, spliced(5, slice(0, 16)))
    other = (far, spliced(6, slice(16, 32)))

    def frame(t: int, patches) -> Frame:
        canvas = np.full((150, 200, 3), 100, dtype=np.uint8)
        for box, patch in patches:
            canvas[int(box.y):int(box.y2), int(box.x):int(box.x2)] = patch
        return Frame(canvas, index=t)

    frames = [frame(t, [(start, target)]) for t in range(3)]
    frames.append(frame(3, [(start, target), look_alike]))
    frames += [frame(t, []) for t in range(4, 7)]
    frames.append(frame(7, [look_alike, other]))
    per_frame = {3: [Detection(near, 0.9)],
                 7: [Detection(near, 0.9), Detection(far, 0.9)]}
    picked = {}
    for gamma in (0.0, 1.0):
        # neither half-match reaches the default acceptance once penalized
        cfg = PipelineConfig(tau_snap=0.3, gamma=gamma)
        outputs, _, session = run_frames(frames, start, per_frame, cfg)
        assert len(session.dam.bank) == 1
        assert outputs[7].recovery_stage == 2
        picked[gamma] = outputs[7].box
    assert picked == {0.0: near, 1.0: far}


def test_stage3_ncc_reacquisition():
    # no detections and no anchor buffer: only the template search is left
    cfg = PipelineConfig(use_drm=False)
    outputs, _, _ = occlusion_run(3, 3, (84, 60), start=(40, 30), cfg=cfg)
    reveal = outputs[6]
    assert reveal.recovery_stage == 3
    assert reveal.box == Box(84, 60, 32, 32)
    assert reveal.mode == MODE_NORMAL


def test_recovery_does_not_fire_while_covered():
    outputs, _, _ = occlusion_run(3, 6, None)
    assert all(o.mode == MODE_HOLDING for o in outputs[3:])


# --- whole-run properties -----------------------------------------------------


def test_one_output_per_frame_and_contiguous():
    out = generate(tiny_scenario(with_distractor=True,
                                 noise=None))
    outputs, times, _ = run_sequence(out.frames(), out.init_box,
                                     ScriptedDetector(out.detections),
                                     PipelineConfig())
    assert len(outputs) == out.spec.length == len(times)
    assert [o.t for o in outputs] == list(range(out.spec.length))


def test_run_is_deterministic():
    out = generate(tiny_scenario(with_distractor=True))
    det = ScriptedDetector(out.detections)
    cfg = PipelineConfig()
    run_a = run_sequence(out.frames(), out.init_box, det, cfg)
    run_b = run_sequence(out.frames(), out.init_box, det, cfg)
    assert run_a[0] == run_b[0]  # identical outputs, conf included

    def memory(session):
        # boxes, timestamps and descriptor bytes of every stored entry
        dam = session.dam
        return ([(e.box, e.timestamp, e.descriptor.tobytes()) for e in dam.ram],
                [(e.box, e.promoted_at, e.descriptor.tobytes())
                 for e in dam.drm],
                [d.tobytes() for d in dam.bank])

    assert memory(run_a[2]) == memory(run_b[2])
    assert memory(run_a[2])[0]  # RAM holds at least the init entry


# --- frame lifetime -----------------------------------------------------------
# A frame read from disk holds its file's mapping and a file descriptor, so
# no caller may keep one past its step. The checks read weak references
# without gc.collect(): a frame must die by reference count.


def test_session_keeps_no_frame_past_its_step():
    out = generate(tiny_scenario(with_distractor=True))
    session = TrackerSession(ScriptedDetector(out.detections))
    modes = set()
    for frame in out.frames():
        ref = weakref.ref(frame)
        result = (session.init(frame, out.init_box) if frame.index == 0
                  else session.step(frame))
        del frame
        assert ref() is None, f"frame {result.t} outlives its step"
        modes.add(result.mode)
    # the cover sends the session through holding and recovery as well
    assert modes == {MODE_NORMAL, MODE_HOLDING}


def _mapping(pixels: np.ndarray):
    # the object that exports the pixels' buffer: read_pnm's file mapping
    base = pixels
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj


def test_run_sequence_keeps_no_frame_past_its_step(tmp_path):
    out = generate(tiny_scenario(with_distractor=True))
    write_scenario(out, str(tmp_path))
    frame_refs, mapping_refs = [], []

    def watched(frames):
        for frame in frames:
            frame_refs.append(weakref.ref(frame))
            mapping_refs.append(weakref.ref(_mapping(frame.pixels)))
            yield frame
            # run_sequence asks for the next frame once this step returned,
            # still holding this frame in its loop: the one before must be gone
            if frame.index > 0:
                t = frame.index - 1
                assert frame_refs[t]() is None, f"frame {t} is alive"
                assert mapping_refs[t]() is None, f"frame {t}'s mapping is alive"

    outputs, _, _ = run_sequence(
        watched(media.load_sequence(os.path.join(tmp_path, "frames"))),
        out.init_box, ScriptedDetector(out.detections), PipelineConfig())
    assert len(outputs) == len(frame_refs) == out.spec.length
