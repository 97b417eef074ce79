"""Per-frame tracking state machine: switching, held-box occlusion mode, recovery.

One TrackerSession owns a template tracker, a motion estimator, and a
distractor-aware memory. Each frame it either emits the (possibly
detection-realigned) tracker box, or switches into holding mode, glides a held
box by the motion estimate, and runs a three-stage recovery cascade: stable
anchor scoring, detection snap-back, then NCC template search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .appearance import Descriptor, compute_descriptor, cosine, ncc_search
from .config import PipelineConfig
from .detection import DetectionSet, DetectorInterface, provide, schedule
from .geometry import (Box, FrameDims, Vec2, clamp_to_frame, iou,
                       norm_displacement, roi_crop, union_bbox)
from .media import Frame, crop_rect
from .memory import DistractorAwareMemory, penalized_score
from .tracker import MotionEstimator, TemplateTracker

MODE_NORMAL = "NORMAL"
MODE_HOLDING = "HOLDING"

@dataclass(frozen=True)
class TrackOutput:
    t: int
    box: Box
    mode: str
    conf: float
    o_count: int
    switch: bool
    recovery_stage: int | str  # 0 = none, 1-3 = cascade stage, "held"

    def to_record(self) -> dict:
        return {
            "t": self.t,
            "box": self.box.to_dict(),
            "mode": self.mode,
            "conf": round(self.conf, 6),
            "o_count": self.o_count,
            "switch": self.switch,
            "recovery_stage": self.recovery_stage,
        }


def detect_occlusion_set(dets: DetectionSet, prev: Box, tau_occ: float) -> list[Box]:
    """Confident detections crowding the previous hypothesis."""
    return [d.box for d in dets if iou(d.box, prev) >= tau_occ]


def compute_switch(conf: float, b_trk: Box, prev: Box, o_count: int,
                   cfg: PipelineConfig) -> bool:
    """Tracker failure: low confidence, implausible jump, or a crowded scene."""
    return (
        conf < cfg.tau_conf
        or norm_displacement(b_trk, prev) > cfg.tau_jump
        or o_count >= 2
    )


def update_held(prev_held: Box, v: Vec2, o_boxes: list[Box], beta: float,
                dims: FrameDims) -> Box:
    """Propagate the held box: center glides by v, size blends toward the
    union of crowding detections (unchanged when there are none)."""
    cx = prev_held.cx + v.dx
    cy = prev_held.cy + v.dy
    if o_boxes:
        union = union_bbox(o_boxes)
        w = (1.0 - beta) * prev_held.w + beta * union.w
        h = (1.0 - beta) * prev_held.h + beta * union.h
    else:
        w, h = prev_held.w, prev_held.h
    return clamp_to_frame(Box(cx - w / 2.0, cy - h / 2.0, w, h), dims)


def motion_prior(anchor: Box, predicted_center: tuple[float, float],
                 ref_diag: float) -> float:
    """Exponential closeness of the anchor center to the predicted center."""
    if ref_diag <= 0.0:
        raise ValueError("ref_diag must be > 0")
    dist = math.hypot(anchor.cx - predicted_center[0],
                      anchor.cy - predicted_center[1])
    return math.exp(-dist / ref_diag)


class TrackerSession:
    """Single-target tracking session; call init once, then step per frame."""

    def __init__(self, detector: DetectorInterface | None,
                 config: PipelineConfig | None = None):
        self.cfg = config or PipelineConfig()
        if self.cfg.use_detector and detector is None:
            raise ValueError("config enables the detector but none was given")
        self.detector = detector
        self.tracker = TemplateTracker()
        self.motion = MotionEstimator()
        self.dam = DistractorAwareMemory(self.cfg)
        self.t = -1
        self.dims: FrameDims | None = None
        self.estimate: Box | None = None
        self.mode = MODE_NORMAL
        self.held: Box | None = None
        self.last_set = DetectionSet(0, [])
        self.last_verified_descriptor: Descriptor | None = None
        self.last_verified_template: np.ndarray | None = None

    # -- lifecycle -------------------------------------------------------------

    def init(self, frame: Frame, b0: Box) -> TrackOutput:
        """Start tracking at the given first-frame box; emits the t=0 record."""
        dims = frame.dims
        if b0.x < 0 or b0.y < 0 or b0.x2 > dims.width or b0.y2 > dims.height:
            raise ValueError(f"init box {b0} is not inside the {dims} frame")
        self.tracker.reinit(frame, b0)
        desc = compute_descriptor(frame, b0)
        # the init box is ground truth: admitted against itself
        self.dam.ram_admit(b0, desc, b0, 0)
        self._refresh_verified(frame, b0, desc)
        self.t = 0
        self.dims = dims
        self.estimate = b0
        self.mode = MODE_NORMAL
        self.held = None
        self.last_set = DetectionSet(0, [])
        return TrackOutput(0, b0, MODE_NORMAL, 1.0, 0, False, 0)

    def step(self, frame: Frame) -> TrackOutput:
        """Process the next frame; exactly one output per call."""
        if self.estimate is None:
            raise RuntimeError("step before init")
        t = self.t + 1
        if frame.index != t:
            raise ValueError(f"expected frame index {t}, got {frame.index}")
        if frame.dims != self.dims:
            raise ValueError(f"frame {t} dims {frame.dims} differ from the "
                             f"init frame's {self.dims}")
        cfg = self.cfg
        prev = self.estimate

        # 1. detections (fresh on schedule, stale otherwise)
        ran = False
        if cfg.use_detector:
            run, full = schedule(t, cfg.delta, self.mode == MODE_HOLDING)
            dets = provide(self.detector, frame, prev, run, full,
                           self.last_set, cfg)
            ran = run
        else:
            dets = DetectionSet(t, [])
        self.last_set = dets

        # 2. propagate and dead-reckon the motion
        b_trk, conf = self.tracker.update(frame)
        v = self.motion.estimate_velocity(prev)

        # 3. crowding and switch test
        o_boxes = detect_occlusion_set(dets, prev, cfg.tau_occ)
        sw = compute_switch(conf, b_trk, prev, len(o_boxes), cfg)

        if not sw:
            out = self._stable_step(frame, t, dets, ran, b_trk, conf, o_boxes)
        else:
            out = self._holding_step(frame, t, dets, v, conf, o_boxes)

        self.t = t
        self.estimate = out.box
        return out

    # -- stable path -----------------------------------------------------------

    def _stable_step(self, frame: Frame, t: int, dets: DetectionSet, ran: bool,
                     b_trk: Box, conf: float, o_boxes: list[Box]) -> TrackOutput:
        cfg = self.cfg
        candidate = b_trk
        if ran and len(dets) > 0:
            best = max(dets, key=lambda d: iou(d.box, b_trk))
            if iou(best.box, b_trk) >= cfg.tau_match:
                self.tracker.reinit(frame, best.box)
                candidate = best.box
                # realignment is a correction, not motion: discount the
                # jump so dead reckoning learns only the tracked motion
                self.motion.offset_origin(candidate.cx - b_trk.cx,
                                          candidate.cy - b_trk.cy)
        if cfg.use_drm and ran:
            # objects the frame offered that the track did not claim are the
            # future hijack candidates; remember the ones near enough to
            # confuse a later recovery. Crossing distractors rarely survive
            # both suppression and the crowding test at once, so waiting for
            # a crowding event would leave most of them unbanked
            for d in dets:
                near = math.hypot(d.box.cx - candidate.cx,
                                  d.box.cy - candidate.cy)
                if (iou(d.box, candidate) < cfg.tau_occ
                        and near <= 2.5 * candidate.diagonal):
                    self.dam.add_negative(compute_descriptor(frame, d.box))
        if cfg.use_ram:
            desc = compute_descriptor(frame, candidate)
            if self.dam.ram_admit(candidate, desc, self.estimate, t):
                self._refresh_verified(frame, candidate, desc)
                if cfg.use_drm:
                    self.dam.try_promote(t)
        self.mode = MODE_NORMAL
        self.held = None
        return TrackOutput(t, candidate, MODE_NORMAL, conf, len(o_boxes), False, 0)

    # -- holding path ----------------------------------------------------------

    def _holding_step(self, frame: Frame, t: int, dets: DetectionSet, v: Vec2,
                      conf: float, o_boxes: list[Box]) -> TrackOutput:
        cfg = self.cfg
        if cfg.use_held:
            base = self.held if self.held is not None else self.estimate
            self.held = update_held(base, v, o_boxes, cfg.beta, frame.dims)
            b_ref = self.held
        else:
            b_ref = self.estimate
        self.mode = MODE_HOLDING

        recovered = self._recover(frame, t, dets, b_ref, v, len(o_boxes))
        if cfg.use_drm:
            # whatever recovery did not claim is a distractor. Banking after
            # the cascade keeps the reclaimed target's own detection out of
            # the bank during a crossing dispute; the bank is
            # distractor-aware memory, so it rides the same switch as the
            # anchor buffer
            winner = recovered[0] if recovered is not None else None
            for box in o_boxes:
                if winner is None or iou(box, winner) < 0.5:
                    self.dam.add_negative(compute_descriptor(frame, box))
        if recovered is not None:
            box, stage = recovered
            self.tracker.reinit(frame, box)
            self.motion.rebase(box)
            # a featureless patch carries no appearance evidence: keep the
            # box and mode bookkeeping, but never let it into memory or over
            # the verified reference, or one blind re-entry during a cover
            # poisons every later recovery stage
            if _patch_has_texture(frame, box):
                desc = compute_descriptor(frame, box)
                if cfg.use_ram:
                    # the held hypothesis is unreliable after occlusion, so
                    # the cascade's acceptance replaces the IoU-to-prev gate
                    self.dam.ram_admit(box, desc, box, t)
                self._refresh_verified(frame, box, desc)
            self.mode = MODE_NORMAL
            self.held = None
            return TrackOutput(t, box, MODE_NORMAL, conf, len(o_boxes), True, stage)

        emitted = b_ref if cfg.use_held else self.tracker.last_box
        return TrackOutput(t, emitted, MODE_HOLDING, conf, len(o_boxes), True, "held")

    def _recover(self, frame: Frame, t: int, dets: DetectionSet, b_ref: Box,
                 v: Vec2, o_count: int) -> tuple[Box, int] | None:
        """Three-stage cascade; None when every stage declines."""
        cfg = self.cfg
        predicted = (b_ref.cx + v.dx, b_ref.cy + v.dy)
        ref_diag = b_ref.diagonal

        # stage 1 asks whether the reference box still shows the target, so
        # it needs unambiguous evidence there: a featureless patch (a
        # covered target) proves nothing, and with two detections crowding
        # the box the reference is exactly what is in dispute, which only
        # the detection-led stage below can settle
        if (cfg.use_drm and len(self.dam.drm) > 0 and o_count < 2
                and _patch_has_texture(frame, b_ref)):
            phi_ref = compute_descriptor(frame, b_ref)
            hit = self.dam.best_anchor(
                b_ref, phi_ref,
                pi=lambda box: motion_prior(box, predicted, ref_diag), t=t,
            )
            if hit is not None:
                entry, _score = hit
                return (entry.box if cfg.stage1_reinit == "anchor" else b_ref), 1

        if len(dets) > 0 and self.last_verified_descriptor is not None:
            best_score = -math.inf
            best_box = None
            for d in dets:
                # a featureless candidate shows background, not an object;
                # with no texture its descriptor is carried entirely by the
                # color histogram, which cannot verify identity
                if not _patch_has_texture(frame, d.box):
                    continue
                # the snap-back is a local reacquisition: a detection far
                # from the predicted position is some other object, no
                # matter how well its appearance scores
                pi = motion_prior(d.box, predicted, ref_diag)
                if pi < cfg.tau_prior:
                    continue
                desc = compute_descriptor(frame, d.box)
                raw = 0.7 * cosine(desc, self.last_verified_descriptor) + 0.3 * pi
                score = penalized_score(raw, desc, self.dam.bank, cfg)
                if score > best_score:
                    best_score = score
                    best_box = d.box
            if best_box is not None and best_score >= cfg.tau_snap:
                return best_box, 2

        tmpl = self.last_verified_template
        if tmpl is not None:
            region = roi_crop(b_ref, cfg.ncc_region_factor, frame.dims)
            rect = crop_rect(frame.dims, region)
            if rect is not None:
                rh, rw = rect[3] - rect[1], rect[2] - rect[0]
                if tmpl.shape[0] <= rh and tmpl.shape[1] <= rw:
                    best, peak = ncc_search(frame, tmpl, region)
                    if peak >= cfg.tau_ncc:
                        return best, 3
        return None

    # -- helpers ---------------------------------------------------------------

    def _refresh_verified(self, frame: Frame, box: Box, desc: Descriptor) -> None:
        self.last_verified_descriptor = desc
        self.last_verified_template = frame.gray(*crop_rect(frame.dims, box))


def _patch_has_texture(frame: Frame, box: Box) -> bool:
    rect = crop_rect(frame.dims, box)
    if rect is None:
        return False
    patch = frame.gray(*rect)
    return patch.size > 0 and float(patch.max()) > float(patch.min())


def run_sequence(frames, b0: Box, detector: DetectorInterface | None,
                 config: PipelineConfig | None = None,
                 ) -> tuple[list[TrackOutput], list[float], TrackerSession]:
    """Track through an iterable of frames.

    Returns per-frame outputs, per-frame wall-clock seconds (index-aligned,
    init frame included), and the finished session for state inspection.
    """
    session = TrackerSession(detector, config)
    outputs: list[TrackOutput] = []
    times: list[float] = []
    for frame in frames:
        start = time.perf_counter()
        if frame.index == 0:
            out = session.init(frame, b0)
        else:
            out = session.step(frame)
        times.append(time.perf_counter() - start)
        outputs.append(out)
    if not outputs:
        raise ValueError("empty frame sequence")
    return outputs, times, session
