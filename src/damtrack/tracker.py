"""Frame-to-frame propagation: fixed-template NCC tracker and dead-reckoning motion.

The tracker keeps a 32x32 gray template cut at (re)init time and never adapts
it between reinits; drift correction is the pipeline's job. Confidence is the
clipped NCC peak, directly comparable against a [0,1] threshold.
"""

from __future__ import annotations

import numpy as np

from .appearance import ncc_scores
from .geometry import Box, Vec2, roi_crop
from .media import Frame, crop_rect, resample

TEMPLATE_SIDE = 32
SEARCH_SCALE = 2.5  # search window dims = box dims + 1.5x margin


class TemplateTracker:
    """Single-template NCC tracker with a scale-normalized search window."""

    def __init__(self):
        self.template: np.ndarray | None = None
        self.last_box: Box | None = None

    def reinit(self, frame: Frame, box: Box) -> None:
        """Cut a fresh template from the frame; resets all tracking state."""
        rect = crop_rect(frame.dims, box)
        if rect is None:
            raise ValueError(f"init box {box} does not intersect the frame")
        self.template = resample(frame.gray(*rect), TEMPLATE_SIDE, TEMPLATE_SIDE)
        self.last_box = box

    def update(self, frame: Frame) -> tuple[Box, float]:
        """Locate the template near the previous box.

        The search window (2.5x the box dims, clamped to the frame) is
        resampled so the target appears at template scale, searched
        exhaustively, and the peak mapped back to frame coordinates. Returns
        the best box at unchanged dims and a confidence in [0,1].

        A window of one colour scores 0 at every offset, so the first offset
        wins: the box moves to the window's corner with confidence 0, found
        without gray, resampling or NCC.
        """
        if self.template is None or self.last_box is None:
            raise RuntimeError("tracker update before init")
        last = self.last_box
        window = roi_crop(last, SEARCH_SCALE, frame.dims)
        x0, y0, x1, y1 = crop_rect(frame.dims, window)
        if frame.is_flat(x0, y0, x1, y1):
            self.last_box = Box(float(x0), float(y0), last.w, last.h)
            return self.last_box, 0.0
        win = frame.gray(x0, y0, x1, y1)
        wh, ww = win.shape
        norm_w = max(int(round(ww * TEMPLATE_SIDE / last.w)), TEMPLATE_SIDE)
        norm_h = max(int(round(wh * TEMPLATE_SIDE / last.h)), TEMPLATE_SIDE)
        scores = ncc_scores(resample(win, norm_w, norm_h), self.template)
        peak = int(np.argmax(scores))
        oy, ox = divmod(peak, scores.shape[1])
        # map the peak back through the applied resampling scale
        bx = x0 + ox * (ww / norm_w)
        by = y0 + oy * (wh / norm_h)
        box = Box(bx, by, last.w, last.h)
        self.last_box = box
        return box, max(0.0, float(scores[oy, ox]))


class MotionEstimator:
    """Short-term velocity for dead reckoning: an EMA of box-center displacement.

    Image flow is not used: at a covered or failing box it reads confident
    zero motion at the occluder's cut edge, exactly at the frames where the
    held box consumes the velocity, so the session dead-reckons from the last
    reliable motion instead.
    """

    EMA_FACTOR = 0.25

    def __init__(self):
        self._ema = Vec2(0.0, 0.0)
        self._last_center: tuple[float, float] | None = None

    @property
    def velocity(self) -> Vec2:
        """Dead-reckoning velocity: the EMA of recent hypothesis displacements."""
        return self._ema

    def rebase(self, box: Box) -> None:
        """Restart displacement bookkeeping at box without disturbing the EMA.

        Call after a discontinuous hypothesis jump (a recovery snap) so the
        jump itself is not read as one frame of motion.
        """
        self._last_center = (box.cx, box.cy)

    def offset_origin(self, dx: float, dy: float) -> None:
        """Shift the displacement origin by (dx, dy).

        Call when the hypothesis box is nudged onto a detection: the nudge
        repays accumulated alignment error, it is not target motion, so the
        next displacement sample should not include it.
        """
        if self._last_center is not None:
            self._last_center = (self._last_center[0] + dx,
                                 self._last_center[1] + dy)

    def estimate_velocity(self, prev_box: Box) -> Vec2:
        """Advance the displacement EMA by prev_box's center and return it."""
        cx, cy = prev_box.cx, prev_box.cy
        if self._last_center is not None:
            f = self.EMA_FACTOR
            self._ema = Vec2(
                (1 - f) * self._ema.dx + f * (cx - self._last_center[0]),
                (1 - f) * self._ema.dy + f * (cy - self._last_center[1]),
            )
        self._last_center = (cx, cy)
        return self._ema
