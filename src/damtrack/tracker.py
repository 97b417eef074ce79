"""Frame-to-frame propagation: fixed-template NCC tracker and sparse-flow motion.

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

    def init(self, frame: Frame, box: Box) -> None:
        self.reinit(frame, box)

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
        """
        if self.template is None or self.last_box is None:
            raise RuntimeError("tracker update before init")
        last = self.last_box
        window = roi_crop(last, SEARCH_SCALE, frame.dims)
        x0, y0, x1, y1 = crop_rect(frame.dims, window)
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


# --- corner detection ---------------------------------------------------------


def _sobel(gray_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = np.pad(gray_f, 1, mode="edge")
    gx = (
        g[:-2, 2:] + 2.0 * g[1:-1, 2:] + g[2:, 2:]
        - g[:-2, :-2] - 2.0 * g[1:-1, :-2] - g[2:, :-2]
    )
    gy = (
        g[2:, :-2] + 2.0 * g[2:, 1:-1] + g[2:, 2:]
        - g[:-2, :-2] - 2.0 * g[:-2, 1:-1] - g[:-2, 2:]
    )
    return gx, gy


def _box3(a: np.ndarray) -> np.ndarray:
    p = np.pad(a, 1, mode="constant")
    return (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    )


def shi_tomasi_corners(gray: np.ndarray, max_n: int = 50) -> list[tuple[float, float]]:
    """Min-eigenvalue corners: strongest local maxima with 3 px separation.

    Returns up to max_n (x, y) positions, strongest first; empty on flat or
    tiny patches.
    """
    if gray.shape[0] < 3 or gray.shape[1] < 3 or max_n < 1:
        return []
    gf = gray.astype(np.float64) / 255.0
    gx, gy = _sobel(gf)
    ixx = _box3(gx * gx)
    iyy = _box3(gy * gy)
    ixy = _box3(gx * gy)
    # min eigenvalue of [[ixx, ixy], [ixy, iyy]]
    half_tr = (ixx + iyy) / 2.0
    resp = half_tr - np.sqrt(((ixx - iyy) / 2.0) ** 2 + ixy * ixy)
    top = float(resp.max())
    if top <= 0.0:
        return []
    # local maxima over the 3x3 neighborhood, above a relative floor
    p = np.pad(resp, 1, mode="constant", constant_values=-np.inf)
    neigh = np.stack([
        p[dy:dy + resp.shape[0], dx:dx + resp.shape[1]]
        for dy in range(3) for dx in range(3)
    ]).max(axis=0)
    cand = np.argwhere((resp >= neigh) & (resp >= 0.01 * top))
    order = np.argsort(-resp[cand[:, 0], cand[:, 1]], kind="stable")
    picked: list[tuple[float, float]] = []
    for idx in order:
        y, x = float(cand[idx, 0]), float(cand[idx, 1])
        if all((x - px) ** 2 + (y - py) ** 2 >= 9.0 for px, py in picked):
            picked.append((x, y))
            if len(picked) >= max_n:
                break
    return picked


# --- sparse optical flow ------------------------------------------------------

LK_HALF = 5  # 11x11 window
LK_ITERS = 5
LK_MIN_EIG = 1e-4


def _bilinear_window(img: np.ndarray, cx: float, cy: float,
                     half: int) -> np.ndarray | None:
    """Sample a (2*half+1)^2 window at a subpixel center; None out of bounds."""
    h, w = img.shape
    xs = cx + np.arange(-half, half + 1)
    ys = cy + np.arange(-half, half + 1)
    if xs[0] < 0 or ys[0] < 0 or xs[-1] > w - 1 or ys[-1] > h - 1:
        return None
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def lk_flow(prev_gray: np.ndarray, cur_gray: np.ndarray,
            points: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Iterative single-level Lucas-Kanade flow at the given points.

    Returns (flows (N,2), valid (N,)); a point is invalid when its gradient
    tensor is degenerate or its window leaves either image.
    """
    if prev_gray.shape != cur_gray.shape:
        raise ValueError("frame dims differ")
    prev_f = prev_gray.astype(np.float64) / 255.0
    cur_f = cur_gray.astype(np.float64) / 255.0
    # central-difference gradients of the previous frame
    gx = np.zeros_like(prev_f)
    gy = np.zeros_like(prev_f)
    gx[:, 1:-1] = (prev_f[:, 2:] - prev_f[:, :-2]) / 2.0
    gy[1:-1, :] = (prev_f[2:, :] - prev_f[:-2, :]) / 2.0
    flows = np.zeros((len(points), 2))
    valid = np.zeros(len(points), dtype=bool)
    for i, (px, py) in enumerate(points):
        w_prev = _bilinear_window(prev_f, px, py, LK_HALF)
        w_gx = _bilinear_window(gx, px, py, LK_HALF)
        w_gy = _bilinear_window(gy, px, py, LK_HALF)
        if w_prev is None or w_gx is None or w_gy is None:
            continue
        gxx = float(np.sum(w_gx * w_gx))
        gyy = float(np.sum(w_gy * w_gy))
        gxy = float(np.sum(w_gx * w_gy))
        half_tr = (gxx + gyy) / 2.0
        min_eig = half_tr - np.sqrt(((gxx - gyy) / 2.0) ** 2 + gxy * gxy)
        if min_eig < LK_MIN_EIG:
            continue
        det = gxx * gyy - gxy * gxy
        dx = dy = 0.0
        ok = True
        for _ in range(LK_ITERS):
            w_cur = _bilinear_window(cur_f, px + dx, py + dy, LK_HALF)
            if w_cur is None:
                ok = False
                break
            err = w_prev - w_cur
            bx = float(np.sum(w_gx * err))
            by = float(np.sum(w_gy * err))
            sx = (gyy * bx - gxy * by) / det
            sy = (gxx * by - gxy * bx) / det
            dx += sx
            dy += sy
            if sx * sx + sy * sy < 1e-4:
                break
        if ok:
            flows[i] = (dx, dy)
            valid[i] = True
    return flows, valid


class MotionEstimator:
    """Short-term velocity from sparse flow, with an EMA dead-reckoning fallback.

    The EMA of box-center displacement is updated on every call from the boxes
    passed in, so when flow degenerates (too few valid points) the estimator
    keeps extrapolating the recent motion.
    """

    MIN_VALID = 4
    EMA_FACTOR = 0.25
    MAX_CORNERS = 50

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

    def estimate_velocity(self, prev_frame: Frame, cur_frame: Frame,
                          prev_box: Box, use_flow: bool = True) -> Vec2:
        """Velocity from prev_frame to cur_frame at the previous box.

        Always advances the displacement EMA from prev_box. With use_flow
        the result is the component-wise median of valid corner flows,
        falling back to the EMA when too few survive; without it the flow
        solve is skipped and the EMA is returned directly, for callers that
        would not trust instantaneous flow at this box anyway.
        """
        if prev_frame.dims != cur_frame.dims:
            raise ValueError("frame dims differ")
        cx, cy = prev_box.cx, prev_box.cy
        if self._last_center is not None:
            f = self.EMA_FACTOR
            self._ema = Vec2(
                (1 - f) * self._ema.dx + f * (cx - self._last_center[0]),
                (1 - f) * self._ema.dy + f * (cy - self._last_center[1]),
            )
        self._last_center = (cx, cy)
        if not use_flow:
            return self._ema

        rect = crop_rect(prev_frame.dims, prev_box)
        if rect is None:
            return self._ema
        x0, y0, x1, y1 = rect
        corners = shi_tomasi_corners(prev_frame.gray(x0, y0, x1, y1),
                                     self.MAX_CORNERS)
        points = [(x + x0, y + y0) for x, y in corners]
        w, h = prev_frame.dims.width, prev_frame.dims.height
        flows, valid = lk_flow(prev_frame.gray(0, 0, w, h),
                               cur_frame.gray(0, 0, w, h), points)
        if int(valid.sum()) < self.MIN_VALID:
            return self._ema
        med = np.median(flows[valid], axis=0)
        return Vec2(float(med[0]), float(med[1]))
