"""Compact appearance model: gray+HSV descriptors, cosine similarity, NCC search.

A descriptor is a length-512 float64 vector: a mean-removed 16x16 grayscale
thumbnail scaled to [0, 1] concatenated with a 16 hue x 16 saturation
histogram normalized to sum 1, the whole thing l2-normalized. No learned
features anywhere. The histogram computes each pixel's bin index straight
from its integer channels, with the float64 steps of the textbook hexcone
conversion, so it bins every colour exactly as that conversion does.

Removing the thumbnail mean matters more than it looks: without it the shared
brightness level carries nearly all of the vector's energy, and any two
patches of similar average luminance score cosine 0.85 or higher no matter
how different their texture. With the mean gone, the gray half compares
texture the way normalized correlation does, and the color histogram's share
of the energy stops being negligible.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import fft as sp_fft

from .geometry import Box
from .media import Frame, crop_patch, crop_rect, resample

# Descriptors are plain float64 arrays; alias for signatures.
Descriptor = np.ndarray

PATCH_SIDE = 16
HUE_BINS = 16
SAT_BINS = 16
DESCRIPTOR_LEN = PATCH_SIDE * PATCH_SIDE + HUE_BINS * SAT_BINS


def hsv_histogram(patch: np.ndarray) -> np.ndarray:
    """16x16 hue/saturation histogram of an RGB patch, normalized to sum 1.

    Hue is hexcone hue (0 for gray pixels) in bins 22.5 degrees wide;
    saturation is ``(max - min) / max`` (0 for black) in bins 1/16 wide. The
    value channel is ignored.

    Only the bin index is computed, from int16 channel planes. Hue keeps the
    float64 steps of the textbook conversion: the branch fraction
    ``num / delta``, plus 6, 2 or 4 for the red branch below zero, the green
    and the blue branch (the red branch's ``% 6`` of a value in [-1, 0) adds
    6, exactly), times 60, divided by 22.5, truncated.
    """
    r, g, b = patch.transpose(2, 0, 1).astype(np.int16, order="C")
    mx = np.maximum(np.maximum(r, g), b)
    delta = mx - np.minimum(np.minimum(r, g), b)
    on_r = mx == r
    on_g = mx == g
    # branch precedence red, then green, then blue
    num = np.where(on_r, g - b, np.where(on_g, b - r, r - g))
    hue = num / np.maximum(delta, 1)
    hue += np.where(on_r, np.where(num < 0, 6.0, 0.0),
                    np.where(on_g, 2.0, 4.0))
    hue *= 60.0
    hue /= 360.0 / HUE_BINS
    sat = delta / np.maximum(mx, 1)
    sat *= SAT_BINS
    flat = np.minimum(hue.astype(np.intp), HUE_BINS - 1)
    flat *= SAT_BINS
    flat += np.minimum(sat.astype(np.intp), SAT_BINS - 1)
    hist = np.bincount(flat.ravel(), minlength=HUE_BINS * SAT_BINS)
    hist = hist.astype(np.float64)
    return hist / hist.sum()


def compute_descriptor(frame: Frame, box: Box) -> Descriptor:
    """Appearance descriptor of the boxed patch.

    The gray half is the patch resampled to 16x16, scaled to [0, 1], and
    shifted to zero mean; the color half is the hue/saturation histogram over
    all patch pixels. Raises if the box misses the frame entirely.
    """
    patch = crop_patch(frame, box)
    gray = resample(frame.gray(*crop_rect(frame.dims, box)),
                    PATCH_SIDE, PATCH_SIDE).ravel() / 255.0
    parts = np.concatenate([gray - gray.mean(), hsv_histogram(patch)])
    norm = np.linalg.norm(parts)
    return parts / norm if norm > 0 else parts


def cosine(a: Descriptor, b: Descriptor) -> float:
    """Cosine similarity; 0 if either vector is all-zero."""
    if a.shape != b.shape:
        raise ValueError(f"descriptor length mismatch: {a.shape} vs {b.shape}")
    # np.linalg.norm of a 1-D float64 vector is sqrt(x.dot(x)), bit for bit
    na = math.sqrt(a.dot(a))
    nb = math.sqrt(b.dot(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _spectrum(a: np.ndarray, fshape: tuple[int, ...], axes: tuple[int, ...]
              ) -> np.ndarray:
    """Real FFT of a, zero-padded by hand so the FFT copies nothing; at an
    FFT length equal to a's own dims there is nothing to pad."""
    shape = list(a.shape)
    for axis, n in zip(axes, fshape):
        shape[axis] = n
    if tuple(shape) == a.shape:
        return sp_fft.rfftn(a.astype(np.float64, copy=False), axes=axes)
    padded = np.zeros(shape)
    padded[:a.shape[0], :a.shape[1]] = a
    return sp_fft.rfftn(padded, axes=axes)


@functools.lru_cache(maxsize=4)
def _template_terms(data: bytes, dtype: str, shape: tuple[int, int],
                    fshape: tuple[int, ...], axes: tuple[int, ...]
                    ) -> tuple[float, np.ndarray | None]:
    """Variance term and conjugate spectrum of the zero-mean template.

    The variance term over the n template pixels is
    ``n * t_sq - t_sum * t_sum``, an exact integer for integer pixels. A
    tracker's template is fixed between reinits, so each is computed once
    per template and FFT shape; the spectrum is None for a flat template.
    """
    t0 = np.frombuffer(data, dtype).reshape(shape).astype(np.float64)
    t_sum = float(t0.sum())
    t_var = t0.size * float(np.sum(t0 * t0)) - t_sum * t_sum
    if t_var <= 0.0:
        return t_var, None
    t0 -= t0.mean()
    spec = _spectrum(t0, fshape, axes)
    np.conjugate(spec, out=spec)
    spec.flags.writeable = False
    return t_var, spec


def _run_sums(buf: np.ndarray, n: int, k: int, stride: int
              ) -> tuple[np.ndarray, int]:
    """Sums of k entries ``stride`` apart along the first n entries of the
    1-D array buf: entry j of the result is
    ``buf[j] + buf[j + stride] + ... + buf[j + (k-1)*stride]``.

    Returns an array of buf's length and the count m = n - (k-1)*stride of
    its leading entries that hold such sums. The sums are built by binary
    doubling: each pass adds a run of sums of ``width`` entries to itself
    shifted by ``width * stride``, and the runs of k's set bits add up to
    the result. buf is overwritten.
    """
    m = n - (k - 1) * stride
    out = spare = None
    run, width, off = buf, 1, 0
    while True:
        if k & width:
            if out is None:
                out = run
            else:
                out[:m] += run[off * stride:off * stride + m]
            off += width
        if 2 * width > k:
            return out, m
        d = width * stride
        n -= d
        nxt = np.empty_like(buf) if spare is None else spare
        np.add(run[:n], run[d:d + n], out=nxt[:n])
        spare = None if run is out else run
        run, width = nxt, 2 * width


def _window_sums(region_gray: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Sum and sum of squares of every th x tw window, a (2, H-th+1, W-tw+1)
    array of exact integers.

    The two planes are laid end to end in one flat array and summed over th
    rows (entries ``W`` apart), then over tw columns (adjacent entries), by
    ``_run_sums``; a sum that crosses a row or plane end lands only in
    entries the result does not keep. The integers are int32 when a window
    of 255s fits, ``th*tw*255**2 < 2**31``, and int64 otherwise.
    """
    rh, rw = region_gray.shape
    dtype = np.int32 if th * tw * 255 ** 2 < 2 ** 31 else np.int64
    planes = np.empty((2, rh, rw), dtype)
    planes[0] = region_gray
    np.multiply(region_gray, region_gray, dtype=dtype, out=planes[1])
    flat = planes.reshape(-1)
    cols, n = _run_sums(flat, flat.size, th, rw)
    sums, _ = _run_sums(cols, n, tw, 1)
    return sums.reshape(2, rh, rw)[:, :rh - th + 1, :rw - tw + 1]


def ncc_scores(region_gray: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Zero-mean NCC of the template at every integer offset inside the region.

    Output shape is (H-th+1, W-tw+1). Offsets where the window or the template
    has zero variance score 0. A region of one gray level (a covered target
    on a flat background or occluder) has no window with variance, so it
    returns zeros before any template work or FFT, and leaves the template
    cache alone.

    The correlation is a real FFT product with the template's conjugate
    spectrum over the axes where the template is longer than 1 (a length-1
    axis broadcasts), at the fast FFT length of the region itself: a circular
    correlation wraps only into lags past ``H-th`` (``W-tw``), which the
    valid block never reads. Window sums and sums of squares are exact
    integers (``_window_sums``), so a flat window has exactly zero
    variance. Both variances are normalised as ``n * sum_sq - sum * sum``
    with n template pixels, formed in float64 from those integers: exact
    below 2**53, that is for uint8 input and templates up to about 600x600,
    so a window whose variance is tiny against its mean loses no precision.
    The later steps work in place, and the result is a view into the
    inverse FFT.
    """
    th, tw = template.shape
    rh, rw = region_gray.shape
    if th > rh or tw > rw:
        raise ValueError(
            f"template {tw}x{th} larger than region {rw}x{rh}"
        )
    if region_gray.max() == region_gray.min():
        return np.zeros((rh - th + 1, rw - tw + 1))
    # sum(w * t0) == sum((w - mean(w)) * t0) because t0 sums to zero; the
    # circular correlation with the template gives that sum at every offset,
    # in its block [:rh-th+1, :rw-tw+1]
    axes = tuple(a for a in (0, 1) if template.shape[a] > 1)
    fshape = tuple(sp_fft.next_fast_len((rh, rw)[a], True) for a in axes)
    t_var, t_spec = _template_terms(template.tobytes(), template.dtype.str,
                                    template.shape, fshape, axes)
    if t_spec is None:
        return np.zeros((rh - th + 1, rw - tw + 1))
    spec = _spectrum(region_gray, fshape, axes)
    spec *= t_spec
    num = sp_fft.irfftn(spec, fshape, axes=axes)[:rh - th + 1, :rw - tw + 1]
    del spec  # each large temporary is freed before the next is allocated

    w_sum, w_ss = _window_sums(region_gray, th, tw)
    # num is a plain sum of products while both variances carry a factor
    # n, so the score is n * num / sqrt(w_var * t_var)
    n = th * tw
    w_var = np.multiply(w_ss, n, dtype=np.float64)
    w_var -= np.multiply(w_sum, w_sum, dtype=np.float64)
    flat = w_var <= 0.0
    any_flat = bool(flat.any())
    if any_flat:
        np.copyto(w_var, 1.0, where=flat)
    w_var *= t_var
    num *= n
    num /= np.sqrt(w_var, out=w_var)
    if any_flat:
        np.copyto(num, 0.0, where=flat)
    return np.clip(num, -1.0, 1.0, out=num)


def ncc_search(frame: Frame, template: np.ndarray, region: Box) -> tuple[Box, float]:
    """Exhaustive NCC template search over the gray region.

    Returns the best-matching box (template dims, frame coordinates) and the
    peak score in [-1, 1]. Ties break toward the first offset in row-major
    order, so a region of one colour, where every offset scores 0, returns
    its first offset without gray or NCC.
    """
    rect = crop_rect(frame.dims, region)
    if rect is None:
        raise ValueError(f"search region {region} does not intersect the frame")
    x0, y0, x1, y1 = rect
    th, tw = template.shape
    # a template that does not fit still reaches ncc_scores' error
    if th <= y1 - y0 and tw <= x1 - x0 and frame.is_flat(x0, y0, x1, y1):
        return Box(float(x0), float(y0), float(tw), float(th)), 0.0
    scores = ncc_scores(frame.gray(x0, y0, x1, y1), template)
    peak = int(np.argmax(scores))
    oy, ox = divmod(peak, scores.shape[1])
    best = Box(float(x0 + ox), float(y0 + oy), float(tw), float(th))
    return best, float(scores[oy, ox])
