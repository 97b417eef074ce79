"""Descriptor and NCC contracts against brute-force oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

import damtrack
from conftest import (TexturedFrame, full_path_reached, hsv_channels,
                      make_block_patch, make_scene, to_hsv)
from damtrack import appearance
from damtrack.appearance import (DESCRIPTOR_LEN, HUE_BINS, PATCH_SIDE,
                                 SAT_BINS, compute_descriptor, cosine,
                                 hsv_histogram, ncc_scores, ncc_search)
from damtrack.geometry import Box
from damtrack.media import Frame, crop_rect


# --- histogram ----------------------------------------------------------------


def brute_force_histogram(patch: np.ndarray) -> np.ndarray:
    """Per-pixel scalar HSV binning, the slow way."""
    hist = np.zeros(HUE_BINS * SAT_BINS)
    for y in range(patch.shape[0]):
        for x in range(patch.shape[1]):
            h, s, _v = to_hsv(patch[y, x])
            hb = min(int(h / (360.0 / HUE_BINS)), HUE_BINS - 1)
            sb = min(int(s * SAT_BINS), SAT_BINS - 1)
            hist[hb * SAT_BINS + sb] += 1
    return hist / hist.sum()


def oracle_histogram(patch: np.ndarray) -> np.ndarray:
    """Histogram of the float64 ``hsv_channels`` conversion, binned as before."""
    h, s, _ = hsv_channels(patch)
    hue_bin = np.minimum((h / (360.0 / HUE_BINS)).astype(int), HUE_BINS - 1)
    sat_bin = np.minimum((s * SAT_BINS).astype(int), SAT_BINS - 1)
    flat = (hue_bin * SAT_BINS + sat_bin).ravel()
    hist = np.bincount(flat, minlength=HUE_BINS * SAT_BINS).astype(np.float64)
    return hist / hist.sum()


# colours on the branch edges: gray (delta 0), black, primaries, secondaries,
# and ties between the largest channels
_EDGE_COLOURS = [(0, 0, 0), (255, 255, 255), (7, 7, 7), (255, 0, 0),
                 (0, 255, 0), (0, 0, 255), (255, 255, 0), (0, 255, 255),
                 (255, 0, 255), (200, 200, 10), (10, 200, 200),
                 (200, 10, 200), (1, 0, 0), (255, 254, 0), (255, 0, 1)]


@st.composite
def hsv_patches(draw):
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    colour = st.sampled_from(_EDGE_COLOURS) | st.tuples(
        *[st.integers(0, 255)] * 3)
    kind = draw(st.sampled_from(["random", "edges", "gray", "crop"]))
    if kind == "edges":
        palette = np.array(draw(st.lists(colour, min_size=1, max_size=6)),
                           dtype=np.uint8)
        idx = draw(arrays(np.intp, (h, w),
                          elements=st.integers(0, len(palette) - 1)))
        return palette[idx]
    if kind == "gray":
        v = draw(arrays(np.uint8, (h, w)))
        return np.repeat(v[:, :, None], 3, axis=2)
    if kind == "crop":
        # a window of a larger frame, as crop_patch returns it
        frame = draw(arrays(np.uint8, (h + 3, w + 5, 3)))
        y0 = draw(st.integers(0, 3))
        x0 = draw(st.integers(0, 5))
        return frame[y0:y0 + h, x0:x0 + w]
    return draw(arrays(np.uint8, (h, w, 3)))


@settings(max_examples=300, deadline=None)
@given(hsv_patches())
def test_histogram_matches_float_oracle_bitwise(patch):
    assert np.array_equal(hsv_histogram(patch), oracle_histogram(patch))


def test_histogram_matches_brute_force(rng):
    patch = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    assert hsv_histogram(patch) == pytest.approx(brute_force_histogram(patch),
                                                 abs=1e-12)


def test_histogram_sums_to_one(rng):
    for _ in range(5):
        patch = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        assert hsv_histogram(patch).sum() == pytest.approx(1.0)


def test_histogram_pure_color_bin():
    red = np.zeros((4, 4, 3), dtype=np.uint8)
    red[..., 0] = 200  # hue 0, saturation 1: bin (0, 15)
    hist = hsv_histogram(red)
    assert hist[0 * SAT_BINS + (SAT_BINS - 1)] == 1.0
    assert np.count_nonzero(hist) == 1


def test_histogram_permutation_invariant(rng):
    for _ in range(100):
        patch = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        flat = patch.reshape(-1, 3)
        shuffled = flat[rng.permutation(len(flat))].reshape(patch.shape)
        assert np.array_equal(hsv_histogram(patch), hsv_histogram(shuffled))


# --- descriptor ---------------------------------------------------------------


def test_descriptor_shape_and_unit_norm(rng):
    frame = Frame(rng.integers(0, 256, size=(60, 80, 3), dtype=np.uint8))
    for _ in range(30):
        x = float(rng.uniform(0, 50))
        y = float(rng.uniform(0, 35))
        box = Box(x, y, float(rng.uniform(4, 25)), float(rng.uniform(4, 20)))
        d = compute_descriptor(frame, box)
        assert d.shape == (DESCRIPTOR_LEN,)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-6)


def test_descriptor_flat_patch_gray_half_zero():
    frame = make_scene(40, 40, [])  # flat background
    d = compute_descriptor(frame, Box(5, 5, 16, 16))
    gray_half = d[:PATCH_SIDE * PATCH_SIDE]
    # mean removal kills a flat thumbnail, up to float round-off
    assert np.abs(gray_half).max() <= 1e-12
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-6)


def test_descriptor_gray_half_zero_mean(rng):
    frame = Frame(rng.integers(0, 256, size=(50, 50, 3), dtype=np.uint8))
    d = compute_descriptor(frame, Box(8, 8, 20, 20))
    gray_half = d[:PATCH_SIDE * PATCH_SIDE]
    assert gray_half.sum() == pytest.approx(0.0, abs=1e-9)


def test_descriptor_discriminates_texture_not_brightness():
    box = Box(0, 0, 32, 32)
    a = Frame(make_block_patch(32, 32, seed=10))
    same_dimmer = Frame((make_block_patch(32, 32, seed=10) * 0.75).astype(np.uint8))
    other = Frame(make_block_patch(32, 32, seed=99))
    d_a = compute_descriptor(a, box)
    # same pattern at lower brightness: hue and saturation are invariant
    # under scaling, the gray half only loses a little relative energy
    assert cosine(d_a, compute_descriptor(same_dimmer, box)) > 0.9
    # different pattern, same colors: the shared histogram carries almost
    # none of the energy, so the score collapses
    assert cosine(d_a, compute_descriptor(other, box)) < 0.5


def test_cosine_basics():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, b) == 0.0
    assert cosine(a, -a) == pytest.approx(-1.0)
    assert cosine(a, np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        cosine(a, np.zeros(4))


def _norm_formula_cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


@st.composite
def descriptor_pairs(draw):
    n = draw(st.integers(1, DESCRIPTOR_LEN))
    # zeros often, so all-zero vectors and sparse ones are common
    values = st.sampled_from([0.0]) | st.floats(-1e3, 1e3)
    return tuple(draw(arrays(np.float64, n, elements=values))
                 for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(descriptor_pairs())
def test_cosine_bitwise_equals_linalg_norm_formula(pair):
    a, b = pair
    for v in (a, b, np.zeros_like(a)):
        assert math.sqrt(v.dot(v)).hex() == float(np.linalg.norm(v)).hex()
    for x, y in ((a, b), (a, np.zeros_like(a)), (a, a)):
        assert cosine(x, y).hex() == _norm_formula_cosine(x, y).hex()


# --- NCC ----------------------------------------------------------------------


def brute_force_ncc(region: np.ndarray, template: np.ndarray) -> np.ndarray:
    th, tw = template.shape
    t0 = template.astype(np.float64) - template.mean()
    t_ss = np.sum(t0 * t0)
    out = np.zeros((region.shape[0] - th + 1, region.shape[1] - tw + 1))
    for oy in range(out.shape[0]):
        for ox in range(out.shape[1]):
            w = region[oy:oy + th, ox:ox + tw].astype(np.float64)
            w0 = w - w.mean()
            w_ss = np.sum(w0 * w0)
            if w_ss <= 0 or t_ss <= 0:
                out[oy, ox] = 0.0
            else:
                out[oy, ox] = np.sum(w0 * t0) / np.sqrt(w_ss * t_ss)
    return np.clip(out, -1.0, 1.0)


def _window_sums(gray: np.ndarray, th: int, tw: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset window sums and sums of squares from int64 integral images."""
    g = gray.astype(np.int64)
    ii = np.zeros((g.shape[0] + 1, g.shape[1] + 1), dtype=np.int64)
    ii2 = np.zeros_like(ii)
    np.cumsum(np.cumsum(g, axis=0), axis=1, out=ii[1:, 1:])
    np.cumsum(np.cumsum(g * g, axis=0), axis=1, out=ii2[1:, 1:])

    def box_sum(tab):
        return (tab[th:, tw:] - tab[:-th, tw:] - tab[th:, :-tw]
                + tab[:-th, :-tw])

    return box_sum(ii), box_sum(ii2)


def reference_ncc(region: np.ndarray, template: np.ndarray) -> np.ndarray:
    """The straightforward kernel: fftconvolve plus int64 window sums.

    Both variances are the exact integers ``n * sum_sq - sum * sum`` over n
    template pixels, so a near-flat window loses no precision.
    """
    th, tw = template.shape
    rh, rw = region.shape
    n = th * tw
    t = template.astype(np.int64)
    t_var = float(n * np.sum(t * t) - np.sum(t) ** 2)
    if t_var == 0.0:
        return np.zeros((rh - th + 1, rw - tw + 1))
    t0 = t - t.mean()
    num = fftconvolve(region.astype(np.float64), t0[::-1, ::-1],
                      mode="valid")
    w_sum, w_ss = _window_sums(region, th, tw)
    w_var = (n * w_ss - w_sum * w_sum).astype(np.float64)
    flat = w_var <= 0.0
    denom = np.sqrt(np.where(flat, 1.0, w_var) * t_var)
    scores = np.where(flat, 0.0, n * num / denom)
    return np.clip(scores, -1.0, 1.0)


@st.composite
def window_sum_cases(draw):
    rh = draw(st.integers(1, 200))
    rw = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    # all 255 is the largest sum of squares a window can hold
    high = draw(st.sampled_from([1, 2, 256]))
    region = np.random.default_rng(seed).integers(0, high, size=(rh, rw))
    region = (255 - region).astype(np.uint8)
    th = draw(st.sampled_from([1, rh]) | st.integers(1, rh))
    tw = draw(st.sampled_from([1, rw]) | st.integers(1, rw))
    return region, th, tw


@settings(max_examples=200, deadline=None)
@given(window_sum_cases())
def test_window_sums_equal_integral_image_oracle(case):
    region, th, tw = case
    got = appearance._window_sums(region, th, tw)
    # int32 holds every sum while a window of 255s fits
    assert got.dtype == (np.int32 if th * tw * 255**2 < 2**31 else np.int64)
    assert np.array_equal(got, np.stack(_window_sums(region, th, tw)))


@pytest.mark.parametrize("side, dtype", [(181, np.int32), (182, np.int64)])
def test_window_sums_of_255s_at_the_int32_bound(side, dtype):
    # 181**2 * 255**2 is just below 2**31 and 182**2 * 255**2 just above
    region = np.full((200, 200), 255, dtype=np.uint8)
    got = appearance._window_sums(region, side, side)
    assert got.dtype == dtype
    assert np.array_equal(got, np.stack(_window_sums(region, side, side)))
    assert got[1].max() == side * side * 255**2


@st.composite
def ncc_cases(draw, max_side: int = 40):
    rh = draw(st.integers(1, max_side))
    rw = draw(st.integers(1, max_side))
    # two grey levels make flat windows common; all 256 make them rare
    levels = draw(st.sampled_from([(0, 255), (60, 61), (100, 200, 7),
                                   tuple(range(256))]))
    region = draw(arrays(np.uint8, (rh, rw), elements=st.sampled_from(levels)))
    # template as tall or wide as the region gives a 1-row or 1-column output
    th = draw(st.sampled_from([1, rh]) | st.integers(1, rh))
    tw = draw(st.sampled_from([1, rw]) | st.integers(1, rw))
    kind = draw(st.sampled_from(["drawn", "cut", "flat"]))
    if kind == "cut":
        y = draw(st.integers(0, rh - th))
        x = draw(st.integers(0, rw - tw))
        template = region[y:y + th, x:x + tw].copy()
    elif kind == "flat":
        template = np.full((th, tw), draw(st.integers(0, 255)), np.uint8)
    else:
        template = draw(arrays(np.uint8, (th, tw)))
    return region, template


@settings(max_examples=400, deadline=None)
@given(ncc_cases())
def test_ncc_matches_reference_kernel(case):
    # the kernel's FFT is shorter than fftconvolve's, so it rounds
    # differently: equal to 1e-12, and exactly 0 where a window is flat
    region, template = case
    got = ncc_scores(region, template)
    want = reference_ncc(region, template)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    w_sum, w_ss = _window_sums(region, *template.shape)
    flat = w_ss * template.size == w_sum * w_sum
    assert np.all(got[flat] == 0.0)


# region sides that are already fast real-FFT lengths: the kernel pads
# nothing, so the last valid lag reads the region's last row or column
_FAST_SIDES = [n for n in range(1, 82) if next_fast_len(n, True) == n]


@st.composite
def alias_edge_cases(draw):
    rh = draw(st.sampled_from(_FAST_SIDES))
    rw = draw(st.sampled_from(_FAST_SIDES))
    region = draw(arrays(np.uint8, (rh, rw)))
    th = draw(st.sampled_from([1, rh]) | st.integers(1, rh))
    tw = draw(st.sampled_from([1, rw]) | st.integers(1, rw))
    return region, draw(arrays(np.uint8, (th, tw)))


def _near_flat_opposites() -> tuple[np.ndarray, np.ndarray]:
    """75x75 region of 219 with one 221 and template of 1 with one 0 at the
    same corner: exact score -1, which the lossy variance
    ``w_ss - w_sum * w_sum / n`` read as -0.9999999965."""
    region = np.full((75, 75), 219, np.uint8)
    region[0, 0] = 221
    template = np.ones((75, 75), np.uint8)
    template[0, 0] = 0
    return region, template


@settings(max_examples=150, deadline=None)
@given(alias_edge_cases())
@example(_near_flat_opposites())
def test_ncc_alias_free_at_fast_lengths(case):
    region, template = case
    got = ncc_scores(region, template)
    want = brute_force_ncc(region, template)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(ncc_cases(max_side=12))
def test_ncc_matches_brute_force_small(case):
    region, template = case
    got = ncc_scores(region, template)
    want = brute_force_ncc(region, template)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9


def test_ncc_kernel_does_not_import_scipy_signal():
    # scipy.signal costs tens of MB and about a second on import; the
    # kernel needs only scipy.fft
    src = os.path.dirname(os.path.dirname(os.path.abspath(damtrack.__file__)))
    code = ("import sys, damtrack.pipeline, damtrack.cli; "
            "print('scipy.signal' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_ncc_matches_brute_force(rng):
    region = rng.integers(0, 256, size=(20, 22), dtype=np.uint8)
    template = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
    got = ncc_scores(region, template)
    want = brute_force_ncc(region, template)
    assert got.shape == want.shape == (16, 17)
    assert got == pytest.approx(want, abs=1e-6)  # FFT round-off


def test_ncc_flat_window_scores_exact_zero(rng):
    region = np.zeros((12, 12), dtype=np.uint8)
    region[6:, 6:] = rng.integers(1, 256, size=(6, 6), dtype=np.uint8)
    template = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
    scores = ncc_scores(region, template)
    # the top-left window is entirely flat: integral-image variance is
    # integer math, so the score must be exactly zero, not FFT noise
    assert scores[0, 0] == 0.0


def test_ncc_flat_template_all_zero(rng):
    region = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    scores = ncc_scores(region, np.full((3, 3), 7, dtype=np.uint8))
    assert np.all(scores == 0.0)


@st.composite
def constant_region_cases(draw):
    rh = draw(st.integers(1, 60))
    rw = draw(st.integers(1, 60))
    region = np.full((rh, rw), draw(st.integers(0, 255)), np.uint8)
    th = draw(st.sampled_from([1, rh]) | st.integers(1, rh))
    tw = draw(st.sampled_from([1, rw]) | st.integers(1, rw))
    kind = draw(st.sampled_from(["drawn", "cut", "flat"]))
    if kind == "cut":
        template = region[:th, :tw].copy()
    elif kind == "flat":
        template = np.full((th, tw), draw(st.integers(0, 255)), np.uint8)
    else:
        template = draw(arrays(np.uint8, (th, tw)))
    return region, template


@settings(max_examples=200, deadline=None)
@given(constant_region_cases())
def test_ncc_constant_region_scores_exact_zero(case):
    region, template = case
    got = ncc_scores(region, template)
    th, tw = template.shape
    assert got.shape == (region.shape[0] - th + 1, region.shape[1] - tw + 1)
    # +0.0 everywhere, bit for bit what the FFT path gives a flat window
    assert not np.any(np.signbit(got))
    assert np.array_equal(got, np.zeros(got.shape))
    assert np.array_equal(got, reference_ncc(region, template))


def test_ncc_constant_region_skips_the_fft(monkeypatch, rng):
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT reached")

    monkeypatch.setattr(appearance.sp_fft, "rfftn", no_fft)
    template = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    region = np.full((30, 30), 90, dtype=np.uint8)
    assert np.all(ncc_scores(region, template) == 0.0)
    region[17, 4] = 91  # one differing pixel gives windows with variance
    with pytest.raises(AssertionError, match="FFT reached"):
        ncc_scores(region, template)


def test_ncc_peak_at_embedded_template(rng):
    template = make_block_patch(8, 8, seed=3)[:, :, 0]
    region = np.full((24, 24), 60, dtype=np.uint8)
    region[10:18, 5:13] = template
    scores = ncc_scores(region, template)
    oy, ox = np.unravel_index(np.argmax(scores), scores.shape)
    assert (oy, ox) == (10, 5)
    assert scores[oy, ox] == pytest.approx(1.0, abs=1e-6)


def test_ncc_contrast_invariance():
    template = make_block_patch(10, 10, seed=4)[:, :, 0]
    rescaled = (template.astype(np.float64) * 0.5 + 40).astype(np.uint8)
    region = np.full((20, 20), 30, dtype=np.uint8)
    region[4:14, 6:16] = rescaled
    scores = ncc_scores(region, template)
    assert scores[4, 6] == pytest.approx(1.0, abs=1e-3)


def test_ncc_template_too_large():
    with pytest.raises(ValueError):
        ncc_scores(np.zeros((4, 4), dtype=np.uint8),
                   np.zeros((5, 5), dtype=np.uint8))


def test_ncc_search_finds_offset_and_ties_row_major(rng):
    patch = make_block_patch(9, 9, seed=5)
    frame = make_scene(40, 32, [])
    frame.pixels[12:21, 17:26] = patch
    template = frame.gray(17, 12, 26, 21)
    best, peak = ncc_search(frame, template, Box(0, 0, 40, 32))
    assert (best.x, best.y, best.w, best.h) == (17, 12, 9, 9)
    assert peak == pytest.approx(1.0, abs=1e-6)
    # all-flat region: every score is 0, the tie resolves to the first
    # offset in row-major order
    flat = make_scene(30, 20, [])
    best_flat, peak_flat = ncc_search(flat, template, Box(5, 3, 20, 14))
    assert (best_flat.x, best_flat.y) == (5, 3)
    assert peak_flat == 0.0


def test_ncc_search_flat_region_skips_gray_and_ncc(monkeypatch):
    template = make_block_patch(9, 7, seed=5)[:, :, 0]
    frame = make_scene(30, 20, [])
    monkeypatch.setattr(Frame, "gray", full_path_reached)
    monkeypatch.setattr(appearance, "ncc_scores", full_path_reached)
    best, peak = ncc_search(frame, template, Box(5.5, 3.2, 20, 14))
    assert best == Box(5.0, 3.0, 9.0, 7.0) and peak == 0.0
    # one channel of one pixel inside the region takes the full path
    frame.pixels[16, 24, 0] += 1
    with pytest.raises(AssertionError, match="full path reached"):
        ncc_search(frame, template, Box(5.5, 3.2, 20, 14))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 255), st.integers(1, 12), st.integers(1, 12),
       st.floats(-10.0, 40.0), st.floats(-10.0, 30.0),
       st.floats(1.0, 40.0), st.floats(1.0, 40.0))
def test_ncc_search_flat_region_matches_full_path(level, th, tw, x, y, w, h):
    pixels = make_scene(40, 30, [], background=level).pixels
    template = make_block_patch(tw, th, seed=6)[:, :, 0]
    region = Box(x, y, w, h)
    rect = crop_rect(Frame(pixels).dims, region)
    results = []
    for cls in (Frame, TexturedFrame):
        try:
            results.append(ncc_search(cls(pixels), template, region))
        except ValueError as e:  # off the frame, or a template too large
            results.append(str(e))
    assert results[0] == results[1]
    if rect is not None:
        x0, y0, x1, y1 = rect
        fits = th <= y1 - y0 and tw <= x1 - x0
        assert isinstance(results[0], tuple) == fits


def test_ncc_search_region_off_frame():
    frame = make_scene(20, 20, [])
    with pytest.raises(ValueError):
        ncc_search(frame, np.zeros((4, 4), dtype=np.uint8),
                   Box(100, 100, 10, 10))
