"""Frame I/O and pixel math: PNM codec round trips, gray/HSV oracles, resampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import hsv_channels, make_scene, to_hsv
from damtrack import media
from damtrack.geometry import Box, FrameDims
from damtrack.media import (Frame, MediaError, crop_patch, crop_rect,
                            load_sequence, read_pnm, resample, to_gray,
                            write_annotated, write_pnm)


# --- gray and the HSV oracles -------------------------------------------------


def test_to_gray_known_values():
    px = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255],
                    [255, 255, 255], [0, 0, 0], [128, 128, 128]]],
                  dtype=np.uint8)
    # BT.601 weights, round half up: .299/.587/.114 of 255
    assert to_gray(px).tolist() == [[76, 150, 29, 255, 0, 128]]


def test_to_gray_neutral_identity(rng):
    v = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    patch = np.repeat(v[:, :, None], 3, axis=2)
    assert np.array_equal(to_gray(patch), v)


def _half_up(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact BT.601 gray rounded half up, and where the colour lies half-way
    (``299r + 587g + 114b`` is 500 modulo 1000)."""
    weighted = rgb.astype(np.int64) @ np.array([299, 587, 114])
    return (weighted + 500) // 1000, weighted % 1000 == 500


def test_to_gray_is_exact_but_may_round_half_way_colours_down():
    # every 8-bit colour, one red level at a time. The float64 matmul leaves
    # the rounding of a half-way colour to the BLAS kernel that runs it
    rgb = np.zeros((256, 256, 3), dtype=np.uint8)
    rgb[..., 1] = np.arange(256)[:, None]
    rgb[..., 2] = np.arange(256)
    for r in range(256):
        rgb[..., 0] = r
        exact, half_way = _half_up(rgb)
        below = exact - to_gray(rgb)
        assert ((below == 0) | (half_way & (below == 1))).all(), r


def test_to_hsv_known_values():
    assert to_hsv((255, 0, 0)) == (0.0, 1.0, 1.0)
    h, s, v = to_hsv((0, 255, 0))
    assert (h, s, v) == (120.0, 1.0, 1.0)
    h, s, v = to_hsv((0, 0, 128))
    assert h == 240.0 and s == 1.0
    assert to_hsv((70, 70, 70)) == (0.0, 0.0, 70 / 255)
    assert to_hsv((0, 0, 0)) == (0.0, 0.0, 0.0)


def test_hsv_channels_matches_scalar(rng):
    patch = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    h, s, v = hsv_channels(patch)
    for y in range(patch.shape[0]):
        for x in range(patch.shape[1]):
            sh, ss, sv = to_hsv(patch[y, x])
            assert h[y, x] == pytest.approx(sh, abs=1e-9)
            assert s[y, x] == pytest.approx(ss, abs=1e-12)
            assert v[y, x] == pytest.approx(sv, abs=1e-12)


# --- frame and patch extraction -----------------------------------------------


def test_frame_validation_and_dims():
    with pytest.raises(ValueError):
        Frame(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Frame(np.zeros((4, 4, 3), dtype=np.float64))
    f = Frame(np.zeros((4, 6, 3), dtype=np.uint8))
    assert f.dims == FrameDims(6, 4)


def _draw_rect(draw, w: int, h: int) -> tuple[int, int, int, int]:
    # one corner at a time, each pinned to the border a fair share of draws
    x0 = draw(st.sampled_from([0, w - 1]) | st.integers(0, w - 1))
    y0 = draw(st.sampled_from([0, h - 1]) | st.integers(0, h - 1))
    x1 = draw(st.sampled_from([x0 + 1, w]) | st.integers(x0 + 1, w))
    y1 = draw(st.sampled_from([y0 + 1, h]) | st.integers(y0 + 1, h))
    return x0, y0, x1, y1


@st.composite
def frames_and_rects(draw):
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    pixels = draw(arrays(np.uint8, (h, w, 3)))
    return Frame(pixels), _draw_rect(draw, w, h)


@settings(max_examples=300, deadline=None)
@given(frames_and_rects())
def test_frame_gray_window_equals_full_frame_slice(case):
    f, (x0, y0, x1, y1) = case
    got = f.gray(x0, y0, x1, y1)
    assert got.dtype == np.uint8
    assert np.array_equal(got, to_gray(f.pixels)[y0:y1, x0:x1])


# half-way colours; with numpy 2.4 and OpenBLAS 0.3.31, to_gray rounds each
# of these one way in a one-pixel-wide rectangle and the other in a wider one
_HALF_WAY = [(1, 63, 230), (67, 233, 164), (135, 237, 44), (204, 224, 44)]


@st.composite
def frames_and_rect_sequences(draw):
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    # about a third of the pixels half-way
    half_way = rng.random((h, w)) < 1 / 3
    pixels[half_way] = rng.choice(np.array(_HALF_WAY, dtype=np.uint8),
                                  half_way.sum())
    pool = [_draw_rect(draw, w, h) for _ in range(draw(st.integers(1, 4)))]
    rects = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return Frame(pixels), rects


@settings(max_examples=300, deadline=None)
@given(frames_and_rect_sequences())
def test_frame_gray_of_any_rectangle_sequence(case):
    f, rects = case
    got = []
    for x0, y0, x1, y1 in rects:
        gray = f.gray(x0, y0, x1, y1)
        patch = f.pixels[y0:y1, x0:x1]
        own = to_gray(patch)
        exact, half_way = _half_up(patch)
        # the rectangle's own conversion, except that a half-way colour may
        # round as the larger rectangle it was converted in rounded it
        assert gray.dtype == np.uint8 and gray.shape == own.shape
        assert np.array_equal(gray[~half_way], own[~half_way])
        assert (exact - gray <= 1).all() and (gray <= exact).all()
        got.append((gray.copy(), gray))
        # a fresh array: writing to it changes no later result
        gray += 1
    for want, written in got:
        assert np.array_equal(written, want + 1)


@st.composite
def near_flat_frames_and_rects(draw):
    """A one-colour frame with up to three channel values changed, so a
    rectangle is one colour about as often as not."""
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    colour = draw(st.tuples(*[st.integers(0, 255)] * 3))
    pixels = np.full((h, w, 3), colour, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 3))):
        y = draw(st.integers(0, h - 1))
        x = draw(st.integers(0, w - 1))
        c = draw(st.integers(0, 2))
        pixels[y, x, c] = draw(st.integers(0, 255))
    return Frame(pixels), _draw_rect(draw, w, h)


@settings(max_examples=500, deadline=None)
@given(near_flat_frames_and_rects() | frames_and_rects())
def test_is_flat_exactly_when_one_colour(case):
    f, (x0, y0, x1, y1) = case
    colours = np.unique(f.pixels[y0:y1, x0:x1].reshape(-1, 3), axis=0)
    assert f.is_flat(x0, y0, x1, y1) == (len(colours) == 1)


def test_crop_rect_rounds_outward():
    dims = FrameDims(100, 100)
    assert crop_rect(dims, Box(1.4, 2.6, 3.2, 2.0)) == (1, 2, 5, 5)
    assert crop_rect(dims, Box(10, 10, 5, 5)) == (10, 10, 15, 15)
    # clipped at the border
    assert crop_rect(dims, Box(-4, -4, 6, 6)) == (0, 0, 2, 2)
    assert crop_rect(dims, Box(-10, 0, 5, 5)) is None
    assert crop_rect(dims, Box(200, 0, 5, 5)) is None


def test_crop_patch():
    f = make_scene(30, 30, [(Box(10, 10, 8, 8), 2)])
    patch = crop_patch(f, Box(10, 10, 8, 8))
    assert patch.shape == (8, 8, 3)
    assert np.array_equal(patch, f.pixels[10:18, 10:18])
    with pytest.raises(ValueError):
        crop_patch(f, Box(100, 100, 5, 5))


# --- resampling ---------------------------------------------------------------


def reference_resample(gray: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """The float64 ``np.ix_`` resampler that ``media.resample`` must match bitwise."""
    in_h, in_w = gray.shape
    if (in_w, in_h) == (out_w, out_h):
        return gray.copy()
    src = gray.astype(np.float64)
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)
    fy = np.clip(ys - y0, 0.0, 1.0)
    top = src[np.ix_(y0, x0)] * (1 - fx) + src[np.ix_(y0, x1)] * fx
    bot = src[np.ix_(y1, x0)] * (1 - fx) + src[np.ix_(y1, x1)] * fx
    out = top * (1 - fy[:, None]) + bot * fy[:, None]
    return np.floor(out + 0.5).astype(np.uint8)


@st.composite
def resample_cases(draw):
    dim = st.integers(1, 200)
    in_w, in_h = draw(dim), draw(dim)
    out_w = draw(st.just(in_w) | dim)
    out_h = draw(st.just(in_h) | dim)
    # a non-contiguous input is every other column of a wider array
    step = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**32 - 1))
    base = np.random.default_rng(seed).integers(
        0, 256, size=(in_h, in_w * step), dtype=np.uint8)
    return base[:, ::step], out_w, out_h


@settings(max_examples=300, deadline=None)
@given(resample_cases())
def test_resample_matches_reference_bitwise(case):
    gray, out_w, out_h = case
    want = reference_resample(gray, out_w, out_h)
    # the second call with the same dims reads the cached plan
    for _ in range(2):
        got = resample(gray, out_w, out_h)
        assert got.dtype == np.uint8
        assert got.shape == (out_h, out_w)
        assert np.array_equal(got, want)


def test_resample_plan_is_read_only():
    for plan_of in (media._column_plan, media._row_plan):
        plan = plan_of(45, 16)
        assert len(plan) == 4
        for a in plan:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        assert plan_of(45, 16) is plan


def test_resample_plans_are_per_axis():
    # a 45x30 -> 16x20 resample reads the (45, 16) column plan and the
    # (30, 20) row plan, the ones a 45x12 -> 16x5 and a 7x30 -> 3x20 read
    media._column_plan.cache_clear()
    media._row_plan.cache_clear()
    gray = np.arange(45 * 30, dtype=np.uint8).reshape(30, 45)
    for h, w, out_w, out_h in ((12, 45, 16, 5), (30, 7, 3, 20),
                               (30, 45, 16, 20)):
        resample(gray[:h, :w], out_w, out_h)
    assert media._column_plan.cache_info().hits == 1
    assert media._row_plan.cache_info().hits == 1




def test_resample_identity_is_exact(rng):
    g = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
    out = resample(g, 13, 9)
    assert np.array_equal(out, g)
    assert out is not g  # fresh copy, safe to mutate


def test_resample_constant_invariance():
    g = np.full((7, 5), 173, dtype=np.uint8)
    assert np.all(resample(g, 16, 16) == 173)
    assert np.all(resample(g, 3, 2) == 173)


def test_resample_bounds_and_average():
    g = np.array([[0, 0], [100, 100]], dtype=np.uint8)
    out = resample(g, 1, 1)
    assert out.shape == (1, 1)
    assert out[0, 0] == 50  # pixel-center sample hits the 4-pixel average
    big = resample(g, 8, 8)
    assert big.min() >= 0 and big.max() <= 100


def test_resample_validation():
    with pytest.raises(ValueError):
        resample(np.zeros((4, 4), dtype=np.uint8), 0, 4)


# --- PNM codec ----------------------------------------------------------------


def test_ppm_round_trip(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(11, 17, 3), dtype=np.uint8)
    path = str(tmp_path / "x.ppm")
    write_pnm(path, pixels)
    assert np.array_equal(read_pnm(path), pixels)
    with open(path, "rb") as f:
        assert f.read(2) == b"P6"


def test_ppm_round_trip_of_a_strided_view(tmp_path, rng):
    # every other column: a view that is not contiguous in memory
    pixels = rng.integers(0, 256, size=(11, 34, 3), dtype=np.uint8)[:, ::2]
    assert not pixels.flags.c_contiguous
    path = str(tmp_path / "x.ppm")
    write_pnm(path, pixels)
    with open(path, "rb") as f:
        assert f.read() == b"P6\n17 11\n255\n" + pixels.tobytes()
    assert np.array_equal(read_pnm(path), pixels)


def test_pgm_round_trip(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
    path = str(tmp_path / "x.pgm")
    write_pnm(path, pixels)
    assert np.array_equal(read_pnm(path), pixels)
    with open(path, "rb") as f:
        assert f.read(2) == b"P5"


def test_read_pnm_header_comments(tmp_path):
    path = str(tmp_path / "c.pgm")
    body = bytes(range(6))
    with open(path, "wb") as f:
        f.write(b"P5 # magic\n# a comment line\n3 # width\n 2\n# more\n255\n" + body)
    out = read_pnm(path)
    assert out.shape == (2, 3)
    assert out.tobytes() == body


@pytest.mark.parametrize("content,fragment", [
    (b"P4\n2 2\n255\n" + b"\x00" * 4, "unsupported magic"),
    (b"P5\n2 2\n128\n" + b"\x00" * 4, "unsupported maxval"),
    (b"P5\n2 2\n255\n\x00", "pixel bytes"),
    (b"P5\n0 2\n255\n", "non-positive"),
    (b"P5\nx 2\n255\n" + b"\x00" * 4, "bad header field"),
    (b"P5", "truncated header"),
])
def test_read_pnm_errors_name_the_file(tmp_path, content, fragment):
    path = str(tmp_path / "bad.pgm")
    with open(path, "wb") as f:
        f.write(content)
    with pytest.raises(MediaError) as err:
        read_pnm(path)
    assert path in str(err.value)
    assert fragment in str(err.value)


def test_read_pnm_truncated_pixels_count_what_is_there(tmp_path):
    path = str(tmp_path / "short.ppm")
    with open(path, "wb") as f:
        f.write(b"P6\n3 2\n255\n" + bytes(17))
    with pytest.raises(MediaError) as err:
        read_pnm(path)
    assert str(err.value) == f"{path}: expected 18 pixel bytes, found 17"
    # the header ends at maxval: no separator byte, no pixel bytes
    with open(path, "wb") as f:
        f.write(b"P6\n3 2\n255")
    with pytest.raises(MediaError) as err:
        read_pnm(path)
    assert str(err.value) == f"{path}: expected 18 pixel bytes, found 0"


def test_read_pnm_ignores_trailing_bytes(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    path = str(tmp_path / "tail.ppm")
    write_pnm(path, pixels)
    with open(path, "ab") as f:
        f.write(b"trailing junk")
    out = read_pnm(path)
    assert out.shape == (4, 5, 3)
    assert np.array_equal(out, pixels)


def test_write_pnm_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pnm(str(tmp_path / "x.ppm"), np.zeros((4, 4, 3), dtype=np.int32))
    with pytest.raises(ValueError):
        write_pnm(str(tmp_path / "x.ppm"), np.zeros((4, 4, 4), dtype=np.uint8))


# --- sequence I/O -------------------------------------------------------------


def test_load_sequence_order_and_indices(tmp_path, rng):
    frames = [rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
              for _ in range(3)]
    # name them out of write order to prove lexicographic loading
    for name, arr in zip(["00002.ppm", "00000.ppm", "00001.ppm"],
                         [frames[2], frames[0], frames[1]]):
        write_pnm(str(tmp_path / name), arr)
    loaded = list(load_sequence(str(tmp_path)))
    assert [f.index for f in loaded] == [0, 1, 2]
    for f, arr in zip(loaded, frames):
        assert np.array_equal(f.pixels, arr)


def test_load_sequence_expands_gray(tmp_path):
    write_pnm(str(tmp_path / "0.pgm"), np.full((4, 4), 9, dtype=np.uint8))
    (frame,) = list(load_sequence(str(tmp_path)))
    assert frame.pixels.shape == (4, 4, 3)
    assert np.all(frame.pixels == 9)


def test_load_sequence_errors(tmp_path):
    with pytest.raises(MediaError):
        list(load_sequence(str(tmp_path / "missing")))
    with pytest.raises(MediaError):
        list(load_sequence(str(tmp_path)))  # no frames
    write_pnm(str(tmp_path / "0.ppm"), np.zeros((4, 4, 3), dtype=np.uint8))
    write_pnm(str(tmp_path / "1.ppm"), np.zeros((5, 4, 3), dtype=np.uint8))
    with pytest.raises(MediaError) as err:
        list(load_sequence(str(tmp_path)))
    assert "do not match" in str(err.value)


# --- annotation ---------------------------------------------------------------


def test_write_annotated_draws_outline(tmp_path):
    frame = make_scene(40, 30, [])
    path = str(tmp_path / "ann.ppm")
    write_annotated(frame, Box(10, 8, 12, 10), (0, 220, 0), path)
    out = read_pnm(path)
    assert out.shape == frame.pixels.shape
    assert not np.array_equal(out, frame.pixels)  # outline landed
    # interior untouched (2 px outline thickness)
    assert np.array_equal(out[12:14, 14:18], frame.pixels[12:14, 14:18])
