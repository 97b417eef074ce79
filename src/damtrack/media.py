"""Frame representation, PPM/PGM sequence I/O, patch extraction, gray
conversion and bilinear resampling.

Patches are plain numpy arrays: RGB patches are ``(h, w, 3) uint8``, grayscale
patches ``(h, w) uint8``. A frame is never converted to gray as a whole:
``Frame.gray`` converts only the rectangle a caller reads. The conversion is
per pixel, so a window's gray equals the same window of a larger
rectangle's gray bit for bit. The one exception seen is a half-way colour
(``299r + 587g + 114b`` ending in 500) in a one-pixel-wide rectangle, whose
matmul takes another kernel that may round the tie the other way. So a
frame keeps the largest rectangle it has converted and serves any rectangle
inside it as a copy of that gray: a tracking step's search window holds the
boxes its later reads ask for, and the frame is converted once. ``Frame.is_flat`` tells a one-colour rectangle
without converting it. ``resample`` keeps its source indices and weights per
axis and length in two small caches and reads the uint8 input directly. Only
binary PPM (P6) and PGM (P5) are decoded natively; PNG support is optional
and needs Pillow.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import Box, FrameDims


class MediaError(Exception):
    """Unreadable file, malformed header, or inconsistent sequence."""


@dataclass
class Frame:
    """One RGB video frame plus its position in the sequence.

    The pixels must not change once ``gray`` has read them: the frame keeps
    the gray of the largest rectangle it has converted.
    """

    pixels: np.ndarray  # (H, W, 3) uint8
    index: int = 0
    dims: FrameDims = field(init=False, repr=False, compare=False)
    # the largest converted rectangle, as (x0, y0, x1, y1), and its gray
    _gray_rect: tuple[int, int, int, int] = field(
        default=(0, 0, 0, 0), init=False, repr=False, compare=False)
    _gray: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"frame pixels must be (H, W, 3), got {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"frame pixels must be uint8, got {self.pixels.dtype}")
        h, w = self.pixels.shape[:2]
        self.dims = FrameDims(w, h)

    def gray(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """Grayscale of the pixel rectangle [x0, x1) x [y0, y1), a fresh array.

        The corners are in ``crop_rect`` order, so ``frame.gray(*rect)``
        converts a crop rectangle. A rectangle inside the largest one
        converted so far is a copy of that gray's slice, which equals its
        own conversion but for the half-way colours the module docstring
        names; any other is converted, and kept when its area is the
        largest yet.
        """
        gx0, gy0, gx1, gy1 = self._gray_rect
        if gx0 <= x0 and gy0 <= y0 and x1 <= gx1 and y1 <= gy1:
            return self._gray[y0 - gy0:y1 - gy0, x0 - gx0:x1 - gx0].copy()
        gray = to_gray(self.pixels[y0:y1, x0:x1])
        if (x1 - x0) * (y1 - y0) > (gx1 - gx0) * (gy1 - gy0):
            self._gray_rect = (x0, y0, x1, y1)
            self._gray = gray
            return gray.copy()
        return gray

    def is_flat(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        """True when the non-empty rectangle [x0, x1) x [y0, y1) holds one
        RGB colour.

        The middle row is compared with itself shifted by one pixel, then
        every row with it. A search rectangle is centred on its target, so
        its middle row is textured even where its first row is plain
        background, and a textured rectangle usually stops after that one
        row. A one-colour rectangle has one gray level too, and costs much
        less to test this way than by converting it.
        """
        rows = self.pixels[y0:y1, x0:x1].reshape(y1 - y0, -1)
        mid = rows[(y1 - y0) // 2]
        return bool((mid[3:] == mid[:-3]).all() and (rows == mid).all())


# --- pixel math ---------------------------------------------------------------

# ITU-R BT.601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


def to_gray(patch: np.ndarray) -> np.ndarray:
    """Convert an RGB patch to 8-bit grayscale (BT.601 luma, round-half-up)."""
    luma = patch.astype(np.float64) @ _LUMA
    # in [0.5, 256), where the cast's truncation is the floor
    luma += 0.5
    return luma.astype(np.uint8)


def crop_patch(frame: Frame, box: Box) -> np.ndarray:
    """Pixels of the box/frame intersection, box rounded outward to the pixel grid."""
    rect = crop_rect(frame.dims, box)
    if rect is None:
        raise ValueError(f"box {box} does not intersect the frame")
    x0, y0, x1, y1 = rect
    return frame.pixels[y0:y1, x0:x1]


def crop_rect(dims: FrameDims, box: Box) -> tuple[int, int, int, int] | None:
    """Integer crop rectangle (x0, y0, x1, y1) covering the box, or None if disjoint."""
    x0 = max(int(math.floor(box.x)), 0)
    y0 = max(int(math.floor(box.y)), 0)
    x1 = min(int(math.ceil(box.x2)), dims.width)
    y1 = min(int(math.ceil(box.y2)), dims.height)
    if x1 <= x0 or y1 <= y0:
        return None
    return x0, y0, x1, y1


def _axis_positions(n_in: int, n_out: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each output pixel's two source pixels along one axis, and the weight
    of the second, with pixel-center alignment."""
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.clip(np.floor(pos).astype(int), 0, n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, np.clip(pos - i0, 0.0, 1.0)


def _read_only(*plan: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in plan:
        a.flags.writeable = False
    return plan


# A tracker's window follows its box and the frame border, so its input dims
# change from frame to frame while each axis sees few lengths: on the
# benchmark's workloads at most 51 column and 85 row (n_in, n_out) pairs per
# pass, which these caches hold whole.
@functools.lru_cache(maxsize=128)
def _column_plan(in_w: int, out_w: int) -> tuple[np.ndarray, ...]:
    """``x0, x1, 1 - fx, fx``: each output column's two source columns and
    their weights. The arrays are read-only because every caller shares
    them."""
    x0, x1, fx = _axis_positions(in_w, out_w)
    return _read_only(x0, x1, 1 - fx, fx)


@functools.lru_cache(maxsize=128)
def _row_plan(in_h: int, out_h: int) -> tuple[np.ndarray, ...]:
    """``span, r, 1 - fy, fy``: ``span`` holds the first source row an
    output row reads and one past the last, ``r[0]`` and ``r[1]`` are each
    output row's two source rows counted from the first, and the weights
    are columns. The arrays are read-only because every caller shares
    them."""
    y0, y1, fy = _axis_positions(in_h, out_h)
    fy = fy[:, None]
    span = np.array([y0[0], y1[-1] + 1])
    return _read_only(span, np.stack([y0, y1]) - y0[0], 1 - fy, fy)


def resample(gray: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resampling of a grayscale patch to ``out_w`` x ``out_h``.

    Uses pixel-center alignment, so identity dims reproduce the input exactly.
    Each source row in the row plan's span is interpolated across the
    columns once, straight from the uint8 input, and the output rows blend
    two of those; uint8 times float64 promotes exactly, so each output is
    the float64 value ``(a*(1-fx) + b*fx)*(1-fy) + (c*(1-fx) + d*fx)*fy``,
    rounded half up.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError("output dims must be >= 1")
    in_h, in_w = gray.shape
    if (in_w, in_h) == (out_w, out_h):
        return gray.copy()
    x0, x1, wx0, wx1 = _column_plan(in_w, out_w)
    span, r, wy0, wy1 = _row_plan(in_h, out_h)
    src = gray[span[0]:span[1]]
    across = src[:, x0] * wx0
    across += src[:, x1] * wx1
    top = across[r[0]]
    top *= wy0
    bot = across[r[1]]
    bot *= wy1
    top += bot
    # in [0.5, 256), where the cast's truncation is the floor
    top += 0.5
    return top.astype(np.uint8)


# --- PPM / PGM codec ----------------------------------------------------------


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header fields
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise MediaError("truncated header")
    return data[start:pos], pos


def read_pnm(path: str) -> np.ndarray:
    """Decode a binary PPM (P6) or PGM (P5) file.

    Returns (H, W, 3) for PPM and (H, W) for PGM, both uint8, maxval 255 only.
    The result is a read-only view over the file's bytes, not a copy; bytes
    after the pixel data are ignored.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        magic, pos = _read_header_token(data, 0)
        if magic not in (b"P5", b"P6"):
            raise MediaError(f"unsupported magic {magic!r}")
        w_tok, pos = _read_header_token(data, pos)
        h_tok, pos = _read_header_token(data, pos)
        max_tok, pos = _read_header_token(data, pos)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
        if width < 1 or height < 1:
            raise MediaError("non-positive dimensions")
        if maxval != 255:
            raise MediaError(f"unsupported maxval {maxval}")
        pos += 1  # single whitespace byte after maxval
        channels = 3 if magic == b"P6" else 1
        need = width * height * channels
        if len(data) - pos < need:
            found = max(len(data) - pos, 0)
            raise MediaError(f"expected {need} pixel bytes, found {found}")
    except MediaError as e:
        raise MediaError(f"{path}: {e}") from None
    except ValueError as e:
        raise MediaError(f"{path}: bad header field ({e})") from None
    arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


def write_pnm(path: str, pixels: np.ndarray) -> None:
    """Encode uint8 pixels as binary PPM (3-channel) or PGM (single-channel)."""
    if pixels.dtype != np.uint8:
        raise ValueError("pixels must be uint8")
    if pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
        h, w = pixels.shape[:2]
    elif pixels.ndim == 2:
        magic = b"P5"
        h, w = pixels.shape
    else:
        raise ValueError(f"unsupported pixel shape {pixels.shape}")
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        # the buffer itself: no copy of a contiguous array
        f.write(np.ascontiguousarray(pixels).data)


def _read_png(path: str) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError:
        raise MediaError(f"{path}: PNG support requires Pillow (install damtrack[png])")
    with Image.open(path) as im:
        return np.asarray(im.convert("RGB"), dtype=np.uint8)


# --- sequence I/O -------------------------------------------------------------

_SEQUENCE_EXTENSIONS = (".ppm", ".pgm", ".png")


def load_sequence(path: str) -> Iterator[Frame]:
    """Yield frames from an image directory in lexicographic filename order.

    All frames must share dimensions; grayscale inputs are expanded to RGB.
    Failures are fatal and name the offending file.
    """
    if not os.path.isdir(path):
        raise MediaError(f"not a directory: {path}")
    names = sorted(
        n for n in os.listdir(path) if n.lower().endswith(_SEQUENCE_EXTENSIONS)
    )
    if not names:
        raise MediaError(f"no frames in {path}")
    dims = None
    for index, name in enumerate(names):
        full = os.path.join(path, name)
        if name.lower().endswith(".png"):
            pixels = _read_png(full)
        else:
            pixels = read_pnm(full)
        if pixels.ndim == 2:
            pixels = np.repeat(pixels[:, :, None], 3, axis=2)
        if dims is None:
            dims = pixels.shape[:2]
        elif pixels.shape[:2] != dims:
            raise MediaError(
                f"{full}: dims {pixels.shape[1]}x{pixels.shape[0]} do not match "
                f"sequence dims {dims[1]}x{dims[0]}"
            )
        yield Frame(pixels=pixels, index=index)


# --- annotation ---------------------------------------------------------------


def draw_box_outline(pixels: np.ndarray, box: Box, color: tuple[int, int, int], thickness: int = 2) -> None:
    """Draw a box outline in place, clipped to the frame."""
    h, w = pixels.shape[:2]
    x0 = int(round(box.x))
    y0 = int(round(box.y))
    x1 = int(round(box.x2))
    y1 = int(round(box.y2))
    col = np.array(color, dtype=np.uint8)
    for t in range(thickness):
        xa, ya, xb, yb = x0 + t, y0 + t, x1 - t, y1 - t
        if xb <= xa or yb <= ya:
            break
        ys = slice(max(ya, 0), min(yb, h))
        xs = slice(max(xa, 0), min(xb, w))
        if 0 <= ya < h:
            pixels[ya, xs] = col
        if 0 <= yb - 1 < h:
            pixels[yb - 1, xs] = col
        if 0 <= xa < w:
            pixels[ys, xa] = col
        if 0 <= xb - 1 < w:
            pixels[ys, xb - 1] = col


def write_annotated(frame: Frame, box: Box, color: tuple[int, int, int],
                    path: str) -> None:
    """Write the frame as PPM with a 2-px box outline drawn on a copy."""
    canvas = frame.pixels.copy()
    draw_box_outline(canvas, box, color)
    write_pnm(path, canvas)
