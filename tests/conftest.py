"""Shared fixtures: tiny deterministic scenes, scenario specs and HSV oracles.

All randomness is seeded; nothing here depends on wall clock or filesystem
state outside pytest's tmp_path machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

from damtrack.geometry import Box, FrameDims
from damtrack.media import Frame
from damtrack.synth import (NoiseSpec, ObjectSpec, OcclusionSpec,
                            ScenarioSpec, hash_uniform_array)


def make_block_patch(w: int, h: int, seed: int, block: int = 4,
                     lo: int = 40, hi: int = 220) -> np.ndarray:
    """Binary block-textured RGB patch; deterministic per seed."""
    nbx = -(-w // block)
    nby = -(-h // block)
    bits = hash_uniform_array(seed, (7, 7), nbx * nby) < 0.5
    mask = np.repeat(np.repeat(bits.reshape(nby, nbx), block, axis=0),
                     block, axis=1)[:h, :w]
    patch = np.where(mask[:, :, None], np.uint8(hi), np.uint8(lo))
    return np.ascontiguousarray(np.broadcast_to(patch, (h, w, 3)))


def make_scene(width: int, height: int, boxes: list[tuple[Box, int]],
               background: int = 100, index: int = 0) -> Frame:
    """Flat background with block-textured rectangles pasted at the boxes."""
    canvas = np.full((height, width, 3), background, dtype=np.uint8)
    for box, seed in boxes:
        x, y = int(box.x), int(box.y)
        w, h = int(box.w), int(box.h)
        canvas[y:y + h, x:x + w] = make_block_patch(w, h, seed)
    return Frame(canvas, index=index)


class TexturedFrame(Frame):
    """A frame that never reports a flat rectangle, so a search takes its
    full path: gray, resampling and NCC."""

    def is_flat(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        return False


def full_path_reached(*args, **kwargs):
    """Stand-in for a step a one-colour search must not reach."""
    raise AssertionError("full path reached")


# --- HSV oracles ---------------------------------------------------------------


def to_hsv(pixel) -> tuple[float, float, float]:
    """Hexcone HSV of one 8-bit RGB pixel: h in [0, 360), s and v in [0, 1].

    Hue is defined as 0 for achromatic pixels (s = 0).
    """
    r, g, b = (int(c) for c in pixel)
    mx = max(r, g, b)
    mn = min(r, g, b)
    delta = mx - mn
    v = mx / 255.0
    s = 0.0 if mx == 0 else delta / mx
    if delta == 0:
        h = 0.0
    elif mx == r:
        h = (60.0 * ((g - b) / delta)) % 360.0
    elif mx == g:
        h = 60.0 * ((b - r) / delta + 2.0)
    else:
        h = 60.0 * ((r - g) / delta + 4.0)
    return h, s, v


def hsv_channels(patch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized hexcone conversion of an RGB patch; same conventions as to_hsv.

    This is the float64 conversion ``appearance.hsv_histogram`` once binned;
    the histogram must still bin every pixel exactly as this does.
    """
    rgb = patch.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    delta = mx - mn
    safe = np.where(delta == 0, 1.0, delta)
    h = np.where(
        mx == r,
        ((g - b) / safe) % 6.0,
        np.where(mx == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0),
    )
    h = np.where(delta == 0, 0.0, 60.0 * h)
    s = np.where(mx == 0, 0.0, delta / np.where(mx == 0, 1.0, mx))
    v = mx / 255.0
    return h, s, v


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xDA47)


def tiny_scenario(name: str = "tiny", seed: int = 421, length: int = 30,
                  occ_start: int = 12, occ_len: int = 5,
                  with_distractor: bool = False,
                  noise: NoiseSpec | None = None) -> ScenarioSpec:
    """Small fast scenario: 240x180 frame, slow diagonal target, one cover."""
    target = ObjectSpec(
        color=(170, 120, 60),
        size=(24, 24),
        waypoints=((0, 40.0, 60.0), (length - 1, 40.0 + 2.0 * (length - 1), 90.0)),
    )
    distractors = ()
    if with_distractor:
        distractors = (ObjectSpec(
            color=(80, 150, 170),
            size=(24, 24),
            pattern_similarity=0.7,
            waypoints=((0, 170.0, 140.0), (length - 1, 75.0, 140.0)),
        ),)
    occlusions = ()
    if occ_len > 0:
        occlusions = (OcclusionSpec(occ_start, occ_len),)
    return ScenarioSpec(
        name=name,
        seed=seed,
        target=target,
        length=length,
        dims=FrameDims(240, 180),
        distractors=distractors,
        occlusions=occlusions,
        noise=noise or NoiseSpec(),
    )
