"""Kernel microbenchmarks at the sizes the workloads feed the kernels.

Each kernel runs in batches of calls; the reported figure is the median
per-call time over the batches. Inputs are seeded, like the workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from damtrack.appearance import compute_descriptor, ncc_scores
from damtrack.geometry import Box
from damtrack.media import Frame, to_gray
from damtrack.memory import NegativeBank

BATCHES = 7


def per_call_ms(fn, budget_s: float = 0.15) -> float:
    """Median over batches of one call's time, in ms."""
    fn()  # first call outside the timing: lazy imports, plan caches
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= budget_s / BATCHES:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1000.0


def _block_texture(rng: np.random.Generator, h: int, w: int, block: int = 4
                   ) -> np.ndarray:
    bits = rng.random((-(-h // block), -(-w // block))) < 0.5
    mask = np.repeat(np.repeat(bits, block, axis=0), block, axis=1)[:h, :w]
    return np.where(mask, 200, 60).astype(np.uint8)


def run_all(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    rgb_vga = rng.integers(0, 256, (480, 640, 3), dtype=np.uint8)
    rgb_720 = rng.integers(0, 256, (720, 1280, 3), dtype=np.uint8)
    # tracker: a 2.5x search window around a 44 px box, resampled to the
    # 32 px template scale, is 80 px; stage 3 searches 4x the box
    window = _block_texture(rng, 80, 80)
    template = window[24:56, 24:56].copy()
    region = _block_texture(rng, 176, 176)
    patch_tmpl = region[66:110, 66:110].copy()
    frame = Frame(rgb_vga)
    box = Box(300.0, 200.0, 44.0, 44.0)
    bank = NegativeBank(20)
    for _ in range(20):
        bank.add(compute_descriptor(
            Frame(rng.integers(0, 256, (44, 44, 3), dtype=np.uint8)),
            Box(0.0, 0.0, 44.0, 44.0)))
    probe = compute_descriptor(frame, box)
    return {
        "micro.to_gray.640x480_ms": per_call_ms(lambda: to_gray(rgb_vga)),
        "micro.to_gray.1280x720_ms": per_call_ms(lambda: to_gray(rgb_720)),
        "micro.ncc_scores.window80_t32_ms": per_call_ms(
            lambda: ncc_scores(window, template)),
        "micro.ncc_scores.region176_t44_ms": per_call_ms(
            lambda: ncc_scores(region, patch_tmpl)),
        "micro.compute_descriptor.44px_ms": per_call_ms(
            lambda: compute_descriptor(frame, box)),
        "micro.max_cosine.20_ms": per_call_ms(lambda: bank.max_cosine(probe)),
    }
