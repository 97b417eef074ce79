"""Dual-buffer target memory with distractor penalization.

Two bounded FIFO buffers back the tracker: a recent-appearance buffer (RAM) of
geometrically verified boxes, and a stable-anchor buffer (DRM) promoted from
RAM when appearance agrees over a sliding window. A third FIFO holds negative
(distractor) descriptors used to penalize recovery candidates.

The paper's Distractor-Resolving Memory, which stores hard negatives and
penalizes their re-selection during recovery, is ``NegativeBank`` together
with the ``gamma`` penalty of ``penalized_score``. The buffer named DRM here
holds stable anchors of the target instead, and only stage 1 of recovery
reads it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from statistics import median
from typing import Callable

from .appearance import Descriptor, cosine
from .config import PipelineConfig
from .geometry import Box, area, iou


@dataclass(frozen=True)
class RamEntry:
    box: Box
    descriptor: Descriptor
    timestamp: int


@dataclass(frozen=True)
class DrmEntry:
    box: Box
    descriptor: Descriptor
    promoted_at: int


class NegativeBank:
    """Bounded FIFO of distractor descriptors; duplicates allowed."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Descriptor] = deque(maxlen=capacity)

    def add(self, descriptor: Descriptor) -> None:
        self._items.append(descriptor)

    def max_cosine(self, descriptor: Descriptor) -> float:
        """Highest cosine to any stored negative; 0 for an empty bank."""
        best = 0.0
        for neg in self._items:
            c = cosine(descriptor, neg)
            if c > best:
                best = c
        return best

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


def score_anchor(entry: DrmEntry, b_ref: Box, phi_ref: Descriptor,
                 pi_t: float, t: int, cfg: PipelineConfig) -> float:
    """Raw anchor score: weighted IoU, appearance, motion prior, and recency."""
    if t < entry.promoted_at:
        raise ValueError(f"t={t} precedes anchor promotion time {entry.promoted_at}")
    return (
        cfg.lambda_iou * iou(entry.box, b_ref)
        + cfg.lambda_app * cosine(entry.descriptor, phi_ref)
        + cfg.lambda_mot * pi_t
        + cfg.lambda_time * math.exp(-cfg.alpha * (t - entry.promoted_at))
    )


def penalized_score(s: float, psi: Descriptor, bank: NegativeBank,
                    cfg: PipelineConfig) -> float:
    """Raw score minus gamma times the best cosine to the negative bank."""
    if len(bank) == 0:
        return s
    return s - cfg.gamma * bank.max_cosine(psi)


class DistractorAwareMemory:
    """RAM + DRM + negative bank for one tracking session.

    Every buffer is a bounded FIFO, so a long session holds constant memory.
    """

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        self.ram: deque[RamEntry] = deque(maxlen=self.cfg.ram_capacity)
        self.drm: deque[DrmEntry] = deque(maxlen=self.cfg.drm_capacity)
        self.bank = NegativeBank(self.cfg.neg_capacity)

    def median_area(self) -> float | None:
        """Median area of RAM boxes; None when RAM is empty."""
        if not self.ram:
            return None
        return float(median(area(e.box) for e in self.ram))

    def ram_admit(self, candidate: Box, descriptor: Descriptor,
                  prev: Box, t: int) -> bool:
        """Gate a candidate against the previous hypothesis and admit on pass.

        Both gates must hold: IoU to prev at least tau_in, and relative area
        deviation from the RAM median within tau_a. An empty RAM compares the
        candidate against its own area, so the area gate passes.
        """
        cfg = self.cfg
        overlap = iou(candidate, prev)
        ref_area = self.median_area()
        if ref_area is None:
            ref_area = area(candidate)
        area_dev = abs(area(candidate) - ref_area) / (ref_area + cfg.epsilon)
        admitted = overlap >= cfg.tau_in and area_dev <= cfg.tau_a
        if admitted:
            self.ram.append(RamEntry(candidate, descriptor, t))
        return admitted

    def try_promote(self, t: int) -> bool:
        """Promote the newest RAM entry into DRM if its window agrees.

        Counts entries among the last window_w RAM entries (newest included)
        whose descriptor cosine to the newest is at least tau_sim; promotion
        needs m_min agreeing entries. Anchors nearly identical to an existing
        one (cosine >= 0.98) are skipped to keep the buffer diverse.
        """
        if not self.ram:
            raise ValueError("try_promote on empty RAM")
        newest = self.ram[-1]
        if newest.timestamp != t:
            raise ValueError(f"newest RAM timestamp {newest.timestamp} != t={t}")
        cfg = self.cfg
        window = list(self.ram)[-cfg.window_w:]
        count = sum(
            1 for e in window if cosine(e.descriptor, newest.descriptor) >= cfg.tau_sim
        )
        if count < cfg.m_min or any(
                cosine(a.descriptor, newest.descriptor) >= 0.98 for a in self.drm):
            return False
        self.drm.append(DrmEntry(newest.box, newest.descriptor, t))
        return True

    def best_anchor(self, b_ref: Box, phi_ref: Descriptor,
                    pi: Callable[[Box], float],
                    t: int) -> tuple[DrmEntry, float] | None:
        """Exhaustively score every anchor; return the best if above tau_acc.

        ``pi`` maps an anchor box to its motion prior. Ties break toward the
        most recently promoted anchor. Returns None when DRM is empty or no
        score reaches the acceptance margin.
        """
        best: tuple[DrmEntry, float] | None = None
        for entry in self.drm:  # oldest to newest, so >= keeps the newest tie
            s = score_anchor(entry, b_ref, phi_ref, pi(entry.box), t, self.cfg)
            s_pen = penalized_score(s, entry.descriptor, self.bank, self.cfg)
            if best is None or s_pen >= best[1]:
                best = (entry, s_pen)
        if best is None or best[1] < self.cfg.tau_acc:
            return None
        return best

    def add_negative(self, descriptor: Descriptor) -> None:
        self.bank.add(descriptor)
