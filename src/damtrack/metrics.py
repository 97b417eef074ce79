"""Tracking metrics: per-frame IoU traces, robustness, recovery, suite rollup.

Scoring conventions: frames whose ground truth is occluded carry no IoU and
are excluded from accuracy metrics. Robustness is the fraction of scored
frames above a small IoU floor, a simplified stand-in for restart-based
protocols. An occlusion event counts as recovered when the emitted box reaches
IoU 0.5 within a bounded window after the target reappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

import numpy as np

from .geometry import Box, iou
from .pipeline import TrackOutput

RECOVERY_IOU = 0.5
DEFAULT_L_MAX = 30


@dataclass
class SequenceResult:
    """Per-frame scores for one tracked sequence."""

    ious: list[float | None]  # None where ground truth is occluded
    times: list[float]  # wall-clock seconds per frame

    def __post_init__(self):
        if len(self.ious) != len(self.times):
            raise ValueError("per-frame traces must have equal lengths")


def evaluate(outputs: list[TrackOutput], gt_boxes: list[Box | None],
             times: list[float] | None = None) -> SequenceResult:
    """Score a tracked sequence against ground truth of the same length."""
    if len(outputs) != len(gt_boxes):
        raise ValueError(
            f"prediction/ground-truth length mismatch: "
            f"{len(outputs)} vs {len(gt_boxes)}"
        )
    ious: list[float | None] = []
    for out, gt in zip(outputs, gt_boxes):
        ious.append(None if gt is None else iou(out.box, gt))
    if times is None:
        times = [0.0] * len(outputs)
    return SequenceResult(ious, times)


def mean_iou(result: SequenceResult) -> float:
    scored = [v for v in result.ious if v is not None]
    if not scored:
        raise ValueError("no scored frames (all ground truth occluded)")
    return float(np.mean(scored))


def robustness(result: SequenceResult, tau_rob: float = 0.1) -> float:
    """Fraction of scored frames with IoU above tau_rob."""
    scored = [v for v in result.ious if v is not None]
    if not scored:
        raise ValueError("no scored frames (all ground truth occluded)")
    return sum(1 for v in scored if v > tau_rob) / len(scored)


@dataclass
class RecoveryStats:
    rate: float
    mean_latency: float  # over recovered events; nan when none recovered
    latencies: list[int]  # per recovered event, in frames
    recovered: int
    total: int


def recovery_stats(result: SequenceResult, events: list[tuple[int, int]],
                   l_max: int = DEFAULT_L_MAX) -> RecoveryStats:
    """Per-occlusion-event recovery within l_max frames of reappearance.

    An event's scan stops early at sequence end or when the next occlusion
    begins; such truncated events count as not recovered unless the threshold
    was reached first.
    """
    if not events:
        raise ValueError("no occlusion events to score")
    latencies: list[int] = []
    for _start, end in events:
        for k in range(l_max + 1):
            idx = end + k
            if idx >= len(result.ious) or result.ious[idx] is None:
                break
            if result.ious[idx] >= RECOVERY_IOU:
                latencies.append(k)
                break
    recovered = len(latencies)
    return RecoveryStats(
        rate=recovered / len(events),
        mean_latency=float(np.mean(latencies)) if latencies else float("nan"),
        latencies=latencies,
        recovered=recovered,
        total=len(events),
    )


def summarize(per_scenario: list[tuple[str, SequenceResult, list[tuple[int, int]]]],
              l_max: int = DEFAULT_L_MAX) -> dict:
    """Suite-level summary: scenario-averaged accuracy, pooled recovery.

    Input triples are (scenario name, result, occlusion events). Timing fields
    are reported separately so reports can be compared net of wall clock.
    """
    if not per_scenario:
        raise ValueError("empty suite")
    names = [name for name, _r, _e in per_scenario]
    if len(set(names)) != len(names):
        raise ValueError("duplicate scenario names")
    ious = []
    robs = []
    all_latencies: list[int] = []
    recovered = 0
    total_events = 0
    total_frames = 0
    total_time = 0.0
    for _name, result, events in sorted(per_scenario, key=lambda x: x[0]):
        ious.append(mean_iou(result))
        robs.append(robustness(result))
        if events:
            stats = recovery_stats(result, events, l_max)
            all_latencies.extend(stats.latencies)
            recovered += stats.recovered
            total_events += stats.total
        total_frames += len(result.times)
        total_time += sum(result.times)
    return {
        "scenarios": len(per_scenario),
        "mean_iou": float(np.mean(ious)),
        "robustness": float(np.mean(robs)),
        "recovery_rate": recovered / total_events if total_events else float("nan"),
        "recovery_mean_latency": (
            float(np.mean(all_latencies)) if all_latencies else float("nan")
        ),
        "recovery_median_latency": (
            float(median(all_latencies)) if all_latencies else float("nan")
        ),
        "events": total_events,
        "timing": {
            "fps": total_frames / total_time if total_time > 0 else float("inf"),
            "frames": total_frames,
        },
    }
