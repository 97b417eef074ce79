"""Detection provisioning: scripted replay, confidence filtering, NMS, scheduling.

The detector contract is detect(frame, roi) -> DetectionSet in full-frame
coordinates. The reference implementation replays a JSON Lines file, one
object per frame: {"t": int, "detections": [{"x","y","w","h","score"}, ...]}.
A frame index is never negative and appears at most once; frames absent
from the file have zero detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .config import PipelineConfig
from .geometry import Box, iou, roi_crop
from .media import Frame
from .records import json_int, json_number, read_jsonl, write_jsonl


@dataclass(frozen=True)
class Detection:
    box: Box
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0,1], got {self.score}")


@dataclass
class DetectionSet:
    t: int
    detections: list[Detection] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)


class DetectorInterface(Protocol):
    """Behavioral contract: boxes in full-frame coordinates, ROI-respecting."""

    def detect(self, frame: Frame, roi: Box | None = None) -> DetectionSet:
        ...


class ScriptedDetector:
    """Deterministic replay of a detections file.

    An ROI restricts the returned set to boxes intersecting it, emulating
    ROI-limited inference without re-running anything.
    """

    def __init__(self, per_frame: dict[int, list[Detection]]):
        self.per_frame = per_frame

    @classmethod
    def from_file(cls, path: str) -> "ScriptedDetector":
        return cls(read_detections_file(path))

    def detect(self, frame: Frame, roi: Box | None = None) -> DetectionSet:
        dets = self.per_frame.get(frame.index, [])
        if roi is not None:
            dets = [d for d in dets if _intersects(d.box, roi)]
        return DetectionSet(frame.index, list(dets))


def _intersects(a: Box, b: Box) -> bool:
    return a.x < b.x2 and b.x < a.x2 and a.y < b.y2 and b.y < a.y2


def read_detections_file(path: str) -> dict[int, list[Detection]]:
    per_frame: dict[int, list[Detection]] = {}

    def parse(rec: dict) -> None:
        t = json_int(rec["t"], "t")
        if t < 0 or t in per_frame:
            raise ValueError(f"frame {t} is negative or repeated")
        per_frame[t] = [Detection(Box.from_dict(d),
                                  json_number(d["score"], "score"))
                        for d in rec["detections"]]

    read_jsonl(path, "detection", parse)
    return per_frame


def write_detections_file(path: str, per_frame: dict[int, list[Detection]]) -> None:
    write_jsonl(path, (
        {"t": t,
         "detections": [{**d.box.to_dict(), "score": round(d.score, 6)}
                        for d in per_frame[t]]}
        for t in sorted(per_frame)))


def filter_confident(dets: DetectionSet, tau_s: float) -> DetectionSet:
    """Keep detections scoring at least tau_s, order preserved."""
    return DetectionSet(dets.t, [d for d in dets if d.score >= tau_s])


def nms(dets: DetectionSet, iou_thresh: float) -> DetectionSet:
    """Greedy score-descending suppression; ties keep the earlier detection."""
    order = sorted(range(len(dets.detections)),
                   key=lambda i: (-dets.detections[i].score, i))
    kept: list[Detection] = []
    for i in order:
        d = dets.detections[i]
        if all(iou(d.box, k.box) < iou_thresh for k in kept):
            kept.append(d)
    return DetectionSet(dets.t, kept)


def schedule(t: int, delta: int, occ_prev: bool) -> bool:
    """Whether to run detection this frame.

    Detection runs on stride frames or always while the previous frame ended
    occluded; the caller also passes ``occ_prev`` to ``provide`` as
    ``full_frame``, so occlusion forces the full-frame pass (no ROI).
    """
    if t < 0 or delta < 1:
        raise ValueError("t must be >= 0 and delta >= 1")
    return (t % delta == 0) or occ_prev


def provide(detector: DetectorInterface, frame: Frame, prev_box: Box,
            run: bool, full_frame: bool, last_set: DetectionSet,
            cfg: PipelineConfig) -> DetectionSet:
    """Fresh filtered detections when scheduled, otherwise the stale set."""
    if not run:
        return last_set
    roi = None if full_frame else roi_crop(prev_box, cfg.kappa, frame.dims)
    raw = detector.detect(frame, roi)
    return nms(filter_confident(raw, cfg.tau_s), cfg.nms_iou)
