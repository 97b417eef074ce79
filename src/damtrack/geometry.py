"""Axis-aligned box arithmetic: IoU, union bounds, ROI construction, coordinate mapping."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .records import json_number


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixel coordinates, stored as top-left + size.

    Coordinates are real-valued; degenerate (non-positive or non-finite) sizes
    are rejected at construction rather than silently fixed.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError(f"box fields must be finite, got {self}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box size must be positive, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def diagonal(self) -> float:
        return math.hypot(self.w, self.h)

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "w": self.w, "h": self.h}

    @staticmethod
    def from_dict(d: dict) -> "Box":
        """Box from a JSON object whose four fields are JSON numbers."""
        return Box(*(json_number(d[k], k) for k in ("x", "y", "w", "h")))


@dataclass(frozen=True)
class Vec2:
    """2-D displacement in pixels."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError(f"vector components must be finite, got {self}")


@dataclass(frozen=True)
class FrameDims:
    """Integer frame size in pixels."""

    width: int
    height: int
    # its JSON form is the array [width, height] (see records.decode)
    JSON_ARRAY = True

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dims must be >= 1, got {self}")


def area(b: Box) -> float:
    """Box area in square pixels."""
    return b.w * b.h


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint.

    Rounding in ``x + w`` can make the intersection of two equal boxes a few
    ulps larger than their area, so the ratio is capped at 1.
    """
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = area(a) + area(b) - inter
    return min(inter / union, 1.0)


def union_bbox(boxes: list[Box]) -> Box:
    """Smallest axis-aligned box enclosing every box in a non-empty list."""
    if not boxes:
        raise ValueError("union_bbox requires at least one box")
    x1 = min(b.x for b in boxes)
    y1 = min(b.y for b in boxes)
    x2 = max(b.x2 for b in boxes)
    y2 = max(b.y2 for b in boxes)
    return Box(x1, y1, x2 - x1, y2 - y1)


def clamp_to_frame(b: Box, frame: FrameDims) -> Box:
    """Intersect a box with the frame rectangle, keeping at least 1 px per side.

    A box entirely outside the frame is pushed to the nearest border strip.
    """
    x1 = max(b.x, 0.0)
    y1 = max(b.y, 0.0)
    x2 = min(b.x2, float(frame.width))
    y2 = min(b.y2, float(frame.height))
    x1 = min(x1, frame.width - 1.0)
    y1 = min(y1, frame.height - 1.0)
    x2 = max(x2, x1 + 1.0)
    y2 = max(y2, y1 + 1.0)
    # x2 is a rounded sum, so x2 - x1 can fall an ulp short of 1
    return Box(x1, y1, max(x2 - x1, 1.0), max(y2 - y1, 1.0))


def roi_crop(prev: Box, kappa: float, frame: FrameDims) -> Box:
    """Region of interest centered on ``prev``, scaled by ``kappa`` and clamped.

    The crop keeps the previous box center and inflates each side by the crop
    scale factor before clamping to frame bounds.
    """
    if kappa < 1.0:
        raise ValueError(f"crop scale must be >= 1, got {kappa}")
    w = kappa * prev.w
    h = kappa * prev.h
    raw = Box(prev.cx - w / 2.0, prev.cy - h / 2.0, w, h)
    return clamp_to_frame(raw, frame)


def norm_displacement(a: Box, b: Box) -> float:
    """Center distance between ``a`` and ``b``, normalized by the diagonal of ``b``.

    Scale-invariant: measures displacement in units of the reference box size.
    """
    dist = math.hypot(a.cx - b.cx, a.cy - b.cy)
    return dist / b.diagonal
