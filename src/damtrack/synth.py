"""Deterministic synthetic scenarios: textured targets, distractors, occluders.

All randomness flows from SplitMix64, a tiny counter-based generator with a
documented state update, so identical specs produce byte-identical frames and
detection files on any platform. Frames are rendered lazily, one at a time;
ground truth, detections, and occlusion events are computed without pixels.

Scene model: a flat background; a target and up to a few distractor
rectangles with binary block textures moving along piecewise-linear waypoint
trajectories; flat static occluder rectangles sized to cover the target's path
over declared occlusion windows. Featureless regions are deliberate: the
template tracker's correlation is contrast-invariant, so any background
texture would match a lost template about as well as weak clutter does, and
confidence would never collapse when the target is hidden. Target textures can evolve slowly (random
block flips) so appearance drifts over the sequence. The scripted detections
carry center/size jitter, occasional false positives, guaranteed misses while
the target is fully covered, and an optional post-occlusion blackout that
models detector re-acquisition delay.

A spec file is read by ``records.decode`` from the field types of the spec
classes. The classes check their own ranges, so a spec built in Python is
held to the same rules as one read from a file.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

import numpy as np

from .detection import Detection, write_detections_file
from .geometry import Box, FrameDims
from .media import Frame, write_pnm
from .records import (decode, json_int, read_json, read_jsonl, write_json,
                      write_jsonl)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: the full avalanche of one 64-bit state word."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Sequential stream: state += golden ratio; output = mix(state)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return _mix64(self.state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self, sigma: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z * sigma
        # Box-Muller; u1 nudged away from 0
        u1 = max(self.uniform(), 2.0 ** -53)
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2) * sigma


def hash_u64(seed: int, *tags: int) -> int:
    """Stateless counter hash: fold each tag through the mixer."""
    x = seed & MASK64
    for tag in tags:
        x = _mix64((x + (tag & MASK64)) & MASK64)
    return x


def hash_uniform_array(seed: int, tags: tuple[int, ...], n: int) -> np.ndarray:
    """n deterministic uniforms in [0,1) indexed 0..n-1 under the tag chain."""
    base = np.uint64(hash_u64(seed, *tags))
    idx = (np.arange(n, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
    with np.errstate(over="ignore"):
        x = base + idx
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


# --- scenario specification ---------------------------------------------------

# tag namespaces for the stateless hashes
_TAG_PATTERN = 2
_TAG_EVOLVE = 3
_TAG_DEVIATION = 4
_SALT_DETECTIONS = 0x5DE7EC7103B5


@dataclass(frozen=True)
class ObjectSpec:
    """A textured moving rectangle; waypoints are (frame, cx, cy) knots.

    With pattern_similarity set, the object renders the target's current
    block pattern with a fixed random fraction (1 - similarity) of blocks
    inverted, and it follows the target's evolution in lockstep. That keeps
    the mean-removed pattern correlation pinned near 2*similarity - 1 for
    the whole sequence, instead of starting at zero for an independent
    pattern or decaying as the two evolve apart.
    """

    color: tuple[int, int, int]
    size: tuple[int, int] = (44, 44)
    texture_amp: float = 0.85
    block: int = 4
    evolve_rate: float = 0.0  # per-block flip probability per frame
    pattern_similarity: float | None = None
    waypoints: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not self.waypoints:
            raise ValueError("object needs at least one waypoint")
        _check_color(self.color)
        if min(self.size) < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {self.block}")
        if not 0.0 <= self.evolve_rate <= 1.0:
            raise ValueError(
                f"evolve_rate must be in [0,1], got {self.evolve_rate}")
        if not 0.0 <= self.texture_amp <= 1.0:
            raise ValueError("texture_amp must be in [0,1]")
        if self.pattern_similarity is not None:
            if not 0.0 <= self.pattern_similarity <= 1.0:
                raise ValueError("pattern_similarity must be in [0,1]")
            if self.evolve_rate > 0.0:
                raise ValueError(
                    "pattern_similarity already tracks the target's "
                    "evolution; evolve_rate must stay 0")


BACKGROUND_COLOR = (98, 102, 114)


def _check_color(color: tuple[int, int, int]) -> None:
    if min(color) < 0 or max(color) > 255:
        raise ValueError(f"color channels must be in [0,255], got {color}")


@dataclass(frozen=True)
class OcclusionSpec:
    """A flat cover over the target's path for a window of frames.

    The cover exists only while its window is active, like a blocking object
    that arrives and departs. Both edges of the event are therefore abrupt: a
    cover drawn for the whole sequence would instead reveal a moving target
    one column per frame, stretching reappearance over dozens of frames.

    The default color equals the background, which makes a covered region
    featureless. That is load-bearing: the tracker's correlation confidence is
    contrast-invariant, so a cover with visible edges would still correlate
    with a lost template and confidence would never collapse.
    """

    start: int
    duration: int
    pad: int = 8
    color: tuple[int, int, int] = BACKGROUND_COLOR

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")
        _check_color(self.color)


@dataclass(frozen=True)
class NoiseSpec:
    center_sigma: float = 0.0
    size_sigma: float = 0.0
    fp_rate: float = 0.0
    miss_rate: float = 0.0  # random misses on visible frames
    blackout: int = 0  # detector re-acquisition delay after each occlusion

    def __post_init__(self):
        # negated, so that a NaN fails too
        for name in ("center_sigma", "size_sigma"):
            v = getattr(self, name)
            if not v >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        for name in ("fp_rate", "miss_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.blackout < 0:
            raise ValueError(f"blackout must be >= 0, got {self.blackout}")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    target: ObjectSpec
    length: int = 110
    dims: FrameDims = field(default_factory=lambda: FrameDims(640, 480))
    distractors: tuple[ObjectSpec, ...] = ()
    occlusions: tuple[OcclusionSpec, ...] = ()
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("scenario needs at least 2 frames")
        for occ in self.occlusions:
            if occ.start + occ.duration > self.length:
                raise ValueError(f"occlusion window [{occ.start}, "
                                 f"{occ.start + occ.duration}) outside scenario")
        # the covered flag tests each cover on its own, so two covers active
        # at once could hide the target without either containing it
        spans = sorted((o.start, o.start + o.duration) for o in self.occlusions)
        for (_, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ValueError("occlusion windows overlap in time")


MAX_SPEED = 4.0  # px/frame ceiling for scripted paths; the tracked target stays well below


def _positions(obj: ObjectSpec, length: int) -> np.ndarray:
    """Per-frame centers (length, 2) from piecewise-linear waypoints."""
    pts = sorted(obj.waypoints)
    ts = np.array([p[0] for p in pts], dtype=np.float64)
    cxs = np.array([p[1] for p in pts], dtype=np.float64)
    cys = np.array([p[2] for p in pts], dtype=np.float64)
    t = np.arange(length, dtype=np.float64)
    return np.stack([np.interp(t, ts, cxs), np.interp(t, ts, cys)], axis=1)


def _boxes_for(obj: ObjectSpec, spec: ScenarioSpec, label: str) -> list[Box]:
    centers = _positions(obj, spec.length)
    speeds = np.hypot(*np.diff(centers, axis=0).T)
    if speeds.size and speeds.max() > MAX_SPEED + 1e-9:
        bad = int(np.argmax(speeds)) + 1
        raise ValueError(f"{spec.name}: {label} exceeds {MAX_SPEED} px/frame "
                         f"at frame {bad}")
    w, h = obj.size
    boxes = []
    for t in range(spec.length):
        x = math.floor(centers[t, 0] - w / 2.0 + 0.5)
        y = math.floor(centers[t, 1] - h / 2.0 + 0.5)
        if x < 0 or y < 0 or x + w > spec.dims.width or y + h > spec.dims.height:
            raise ValueError(f"{spec.name}: {label} leaves the frame at frame {t}")
        boxes.append(Box(float(x), float(y), float(w), float(h)))
    return boxes


def _inside_rect(b: Box, rect: tuple[int, int, int, int]) -> bool:
    x0, y0, x1, y1 = rect
    return b.x >= x0 and b.y >= y0 and b.x2 <= x1 and b.y2 <= y1


def _covering(spec: ScenarioSpec, rects: list[tuple[int, int, int, int]],
              t: int, b: Box) -> bool:
    """True when an active cover fully hides box b at frame t."""
    return any(o.start <= t < o.start + o.duration and _inside_rect(b, r)
               for o, r in zip(spec.occlusions, rects))


@dataclass
class ScenarioOutput:
    """Everything a tracking run needs; frames() yields them lazily."""

    spec: ScenarioSpec
    gt_boxes: list[Box]
    occluded: list[bool]
    detections: dict[int, list[Detection]]
    events: list[tuple[int, int]]  # derived [start, end) occlusion intervals
    occluder_rects: list[tuple[int, int, int, int]]
    frames: Callable[[], Iterator[Frame]]

    @property
    def init_box(self) -> Box:
        return self.gt_boxes[0]


def generate(spec: ScenarioSpec) -> ScenarioOutput:
    """Build a scenario: boxes, occlusion events, detections, lazy frames."""
    for i, d in enumerate(spec.distractors):
        if d.pattern_similarity is not None and (
                d.size != spec.target.size or d.block != spec.target.block):
            raise ValueError(
                f"{spec.name}: distractor {i} shares the target's pattern "
                "but not its size and block grid")
    gt_boxes = _boxes_for(spec.target, spec, "target")
    distractor_boxes = [
        _boxes_for(d, spec, f"distractor {i}")
        for i, d in enumerate(spec.distractors)
    ]

    # occluders cover the target's path over each declared window, plus padding
    rects = []
    for occ in spec.occlusions:
        window = gt_boxes[occ.start:occ.start + occ.duration]
        x0 = min(b.x for b in window) - occ.pad
        y0 = min(b.y for b in window) - occ.pad
        x1 = max(b.x2 for b in window) + occ.pad
        y1 = max(b.y2 for b in window) + occ.pad
        rects.append((
            max(int(x0), 0), max(int(y0), 0),
            min(int(math.ceil(x1)), spec.dims.width),
            min(int(math.ceil(y1)), spec.dims.height),
        ))
    occluded = [
        _covering(spec, rects, t, b) for t, b in enumerate(gt_boxes)
    ]
    events: list[tuple[int, int]] = []
    t = 0
    while t < spec.length:
        if occluded[t]:
            start = t
            while t < spec.length and occluded[t]:
                t += 1
            events.append((start, t))
        else:
            t += 1

    detections = _script_detections(spec, gt_boxes, distractor_boxes,
                                    occluded, events, rects)

    def frames() -> Iterator[Frame]:
        return _render_frames(spec, gt_boxes, distractor_boxes, rects)

    return ScenarioOutput(spec, gt_boxes, occluded, detections, events,
                          rects, frames)


# --- detections ---------------------------------------------------------------


def _script_detections(spec: ScenarioSpec, gt_boxes: list[Box],
                       distractor_boxes: list[list[Box]],
                       occluded: list[bool], events: list[tuple[int, int]],
                       rects: list[tuple[int, int, int, int]],
                       ) -> dict[int, list[Detection]]:
    rng = SplitMix64(hash_u64(spec.seed, _SALT_DETECTIONS))
    noise = spec.noise
    blackout: set[int] = set()
    for _start, end in events:
        blackout.update(range(end, min(end + noise.blackout, spec.length)))

    def jittered(box: Box, base_score: float) -> Detection:
        dx = rng.normal(noise.center_sigma)
        dy = rng.normal(noise.center_sigma)
        dw = rng.normal(noise.size_sigma)
        dh = rng.normal(noise.size_sigma)
        w = max(box.w + dw, 4.0)
        h = max(box.h + dh, 4.0)
        x = min(max(box.x + dx, 0.0), spec.dims.width - w)
        y = min(max(box.y + dy, 0.0), spec.dims.height - h)
        score = min(max(base_score + rng.normal(0.02), 0.5), 0.99)
        return Detection(Box(x, y, w, h), round(score, 6))

    per_frame: dict[int, list[Detection]] = {}
    for t in range(spec.length):
        dets: list[Detection] = []
        miss = rng.uniform() < noise.miss_rate
        if not occluded[t] and t not in blackout and not miss:
            dets.append(jittered(gt_boxes[t], 0.92))
        for boxes in distractor_boxes:
            b = boxes[t]
            covered = _covering(spec, rects, t, b)
            if not covered and rng.uniform() >= noise.miss_rate:
                dets.append(jittered(b, 0.88))
        if rng.uniform() < noise.fp_rate:
            w = spec.target.size[0] * (0.8 + 0.4 * rng.uniform())
            h = spec.target.size[1] * (0.8 + 0.4 * rng.uniform())
            x = rng.uniform() * (spec.dims.width - w)
            y = rng.uniform() * (spec.dims.height - h)
            score = round(0.5 + 0.3 * rng.uniform(), 6)
            dets.append(Detection(Box(x, y, w, h), score))
        per_frame[t] = dets
    return per_frame


# --- rendering ----------------------------------------------------------------


def _render_background(spec: ScenarioSpec) -> np.ndarray:
    # flat: featureless regions must score zero tracker correlation, so a
    # hidden target collapses confidence instead of matching clutter
    w, h = spec.dims.width, spec.dims.height
    base = np.array(BACKGROUND_COLOR, dtype=np.uint8)
    return np.broadcast_to(base, (h, w, 3)).copy()


def _object_colors(obj: ObjectSpec) -> tuple[np.ndarray, np.ndarray]:
    base = np.array(obj.color, dtype=np.float64)
    lo = np.clip(np.floor(base * (1.0 - obj.texture_amp) + 0.5), 0, 255)
    hi = np.clip(np.floor(base * (1.0 + obj.texture_amp) + 0.5), 0, 255)
    return lo.astype(np.uint8), hi.astype(np.uint8)


def _initial_pattern(spec: ScenarioSpec, obj_index: int,
                     obj: ObjectSpec) -> np.ndarray:
    w, h = obj.size
    nbx = -(-w // obj.block)
    nby = -(-h // obj.block)
    bits = hash_uniform_array(spec.seed, (_TAG_PATTERN, obj_index),
                              nbx * nby) < 0.5
    return bits.reshape(nby, nbx)


def _render_frames(spec: ScenarioSpec, gt_boxes: list[Box],
                   distractor_boxes: list[list[Box]],
                   rects: list[tuple[int, int, int, int]]) -> Iterator[Frame]:
    background = _render_background(spec)
    objects = list(spec.distractors) + [spec.target]
    tracks = distractor_boxes + [gt_boxes]
    patterns = [_initial_pattern(spec, i, o) for i, o in enumerate(objects)]
    colors = [_object_colors(o) for o in objects]
    target_idx = len(objects) - 1
    deviations = {}
    for i, obj in enumerate(spec.distractors):
        if obj.pattern_similarity is not None:
            dev = hash_uniform_array(
                spec.seed, (_TAG_DEVIATION, i), patterns[target_idx].size
            ) < (1.0 - obj.pattern_similarity)
            deviations[i] = dev.reshape(patterns[target_idx].shape)
    for t in range(spec.length):
        if t > 0:
            for i, obj in enumerate(objects):
                if obj.evolve_rate > 0.0:
                    flips = hash_uniform_array(
                        spec.seed, (_TAG_EVOLVE, i, t), patterns[i].size
                    ) < obj.evolve_rate
                    patterns[i] ^= flips.reshape(patterns[i].shape)
        for i, dev in deviations.items():
            patterns[i] = patterns[target_idx] ^ dev
        canvas = background.copy()
        for i, obj in enumerate(objects):
            box = tracks[i][t]
            x, y = int(box.x), int(box.y)
            w, h = int(box.w), int(box.h)
            mask = np.repeat(np.repeat(patterns[i], obj.block, axis=0),
                             obj.block, axis=1)[:h, :w]
            lo, hi = colors[i]
            canvas[y:y + h, x:x + w] = np.where(mask[:, :, None], hi, lo)
        for (x0, y0, x1, y1), occ in zip(rects, spec.occlusions):
            if occ.start <= t < occ.start + occ.duration:
                canvas[y0:y1, x0:x1] = np.array(occ.color, dtype=np.uint8)
        yield Frame(canvas, index=t)


# --- standard suite -----------------------------------------------------------

_DISTRACTOR_BASES = [(60, 120, 170), (80, 160, 80), (150, 70, 150)]

# every window starts at 45 or later so the early crossing has cleared the
# target's neighborhood before the tracker can go blind; the three-window
# arrangement needs the longer sequence to fit the last window plus a
# scoreable recovery tail
_OCC_WINDOWS = {
    1: ((45, 12),),
    2: ((45, 10), (85, 12)),
    3: ((45, 8), (83, 8), (121, 9)),
}
_LENGTHS = {1: 110, 2: 110, 3: 150}

CROSS_FRAME = 19
_CROSS_V = (0.4, 3.8)  # crossing leg; vertical sign opposes the target drift
# the crosser parks about 103 px from the crossing point: still close enough
# to keep feeding the negative bank while the scene is calm, but past the
# locality gate of every recovery stage by the time the first cover lands,
# so reacquisition always has to argue appearance against the true corridor
_CROSS_PARK = 27

_VARIANTS = [
    # (similarity, center_sigma, size_sigma, fp_rate, miss_rate, blackout)
    (0.60, 0.8, 0.5, 0.00, 0.00, 2),
    (0.75, 1.2, 0.8, 0.05, 0.03, 4),
    (0.90, 1.5, 1.0, 0.10, 0.05, 5),
]

TARGET_COLOR = (170, 120, 60)
# fast enough that a reference frozen at frame 0 no longer matches by the
# second occlusion, while a reference refreshed every few frames always does
EVOLVE_RATE = 0.012


def _lerp_color(base: tuple[int, int, int], toward: tuple[int, int, int],
                s: float) -> tuple[int, int, int]:
    return tuple(int(round((1 - s) * b + s * t)) for b, t in zip(base, toward))


def _target_spec(y0: float, y1: float, length: int) -> ObjectSpec:
    # 2 px/frame: half of MAX_SPEED, far inside the tracker search margin
    # (0.75 box widths per side)
    return ObjectSpec(
        color=TARGET_COLOR,
        evolve_rate=EVOLVE_RATE,
        waypoints=((0, 100.0, y0), (length - 1, 100.0 + 2.0 * (length - 1), y1)),
    )


def _distractor_specs(n: int, similarity: float, target: ObjectSpec,
                      length: int) -> tuple[ObjectSpec, ...]:
    target_pos = _positions(target, length)
    specs: list[ObjectSpec] = []
    for i in range(n):
        color = _lerp_color(_DISTRACTOR_BASES[i], TARGET_COLOR, similarity)
        if i == 1:
            # crosses the target's path early, against its vertical drift,
            # then parks clear of every later occlusion approach
            fc = CROSS_FRAME
            cx, cy = float(target_pos[fc, 0]), float(target_pos[fc, 1])
            vx = _CROSS_V[0]
            rising = float(target_pos[-1, 1]) < float(target_pos[0, 1])
            vy = _CROSS_V[1] if rising else -_CROSS_V[1]
            px = cx + _CROSS_PARK * vx
            py = cy + _CROSS_PARK * vy
            specs.append(ObjectSpec(
                color=color,
                pattern_similarity=similarity,
                waypoints=(
                    (0, cx - fc * vx, cy - fc * vy),
                    (fc, cx, cy),
                    (fc + _CROSS_PARK, px, py),
                    (length - 1, px, py),
                ),
            ))
        else:
            dy = 118.0 if i == 0 else -132.0
            y_start = float(target_pos[0, 1]) + dy
            y_end = float(target_pos[-1, 1]) + dy
            specs.append(ObjectSpec(
                color=color,
                pattern_similarity=similarity,
                waypoints=((0, 420.0, y_start), (length - 1, 170.0, y_end)),
            ))
    return tuple(specs)


def standard_suite() -> list[ScenarioSpec]:
    """The fixed 30-scenario benchmark: distractor count x occlusion count
    x noise/similarity variant, plus three steeper-trajectory extras."""
    specs: list[ScenarioSpec] = []
    slopes = [(240.0, 240.0), (210.0, 270.0), (270.0, 210.0)]
    combos = [(nd, no) for nd in (1, 2, 3) for no in (1, 2, 3)]
    combos += [(2, 2)]  # extra structure for the three steeper variants
    for idx, (nd, no) in enumerate(combos):
        for v, (sim, c_sig, s_sig, fp, miss, blackout) in enumerate(_VARIANTS):
            if idx < 9:
                y0, y1 = slopes[v]
            else:
                y0, y1 = (190.0, 300.0) if v != 2 else (300.0, 190.0)
            length = _LENGTHS[no]
            seed = 1000 + (idx * 3 + v) * 7919
            target = _target_spec(y0, y1, length)
            specs.append(ScenarioSpec(
                name=f"scen{idx * 3 + v:02d}_d{nd}_o{no}_v{v}",
                seed=seed,
                target=target,
                length=length,
                distractors=_distractor_specs(nd, sim, target, length),
                occlusions=tuple(OcclusionSpec(s, d) for s, d in _OCC_WINDOWS[no]),
                noise=NoiseSpec(c_sig, s_sig, fp, miss, blackout),
            ))
    return specs


# --- disk layout --------------------------------------------------------------


def write_scenario(out: ScenarioOutput, directory: str) -> None:
    """Write frames/, detections.jsonl, gt.jsonl, and events.json."""
    frames_dir = os.path.join(directory, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    for frame in out.frames():
        write_pnm(os.path.join(frames_dir, f"{frame.index:05d}.ppm"),
                  frame.pixels)
    write_detections_file(os.path.join(directory, "detections.jsonl"),
                          out.detections)
    write_jsonl(os.path.join(directory, "gt.jsonl"), (
        {"t": t, "occluded": True} if occ else {"t": t, "box": box.to_dict()}
        for t, (box, occ) in enumerate(zip(out.gt_boxes, out.occluded))))
    write_json(os.path.join(directory, "events.json"),
               {"occlusions": [{"start": s, "end": e} for s, e in out.events]})


def read_gt_file(path: str) -> tuple[list[Box | None], list[bool]]:
    """Ground-truth boxes (None when occluded) and the occlusion flags."""
    boxes: list[Box | None] = []
    occluded: list[bool] = []

    def parse(rec: dict) -> None:
        if json_int(rec["t"], "t") != len(boxes):
            raise ValueError("non-contiguous frame index")
        hidden = rec.get("occluded", False)
        if not isinstance(hidden, bool):
            raise TypeError(f"occluded must be true or false, got {hidden!r}")
        boxes.append(None if hidden else Box.from_dict(rec["box"]))
        occluded.append(hidden)

    read_jsonl(path, "ground-truth", parse)
    if not boxes:
        raise ValueError(f"{path}: empty ground-truth file")
    return boxes, occluded


def read_events_file(path: str, length: int | None = None
                     ) -> list[tuple[int, int]]:
    """Occlusion events as (start, end) frame pairs, 0 <= start < end.

    Given the sequence length, an occlusion that ends past it is an error
    too: it could never count as recovered.
    """
    events = read_json(path, "events file", lambda data: [
        (json_int(e["start"], "start"), json_int(e["end"], "end"))
        for e in data["occlusions"]])
    if not all(0 <= start < end for start, end in events):
        raise ValueError(f"{path}: bad events file: every occlusion needs "
                         f"0 <= start < end")
    if length is not None and any(end > length for _start, end in events):
        raise ValueError(f"{path}: bad events file: an occlusion ends past "
                         f"the {length} frames")
    return events


# --- spec (de)serialization ---------------------------------------------------


def scenario_spec_from_dict(data: dict) -> ScenarioSpec:
    """A ScenarioSpec from its JSON form; errors name the dotted path."""
    return decode(ScenarioSpec, data, "scenario")


def scenario_spec_to_dict(spec: ScenarioSpec) -> dict:
    """The JSON form: the fields by name, with dims as [width, height]."""
    data = asdict(spec)
    data["dims"] = [spec.dims.width, spec.dims.height]
    return data
