"""Seeded workload definitions and their set-up.

Every workload is a list of scenario specs built from the workload seed; the
program only ever sees the generated scenarios. Why each workload exists:

- ``standard``: the 30-scenario reference suite at 640x480, the mixed
  traffic users run. Seed 0 is exactly ``standard_suite()``; other seeds
  re-seed every scenario's textures, evolution and detector noise while
  keeping the suite's geometry.
- ``cruise_720p``: long 1280x720 sequences with no covers. A turning target
  and two parked look-alikes: the stable path at high resolution, where
  full-frame gray conversion dominates and recovery never runs.
- ``cover_dense_qvga``: 320x240 sequences with a 14-frame cover every 28
  frames and a parked look-alike. Recovery-heavy, with little full-frame
  gray work, so it bypasses a gray-conversion change.
- ``disk_replay``: three standard scenarios written to disk at set-up and
  replayed through ``load_sequence`` and ``ScriptedDetector.from_file``,
  the only workload where frame decoding runs.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from damtrack.detection import ScriptedDetector
from damtrack.geometry import Box, FrameDims
from damtrack.media import Frame, load_sequence
from damtrack.synth import (EVOLVE_RATE, TARGET_COLOR, NoiseSpec, ObjectSpec,
                            OcclusionSpec, ScenarioOutput, ScenarioSpec,
                            SplitMix64, generate, hash_u64, read_events_file,
                            read_gt_file, standard_suite, write_scenario)

# odd 64-bit stride: seed n shifts every standard scenario seed by n strides,
# so seed 0 leaves the reference suite untouched
SEED_STRIDE = 0x9E3779B97F4A7C15
_TAG_CRUISE = 0xC801
_TAG_COVER = 0xC0E4

# the three 150-frame standard scenarios with one distractor and three covers
DISK_SCENARIOS = ("scen06_d1_o3_v0", "scen07_d1_o3_v1", "scen08_d1_o3_v2")


@dataclass
class Scenario:
    """One closed-loop tracking job: frames, init box, detector, scoring data."""

    name: str
    length: int
    init_box: Box
    frames: Callable[[], Iterator[Frame]]
    detector: Callable[[], ScriptedDetector]
    gt: list[Box | None]  # None where the target is covered
    events: list[tuple[int, int]]
    dims: FrameDims
    from_disk: bool = False


def _reseeded(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    return replace(spec, seed=(spec.seed + seed * SEED_STRIDE) & ((1 << 64) - 1))


def standard_specs(seed: int) -> list[ScenarioSpec]:
    return [_reseeded(s, seed) for s in standard_suite()]


def disk_specs(seed: int) -> list[ScenarioSpec]:
    return [s for s in standard_specs(seed) if s.name in DISK_SCENARIOS]


def _turning_path(rng: SplitMix64, length: int, knot_every: int,
                  bounds: tuple[float, float, float, float],
                  step: tuple[float, float]) -> tuple[tuple[int, float, float], ...]:
    """Waypoints that turn by 45-135 degrees at every knot, kept in bounds."""
    x0, y0, x1, y1 = bounds
    x = x0 + (x1 - x0) * (0.3 + 0.4 * rng.uniform())
    y = y0 + (y1 - y0) * (0.3 + 0.4 * rng.uniform())
    heading = 2.0 * math.pi * rng.uniform()
    knots = [(0, x, y)]
    t = 0
    while t < length - 1:
        t = min(t + knot_every, length - 1)
        span = step[0] + (step[1] - step[0]) * rng.uniform()
        turn = math.radians(45.0 + 90.0 * rng.uniform())
        heading += turn if rng.uniform() < 0.5 else -turn
        nx = x + span * math.cos(heading)
        ny = y + span * math.sin(heading)
        # reflect off the bounds, turning the heading with the reflection
        if not x0 <= nx <= x1:
            nx = min(max(2 * x0 - nx if nx < x0 else 2 * x1 - nx, x0), x1)
            heading = math.pi - heading
        if not y0 <= ny <= y1:
            ny = min(max(2 * y0 - ny if ny < y0 else 2 * y1 - ny, y0), y1)
            heading = -heading
        x, y = nx, ny
        knots.append((t, round(x, 2), round(y, 2)))
    return tuple(knots)


def _path_centers(path: tuple[tuple[int, float, float], ...],
                  length: int) -> list[tuple[float, float]]:
    """Per-frame centers of a piecewise-linear waypoint path."""
    out = []
    for (t0, x0, y0), (t1, x1, y1) in zip(path, path[1:]):
        for t in range(t0, t1):
            f = (t - t0) / (t1 - t0)
            out.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
    out.append(path[-1][1:])
    return out[:length]


def _parked_spot(rng: SplitMix64, centers: list[tuple[float, float]],
                 bounds: tuple[float, float, float, float], clearance: float,
                 taken: list[tuple[float, float]]) -> tuple[float, float]:
    """A point at least ``clearance`` px from every path center and taken spot."""
    x0, y0, x1, y1 = bounds
    for _ in range(10_000):
        px = round(x0 + (x1 - x0) * rng.uniform(), 2)
        py = round(y0 + (y1 - y0) * rng.uniform(), 2)
        if all(math.hypot(px - qx, py - qy) >= clearance
               for qx, qy in centers + taken):
            return px, py
    raise ValueError("no parking spot clear of the target path")


def _look_alike(color: tuple[int, int, int], similarity: float,
                spot: tuple[float, float], length: int) -> ObjectSpec:
    s = similarity
    mixed = tuple(int(round((1 - s) * c + s * t))
                  for c, t in zip(color, TARGET_COLOR))
    return ObjectSpec(color=mixed, pattern_similarity=similarity,
                      waypoints=((0, *spot), (length - 1, *spot)))


CRUISE_DIMS = FrameDims(1280, 720)
CRUISE_SCENARIOS = 3
CRUISE_LENGTH = 400


def cruise_specs(seed: int) -> list[ScenarioSpec]:
    """Long uncovered 720p sequences: a turning target, two parked look-alikes."""
    specs = []
    for i in range(CRUISE_SCENARIOS):
        rng = SplitMix64(hash_u64(seed, _TAG_CRUISE, i))
        path = _turning_path(rng, CRUISE_LENGTH, 100, (80.0, 80.0, 1200.0, 640.0),
                             (150.0, 250.0))
        centers = _path_centers(path, CRUISE_LENGTH)
        taken: list[tuple[float, float]] = []
        for _ in range(2):
            taken.append(_parked_spot(rng, centers, (60.0, 60.0, 1220.0, 660.0),
                                      200.0, taken))
        specs.append(ScenarioSpec(
            name=f"cruise{i:02d}",
            seed=hash_u64(seed, _TAG_CRUISE, i, 1),
            target=ObjectSpec(color=TARGET_COLOR, evolve_rate=EVOLVE_RATE,
                              waypoints=path),
            length=CRUISE_LENGTH,
            dims=CRUISE_DIMS,
            distractors=(_look_alike((60, 120, 170), 0.75, taken[0], CRUISE_LENGTH),
                         _look_alike((80, 160, 80), 0.60, taken[1], CRUISE_LENGTH)),
            noise=NoiseSpec(center_sigma=1.2, size_sigma=0.8, fp_rate=0.05,
                            miss_rate=0.03),
        ))
    return specs


COVER_DIMS = FrameDims(320, 240)
COVER_SCENARIOS = 12
COVER_LENGTH = 200
COVER_PERIOD = 28
COVER_DURATION = 14
COVER_EVOLVE_RATE = 0.006


def cover_specs(seed: int) -> list[ScenarioSpec]:
    """Short-period covers over a slow turning target at 320x240."""
    first = 30
    starts = range(first, COVER_LENGTH - COVER_DURATION - 16 + 1, COVER_PERIOD)
    specs = []
    for i in range(COVER_SCENARIOS):
        rng = SplitMix64(hash_u64(seed, _TAG_COVER, i))
        path = _turning_path(rng, COVER_LENGTH, 50, (40.0, 40.0, 190.0, 200.0),
                             (60.0, 100.0))
        centers = _path_centers(path, COVER_LENGTH)
        spot = _parked_spot(rng, centers, (250.0, 30.0, 290.0, 210.0), 75.0, [])
        specs.append(ScenarioSpec(
            name=f"cover{i:02d}",
            seed=hash_u64(seed, _TAG_COVER, i, 1),
            target=ObjectSpec(color=TARGET_COLOR, evolve_rate=COVER_EVOLVE_RATE,
                              waypoints=path),
            length=COVER_LENGTH,
            dims=COVER_DIMS,
            distractors=(_look_alike((60, 120, 170), 0.60, spot, COVER_LENGTH),),
            occlusions=tuple(OcclusionSpec(s, COVER_DURATION) for s in starts),
            noise=NoiseSpec(center_sigma=0.8, size_sigma=0.5, blackout=3),
        ))
    return specs


def _from_output(out: ScenarioOutput) -> Scenario:
    return Scenario(
        name=out.spec.name,
        length=out.spec.length,
        init_box=out.init_box,
        frames=out.frames,
        detector=lambda: ScriptedDetector(out.detections),
        gt=[None if occ else box for box, occ in zip(out.gt_boxes, out.occluded)],
        events=list(out.events),
        dims=out.spec.dims,
    )


def _from_disk(path: str, name: str, dims: FrameDims) -> Scenario:
    gt, _occluded = read_gt_file(os.path.join(path, "gt.jsonl"))
    if gt[0] is None:
        raise ValueError(f"{path}: ground truth is occluded at frame 0")
    return Scenario(
        name=name,
        length=len(gt),
        init_box=gt[0],
        frames=lambda: load_sequence(os.path.join(path, "frames")),
        detector=lambda: ScriptedDetector.from_file(
            os.path.join(path, "detections.jsonl")),
        gt=gt,
        events=read_events_file(os.path.join(path, "events.json")),
        dims=dims,
        from_disk=True,
    )


SPECS: dict[str, Callable[[int], list[ScenarioSpec]]] = {
    "standard": standard_specs,
    "cruise_720p": cruise_specs,
    "cover_dense_qvga": cover_specs,
    "disk_replay": disk_specs,
}


def in_memory(workload: str, seed: int) -> list[Scenario]:
    """The workload's scenarios generated in memory, never written to disk.

    Frames and detection files round-trip exactly, so a disk workload's
    scenarios track to the same outputs from memory.
    """
    return [_from_output(generate(spec)) for spec in SPECS[workload](seed)]


def set_up(workload: str, seed: int, workdir: str) -> list[Scenario]:
    """Build the specs and generate them; a disk workload also writes them
    under ``workdir`` (replacing what is there) and reads them back lazily."""
    if workload != "disk_replay":
        return in_memory(workload, seed)
    outputs = [generate(spec) for spec in SPECS[workload](seed)]
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    scenarios = []
    for out in outputs:
        path = os.path.join(workdir, out.spec.name)
        write_scenario(out, path)
        scenarios.append(_from_disk(path, out.spec.name, out.spec.dims))
    return scenarios
