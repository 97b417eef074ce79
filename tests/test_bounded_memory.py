"""A long session runs in bounded memory: every buffer stays within its
capacity, and the heap that the memory and the session keep stops growing
once the buffers are full."""

from __future__ import annotations

import tracemalloc

from damtrack.detection import ScriptedDetector
from damtrack.geometry import FrameDims
from damtrack.pipeline import PipelineConfig, TrackerSession
from damtrack.synth import (TARGET_COLOR, NoiseSpec, ObjectSpec,
                            OcclusionSpec, ScenarioSpec, generate)

HALF = 400  # snapshots after frames HALF and 2 * HALF
COVER_PERIOD = 56
COVER_DURATION = 14


def long_cover_spec() -> ScenarioSpec:
    """A QVGA target sweeping back and forth under a cover every 56 frames,
    with a parked look-alike and false positives to feed the negative bank."""
    length = 2 * HALF + 1
    knots = tuple((t, 90.0 if (t // 100) % 2 == 0 else 230.0,
                   80.0 if (t // 100) % 2 == 0 else 160.0)
                  for t in range(0, length, 100))
    covers = tuple(OcclusionSpec(s, COVER_DURATION)
                   for s in range(30, length - COVER_DURATION - 16,
                                  COVER_PERIOD))
    return ScenarioSpec(
        name="long_cover",
        seed=8101,
        target=ObjectSpec(color=TARGET_COLOR, waypoints=knots),
        length=length,
        dims=FrameDims(320, 240),
        distractors=(ObjectSpec(color=(60, 120, 170), pattern_similarity=0.6,
                                waypoints=((0, 160.0, 200.0),)),),
        occlusions=covers,
        noise=NoiseSpec(center_sigma=0.8, fp_rate=0.1, blackout=3),
    )


def _kept_bytes(snapshot: tracemalloc.Snapshot) -> int:
    kept = snapshot.filter_traces([
        tracemalloc.Filter(True, "*damtrack/memory.py"),
        tracemalloc.Filter(True, "*damtrack/pipeline.py"),
    ])
    return sum(stat.size for stat in kept.statistics("filename"))


def test_long_session_holds_flat_memory():
    out = generate(long_cover_spec())
    cfg = PipelineConfig()
    session = TrackerSession(ScriptedDetector(out.detections), cfg)
    stages = set()
    kept = {}
    tracemalloc.start()
    try:
        for frame in out.frames():
            if frame.index == 0:
                session.init(frame, out.init_box)
                continue
            # outputs are dropped: only what the session itself keeps counts
            stages.add(session.step(frame).recovery_stage)
            if frame.index in (HALF, 2 * HALF):
                kept[frame.index] = _kept_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    # the run exercised holding and recovery, not just stable tracking
    assert "held" in stages and stages & {1, 2, 3}
    growth = kept[2 * HALF] - kept[HALF]
    assert growth < 4096, f"kept heap grew {growth} B over {HALF} frames"
    dam = session.dam
    assert 0 < len(dam.ram) <= cfg.ram_capacity
    assert 0 < len(dam.drm) <= cfg.drm_capacity
    assert 0 < len(dam.bank) <= cfg.neg_capacity
