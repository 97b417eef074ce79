"""Closed-loop runner: one caller, one frame at a time, on one thread.

Frame t+1 depends on the session state frame t left, so every scenario is a
single closed loop. Frame time is the time inside ``TrackerSession.init`` and
``step``; on a disk workload it also includes decoding the frame, which is
what a user replaying files pays. Synthetic rendering is timed separately
and never counted as frame time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from damtrack.metrics import evaluate, summarize
from damtrack.pipeline import TrackerSession

from .tracing import Tracer
from .workloads import Scenario

MODES = ("NORMAL", "HOLDING")
STAGES = (0, 1, 2, 3, "held")


@dataclass
class ScenarioRun:
    name: str
    outputs: list = field(default_factory=list)
    frame_s: list[float] = field(default_factory=list)
    fetch_s: list[float] = field(default_factory=list)  # render or decode
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    session: TrackerSession | None = None  # kept only when asked for


def output_problem(out, t: int, width: int, height: int) -> str | None:
    """Why a frame's output is malformed, or None when it is well formed.

    A box may overhang the frame by under a pixel: the tracker maps its peak
    back through a rounded resampling scale.
    """
    if getattr(out, "t", None) != t:
        return f"t={getattr(out, 't', None)!r}, expected {t}"
    box = out.box
    coords = (box.x, box.y, box.w, box.h)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in coords):
        return f"non-finite box {coords}"
    if (box.w <= 0 or box.h <= 0 or box.x < -1 or box.y < -1
            or box.x + box.w > width + 1 or box.y + box.h > height + 1):
        return f"box {coords} outside the {width}x{height} frame"
    if out.mode not in MODES or out.recovery_stage not in STAGES:
        return f"mode {out.mode!r} / stage {out.recovery_stage!r}"
    if not math.isfinite(out.conf):
        return f"non-finite conf {out.conf!r}"
    return None


def run_scenario(sc: Scenario, config, tracer: Tracer | None = None,
                 limit: int | None = None,
                 keep_session: bool = False) -> ScenarioRun:
    """Track one scenario; a call that raises ends the scenario as failed."""
    run = ScenarioRun(sc.name)
    session = TrackerSession(sc.detector(), config)
    if keep_session:
        run.session = session
    frames = iter(sc.frames())
    fetch_name = "media.decode" if sc.from_disk else "harness.render"
    sha = hashlib.sha256()
    width, height = sc.dims.width, sc.dims.height
    clock = time.perf_counter_ns
    for t in range(sc.length if limit is None else min(limit, sc.length)):
        if tracer is not None:
            tracer.begin_frame(t)
        run.attempted += 1
        f0 = clock()
        try:
            frame = next(frames)
        except Exception as exc:  # a decode failure fails the frame
            run.failed += 1
            run.errors.append(f"{sc.name} t={t}: fetch: {exc!r}")
            break
        f1 = clock()
        try:
            out = session.init(frame, sc.init_box) if t == 0 else session.step(frame)
        except Exception as exc:  # reported per frame, never fatal to the run
            run.failed += 1
            run.errors.append(f"{sc.name} t={t}: {exc!r}")
            break
        f2 = clock()
        if tracer is not None:
            tracer.record(fetch_name, f0, f1)
        problem = output_problem(out, t, width, height)
        if problem is not None:
            run.failed += 1
            run.errors.append(f"{sc.name} t={t}: {problem}")
            continue
        run.outputs.append(out)
        run.fetch_s.append((f1 - f0) * 1e-9)
        run.frame_s.append((f2 - (f0 if sc.from_disk else f1)) * 1e-9)
        sha.update(record_line(out))
    run.digest = sha.hexdigest()
    return run


def record_line(out) -> bytes:
    """One output as the track file writes it."""
    return json.dumps(out.to_record()).encode("ascii") + b"\n"


def track_digest(runs: list[ScenarioRun]) -> str:
    """SHA-256 over every ``TrackOutput.to_record()`` line, in frame order."""
    sha = hashlib.sha256()
    for run in runs:
        for out in run.outputs:
            sha.update(record_line(out))
    return sha.hexdigest()


def output_counts(runs: list[ScenarioRun]) -> dict[str, int]:
    """Frames by outcome and recoveries by stage, from the outputs alone."""
    stages = Counter(out.recovery_stage for run in runs for out in run.outputs)
    return {
        "frames.stable": stages[0],
        "frames.held": stages["held"],
        "recovered.s1": stages[1],
        "recovered.s2": stages[2],
        "recovered.s3": stages[3],
    }


def accuracy(runs: list[ScenarioRun], scenarios: list[Scenario]) -> dict:
    """``metrics.summarize`` over complete scenarios.

    Recovery over a workload without covers is reported as 1.0: no event
    was missed. Its latency is 0 there for the same reason.
    """
    by_name = {sc.name: sc for sc in scenarios}
    triples = []
    for run in runs:
        sc = by_name[run.name]
        if run.failed or len(run.outputs) != sc.length:
            continue
        triples.append((run.name, evaluate(run.outputs, sc.gt, run.frame_s),
                        sc.events))
    if not triples:
        return {"mean_iou": 0.0, "robustness": 0.0, "recovery_rate": 0.0,
                "recovery_latency_mean": 0.0}
    s = summarize(triples)
    events = s["events"]
    return {
        "mean_iou": s["mean_iou"],
        "robustness": s["robustness"],
        "recovery_rate": s["recovery_rate"] if events else 1.0,
        "recovery_latency_mean": (s["recovery_mean_latency"]
                                  if events and s["recovery_rate"] > 0 else 0.0),
    }
