"""Span tracing installed from outside the program.

``install`` replaces the public functions and methods the pipeline calls into
each layer with wrappers that record a span: name, start, end, parent and
frame id. ``TrackerSession.init``/``step`` are the root span of each frame.
Spans stay in memory until the run ends; ``layer_times`` then derives each
span name's total and self time (duration minus the direct children). A
wrapped name that a later version of the program no longer has is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable

# (span name, module, attribute path inside the module). Names bound with
# ``from x import f`` are wrapped where the caller looks them up, so
# ``damtrack.pipeline.provide`` is the pipeline's call into detection and
# ``damtrack.media.to_gray`` is only ever reached through ``Frame.gray``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("session.init", "damtrack.pipeline", "TrackerSession.init"),
    ("session.step", "damtrack.pipeline", "TrackerSession.step"),
    ("media.to_gray", "damtrack.media", "to_gray"),
    ("detection.provide", "damtrack.pipeline", "provide"),
    ("tracker.update", "damtrack.tracker", "TemplateTracker.update"),
    ("tracker.reinit", "damtrack.tracker", "TemplateTracker.reinit"),
    ("tracker.ncc_scores", "damtrack.tracker", "ncc_scores"),
    ("tracker.resample", "damtrack.tracker", "resample"),
    ("tracker.motion", "damtrack.tracker", "MotionEstimator.estimate_velocity"),
    ("appearance.descriptor", "damtrack.pipeline", "compute_descriptor"),
    ("appearance.ncc_search", "damtrack.pipeline", "ncc_search"),
    ("memory.ram_admit", "damtrack.memory", "DistractorAwareMemory.ram_admit"),
    ("memory.try_promote", "damtrack.memory", "DistractorAwareMemory.try_promote"),
    ("memory.add_negative", "damtrack.memory", "DistractorAwareMemory.add_negative"),
    ("memory.best_anchor", "damtrack.memory", "DistractorAwareMemory.best_anchor"),
    ("memory.max_cosine", "damtrack.memory", "NegativeBank.max_cosine"),
)

ROOTS = ("session.init", "session.step")


class Tracer:
    """In-memory span store for one traced pass; single-threaded."""

    def __init__(self) -> None:
        # one row per span: [name, start_ns, end_ns, parent index, frame id,
        # outcome]; the outcome is what an observer below read off the result
        self.spans: list[list] = []
        self.frame_id = -1
        self.frame_index = -1  # index of the frame being tracked
        self._stack: list[int] = []

    def begin_frame(self, index: int) -> None:
        self.frame_id += 1
        self.frame_index = index

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.frame_id, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span measured by the caller, such as a frame fetch."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.frame_id, None])


def _fresh_dets(tracer: Tracer, result) -> int | None:
    # a stale set is returned unchanged, so only a fresh one carries this t
    if getattr(result, "t", None) == tracer.frame_index:
        return len(result)
    return None


# outcomes read off a layer's result where the work happens
OBSERVERS: dict[str, Callable[[Tracer, object], object]] = {
    "detection.provide": _fresh_dets,
    "memory.ram_admit": lambda _tracer, admitted: bool(admitted),
    "memory.try_promote": lambda _tracer, promoted: bool(promoted),
    "memory.best_anchor": lambda _tracer, hit: hit is not None,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            tracer.spans[idx][5] = observe(tracer, result)
        return result

    return wrapper


def install(tracer: Tracer, targets=TARGETS) -> tuple[Callable[[], None], list[str]]:
    """Wrap every target that exists; return (restore, absent span names)."""
    patched: list[tuple[object, str, object]] = []
    absent: list[str] = []
    for name, module_name, path in targets:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(name)
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, "__dict__", {}).get(attr)
        if not callable(original):
            absent.append(name)
            continue
        patched.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original))

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore, absent


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ns and self ns (total minus direct children)."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _frame, _outcome in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for i, (name, start, end, _parent, _frame, _outcome) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return dict(out)
