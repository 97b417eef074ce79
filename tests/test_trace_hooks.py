"""The benchmark's span tracer finds every entry point it wraps.

``perfbench.tracing`` wraps package functions and methods by name from
outside the package. A renamed entry point is reported absent, and the
benchmark's per-layer row for it would silently read 0.
"""

from __future__ import annotations

import os

import damtrack.pipeline
import damtrack.tracker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_wraps_every_target_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    from perfbench.tracing import Tracer, install

    step = damtrack.pipeline.TrackerSession.step
    motion = damtrack.tracker.MotionEstimator.estimate_velocity
    restore, absent = install(Tracer())
    try:
        assert absent == []
        assert damtrack.tracker.MotionEstimator.estimate_velocity is not motion
    finally:
        restore()
    assert damtrack.pipeline.TrackerSession.step is step
    assert damtrack.tracker.MotionEstimator.estimate_velocity is motion
