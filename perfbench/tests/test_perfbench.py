"""Tests of the benchmark itself: span arithmetic, determinism, workload
specs, tolerance of a missing program function, and the metric catalogue."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from damtrack.pipeline import PipelineConfig
from damtrack.synth import generate

from perfbench.bench import E2E, timing, traced_pass
from perfbench.harness import ScenarioRun, track_digest
from perfbench.layers import UNITS, count_block
from perfbench.tracing import TARGETS, Tracer, install, layer_times
from perfbench.workloads import SPECS, set_up

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(name, start, end, parent, frame=0):
    return [name, start, end, parent, frame, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("session.step", 0, 100, -1),
        span("tracker.update", 10, 40, 0),
        span("media.to_gray", 15, 25, 1),
        span("appearance.descriptor", 50, 90, 0),
        span("appearance.descriptor", 200, 205, -1, frame=1),
    ]
    rows = layer_times(spans)
    assert rows["session.step"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert rows["tracker.update"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert rows["media.to_gray"] == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert rows["appearance.descriptor"] == {"calls": 2, "total_ns": 45,
                                             "self_ns": 45}
    # self times partition the root interval
    assert sum(r["self_ns"] for r in rows.values()) - 5 == 100


def test_percentiles_take_each_frames_best_pass():
    def run(name, *ms):
        return ScenarioRun(name, frame_s=[m / 1000.0 for m in ms])

    # two passes over scenarios a (3 frames) and b (1 frame); the host slowed
    # a different frame in each pass
    runs = [run("a", 1, 9, 1), run("b", 2), run("a", 9, 1, 1), run("b", 2)]
    t = timing(runs, per_pass=2)
    assert t["fps"] == pytest.approx(1000.0 * 8 / 26)
    assert t["frame_ms_p50"] == pytest.approx(1.0)  # best times 1, 1, 1, 2
    assert t["frame_ms_p95"] == pytest.approx(1.85)


def test_tracer_nests_spans_by_call_order():
    tracer = Tracer()
    tracer.begin_frame(0)
    outer = tracer.open("session.step")
    inner = tracer.open("tracker.update")
    tracer.close(inner)
    tracer.close(outer)
    tracer.record("harness.render", 1, 2)
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert {s[4] for s in tracer.spans} == {0}
    assert tracer.spans[0][1] <= tracer.spans[1][1] <= tracer.spans[1][2] \
        <= tracer.spans[0][2]


def test_digest_and_count_block_repeat_in_process(tmp_path):
    scenarios = set_up("standard", 0, str(tmp_path))[:1]
    blocks, digests = [], []
    for _ in range(2):
        tracer = Tracer()
        runs, absent = traced_pass(scenarios, PipelineConfig(), tracer)
        assert absent == []
        assert runs[0].failed == 0
        blocks.append(count_block(runs, tracer.spans))
        digests.append(track_digest(runs))
    assert blocks[0] == blocks[1]
    assert digests[0] == digests[1]
    assert blocks[0]["frames.stable"] + blocks[0]["frames.held"] > 0
    assert blocks[0]["descriptor"] > 0 and blocks[0]["provide"] > 0


@pytest.mark.parametrize("workload", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_spec_generates(workload, seed):
    specs = SPECS[workload](seed)
    assert specs and len({s.name for s in specs}) == len(specs)
    for spec in specs:
        out = generate(spec)
        assert len(out.gt_boxes) == spec.length
        assert not out.occluded[0]


def test_workload_inputs_follow_the_seed():
    assert SPECS["cover_dense_qvga"](3) == SPECS["cover_dense_qvga"](3)
    assert SPECS["cover_dense_qvga"](3) != SPECS["cover_dense_qvga"](4)
    # seed 0 of the standard workload is the reference suite itself
    from damtrack.synth import standard_suite
    assert SPECS["standard"](0) == standard_suite()


def test_missing_wrapped_name_is_reported_absent():
    import damtrack.pipeline as pipeline
    original = pipeline.provide
    targets = TARGETS + (
        ("gone.function", "damtrack.pipeline", "no_such_function"),
        ("gone.method", "damtrack.pipeline", "NoSuchClass.method"),
        ("gone.module", "damtrack.no_such_module", "f"),
    )
    restore, absent = install(Tracer(), targets)
    try:
        assert pipeline.provide is not original
    finally:
        restore()
    assert absent == ["gone.function", "gone.method", "gone.module"]
    assert pipeline.provide is original


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(E2E)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    # cruise_720p runs by hand only; see the README's Noise section
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        set(SPECS) - {"cruise_720p"})


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "standard",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric(tmp_path, capsys):
    from perfbench.bench import traced_run
    scenarios = set_up("standard", 0, str(tmp_path))[:1]
    result = traced_run("standard", 0, scenarios, PipelineConfig(), 0.1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(UNITS)
    # layer self times and the pipeline's own time partition the frame
    assert 95.0 <= metrics["trace.accounted_pct"] <= 100.5
    assert metrics["media.decode.ms_per_frame"] == 0.0
    out = capsys.readouterr().out
    # one scenario runs no stage-2 recovery, so the suite's profile is off
    assert "profile: off: every recovery stage runs" in out
    assert "DOES NOT MATCH" in out  # a one-scenario subset of the suite
