"""The two kinds of run: untraced end-to-end and traced per-layer."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from damtrack.bench import ladder_configs
from damtrack.pipeline import PipelineConfig

from . import micro
from .harness import (ScenarioRun, accuracy, output_counts, run_scenario,
                      track_digest)
from .layers import (CALL_COUNTS, UNITS, count_block, layer_metrics,
                     profile_failures)
from .tracing import Tracer, install
from .workloads import Scenario, in_memory, set_up

SETUP_REPEATS = 5
WARMUP_FRAMES = 30
MIN_PASSES = 2  # every frame is timed at least twice; see timing()
LADDER_WORKERS = 2
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

# (metric, unit) in print order; the accuracy block is deterministic per seed
E2E = (("fps", "frames/s"), ("frame_ms_p50", "ms"), ("frame_ms_p95", "ms"),
       ("mean_iou", "iou"), ("robustness", "share"),
       ("recovery_rate", "share"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def timed_setup(workload: str, seed: int, workdir: str
                ) -> tuple[list[Scenario], float]:
    """Set up SETUP_REPEATS times; the median time and the last scenarios."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        scenarios = set_up(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return scenarios, statistics.median(times)


def run_pass(scenarios: list[Scenario], config: PipelineConfig,
             tracer: Tracer | None = None) -> list[ScenarioRun]:
    return [run_scenario(sc, config, tracer) for sc in scenarios]


def traced_pass(scenarios: list[Scenario], config: PipelineConfig,
                tracer: Tracer) -> tuple[list[ScenarioRun], list[str]]:
    """A pass with the layer wrappers installed; also the absent names."""
    restore, absent = install(tracer)
    try:
        return run_pass(scenarios, config, tracer), absent
    finally:
        restore()


def timing(runs: list[ScenarioRun], per_pass: int) -> dict[str, float]:
    """Throughput over every timed frame; percentiles over each frame's best.

    ``runs`` are whole passes in order, ``per_pass`` scenario runs each. A
    frame is timed once per pass and computes the same thing every time, so
    its fastest time is its own cost with the shared host's passing slowdowns
    filtered out: the percentiles rank the program's slow frames, not the
    machine's slow moments.
    """
    ms = [s * 1000.0 for run in runs for s in run.frame_s]
    best: list[float] = []
    for first in range(per_pass):
        repeats = [run.frame_s for run in runs[first::per_pass]]
        n = min(len(r) for r in repeats)
        best.extend(np.min([r[:n] for r in repeats], axis=0) * 1000.0)
    return {"fps": 1000.0 * len(ms) / sum(ms),
            "frame_ms_p50": float(np.percentile(best, 50)),
            "frame_ms_p95": float(np.percentile(best, 95))}


def reference_line(workload: str, seed: int, digest: str) -> str:
    with open(REFERENCE, encoding="utf-8") as f:
        expected = json.load(f)["digests"].get(workload, {}).get(str(seed))
    if expected is None:
        return f"digest {digest}: no reference for {workload} seed {seed}"
    verdict = "matches" if digest == expected else f"DOES NOT MATCH {expected}"
    return f"digest {digest}: {verdict} the reference for {workload} seed {seed}"


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  workdir: str) -> dict:
    scenarios, setup_s = timed_setup(workload, seed, workdir)
    config = PipelineConfig()
    run_scenario(scenarios[0], config, limit=WARMUP_FRAMES)
    if traced:
        return traced_run(workload, seed, scenarios, config, setup_s)
    return e2e_run(workload, seed, seconds, scenarios, config, setup_s)


def e2e_run(workload: str, seed: int, seconds: float,
            scenarios: list[Scenario], config: PipelineConfig,
            setup_s: float) -> dict:
    """Whole passes, at least ``MIN_PASSES``, until ``seconds`` elapse.

    A repeated scenario must reproduce its first output exactly.
    """
    problems: list[str] = []
    first = []
    timed: list[ScenarioRun] = []
    start = time.perf_counter()
    i = 0
    while (i % len(scenarios) or i < MIN_PASSES * len(scenarios)
           or time.perf_counter() - start < seconds):
        sc = scenarios[i % len(scenarios)]
        run = run_scenario(sc, config)
        if i < len(scenarios):
            first.append(run)
        elif run.digest != first[i % len(scenarios)].digest:
            problems.append(f"{sc.name}: repeat {i // len(scenarios)} "
                            "differs from the first pass")
        if i >= len(scenarios):
            run.outputs = []  # keep only the timing of repeats
        timed.append(run)
        i += 1
    elapsed = time.perf_counter() - start
    attempted = sum(r.attempted for r in timed)
    failed = sum(r.failed for r in timed)
    for run in timed:
        problems.extend(run.errors[:3])
    acc = accuracy(first, scenarios)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {**timing(timed, len(scenarios)), **{k: acc[k] for k in
                                   ("mean_iou", "robustness", "recovery_rate")},
               "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
    digest = track_digest(first)
    frames = sum(len(r.frame_s) for r in timed)
    print(f"{workload} seed {seed}: {frames} frames in {elapsed:.1f} s "
          f"({len(timed)} scenario runs, {len(scenarios)} per pass)")
    for name, unit in E2E:
        print(f"{name:<14} {metrics[name]:>12.4f} {unit}")
    print(f"{'failed_share':<14} {failed / attempted:>12.4f} "
          f"({failed} of {attempted} frames)")
    print(f"counts {json.dumps(output_counts(first))}")
    print(reference_line(workload, seed, digest))
    correct = _report_problems(problems, failed, acc)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in E2E}}


def _report_problems(problems: list[str], failed: int, acc: dict) -> bool:
    # a tracker that keeps the target on under half of the scored frames is
    # not tracking, whatever its speed
    if acc["robustness"] < 0.5:
        problems.append(f"robustness {acc['robustness']:.3f} < 0.5")
    for line in problems:
        print(f"problem: {line}")
    return failed == 0 and not problems


def retained_kb(sc: Scenario, config: PipelineConfig) -> float:
    """Heap a finished session still holds, after its outputs are dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = run_scenario(sc, config, keep_session=True)
        session = run.session
        del run
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del session
    return held / 1024.0


# a worker interpreter for one ladder rung: it rebuilds its scenarios from
# the seed and prints their accuracy as JSON
RUNG_MAIN = "import sys; from perfbench.bench import rung_main; rung_main(sys.argv[1])"


def ladder_rungs(config: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    """The component ladder below ``full`` and the stage-1 anchor ablation."""
    return ladder_configs(config)[:-1] + [
        ("anchor", replace(config, stage1_reinit="anchor"))]


def rung_main(job_json: str) -> None:
    job = json.loads(job_json)
    config = dict(ladder_rungs(PipelineConfig()))[job["rung"]]
    scenarios = [sc for sc in in_memory(job["workload"], job["seed"])
                 if sc.name in job["names"]]
    print(json.dumps(accuracy(run_pass(scenarios, config), scenarios)))


def ladder(workload: str, seed: int, names: list[str]) -> dict[str, dict]:
    """Accuracy of every rung on the named scenarios, two rungs at a time.

    Only accuracy is read from these runs, so they may share the machine.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, ROOT])}
    rungs = [name for name, _cfg in ladder_rungs(PipelineConfig())]
    results: dict[str, dict] = {}
    for i in range(0, len(rungs), LADDER_WORKERS):
        procs = {
            rung: subprocess.Popen(
                [sys.executable, "-c", RUNG_MAIN, json.dumps(
                    {"workload": workload, "seed": seed, "names": names,
                     "rung": rung})],
                stdout=subprocess.PIPE, text=True, env=env)
            for rung in rungs[i:i + LADDER_WORKERS]}
        outputs = {rung: proc.communicate()[0] for rung, proc in procs.items()}
        for rung, proc in procs.items():
            if proc.returncode != 0:
                raise RuntimeError(f"ladder rung {rung} exited with "
                                   f"{proc.returncode}")
            results[rung] = json.loads(outputs[rung])
    return results


def traced_run(workload: str, seed: int, scenarios: list[Scenario],
               config: PipelineConfig, setup_s: float) -> dict:
    """Untraced pass, traced pass, retained heap, microbenchmarks, ladder."""
    problems: list[str] = []
    plain = run_pass(scenarios, config)
    tracer = Tracer()
    traced, absent = traced_pass(scenarios, config, tracer)
    again = Tracer()
    (repeat,), _ = traced_pass(scenarios[:1], config, again)
    digest = track_digest(plain)
    if track_digest(traced) != digest:
        problems.append("the traced pass changed the track output")
    first_spans = [s for s in tracer.spans if s[4] < traced[0].attempted]
    if count_block([repeat], again.spans) != count_block([traced[0]], first_spans):
        problems.append(f"{scenarios[0].name}: count block differs on repeat")

    acc = accuracy(plain, scenarios)
    metrics = layer_metrics(plain, traced, tracer.spans, acc,
                            scenarios[0].from_disk)
    off_profile = profile_failures(workload, metrics)
    metrics["profile.ok"] = 0.0 if off_profile else 1.0
    block = count_block(traced, tracer.spans)
    metrics.update({f"count.{k}": block[k] for k in CALL_COUNTS})
    metrics["memory.retained_kb"] = retained_kb(scenarios[0], config)
    metrics.update(micro.run_all(seed))
    # after every timed part, which the ladder's workers would disturb
    names = [sc.name for sc in scenarios]
    rungs = {**ladder(workload, seed, names), "full": acc}
    for rung, rung_acc in rungs.items():
        for key in ("mean_iou", "robustness", "recovery_rate"):
            metrics[f"ladder.{rung}.{key}"] = rung_acc[key]

    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    for run in plain + traced:
        problems.extend(run.errors[:3])
    print(f"{workload} seed {seed}: traced run, set-up {setup_s:.3f} s")
    for name in sorted(metrics):
        print(f"{name:<44} {metrics[name]:>14.4f}")
    print(f"count block {json.dumps(block)}")
    print(reference_line(workload, seed, digest))
    if absent:
        print(f"absent wrapped names: {', '.join(absent)}")
    print(f"profile: {'off: ' + ', '.join(off_profile) if off_profile else 'ok'}")
    correct = _report_problems(problems, failed, acc)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}
