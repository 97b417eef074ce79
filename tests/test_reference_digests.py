"""The track output of the default config matches the benchmark's reference.

``perfbench/reference.json`` stores the SHA-256 of every workload's track
records per seed. A change meant to leave the output alone (a speed-up, a
refactor) must keep these digests; one that changes them is a behaviour
change and regenerates the file on purpose. The in-memory cases never
decode a file, so one case writes ``disk_replay`` to disk and replays it
through the PPM decoder. Read only; about 12 s.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from damtrack.pipeline import PipelineConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload,seed", [
    ("standard", 0), ("cover_dense_qvga", 0), ("cover_dense_qvga", 1),
    ("disk_replay", 0), ("disk_replay", 1),
])
def test_track_digest_matches_reference(monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(ROOT)
    from perfbench.bench import run_pass
    from perfbench.harness import track_digest
    from perfbench.workloads import in_memory

    runs = run_pass(in_memory(workload, seed), PipelineConfig())
    assert all(run.failed == 0 for run in runs)
    assert track_digest(runs) == _reference(workload, seed)


def test_disk_replay_from_files_matches_reference(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(ROOT)
    from perfbench.bench import run_pass
    from perfbench.harness import track_digest
    from perfbench.workloads import set_up

    workdir = tmp_path / "disk_replay"
    try:
        scenarios = set_up("disk_replay", 0, str(workdir))
        assert all(s.from_disk for s in scenarios)
        runs = run_pass(scenarios, PipelineConfig())
    finally:
        # about 415 MB of frames; pytest keeps its last three temp dirs
        shutil.rmtree(workdir, ignore_errors=True)
    assert all(run.failed == 0 for run in runs)
    assert track_digest(runs) == _reference("disk_replay", 0)


def _reference(workload: str, seed: int) -> str:
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as f:
        return json.load(f)["digests"][workload][str(seed)]
