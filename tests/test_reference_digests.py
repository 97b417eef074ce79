"""The track output of the default config matches the benchmark's reference.

``perfbench/reference.json`` stores the SHA-256 of every workload's track
records per seed. A change meant to leave the output alone (a speed-up, a
refactor) must keep these digests; one that changes them is a behaviour
change and regenerates the file on purpose. Read only; about 13 s.
"""

from __future__ import annotations

import json
import os

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

    with open(os.path.join(ROOT, "perfbench", "reference.json")) as f:
        want = json.load(f)["digests"][workload][str(seed)]
    runs = run_pass(in_memory(workload, seed), PipelineConfig())
    assert all(run.failed == 0 for run in runs)
    assert track_digest(runs) == want
