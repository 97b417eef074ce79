"""The benchmark's ladder builds from the package's config and ladder.

``perfbench.bench.ladder_rungs`` slices ``damtrack.bench.ladder_configs``
and sets ``stage1_reinit`` on a ``PipelineConfig``, from outside the
package. A renamed key or a reshaped ladder would crash every traced run,
and its ``ladder.*`` metrics would no longer match the rungs it runs.
"""

from __future__ import annotations

import os

import pytest

from damtrack.config import PipelineConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    import perfbench.bench
    import perfbench.layers
    return perfbench


def test_ladder_rungs_build(perfbench):
    rungs = perfbench.bench.ladder_rungs(PipelineConfig())
    assert all(isinstance(cfg, PipelineConfig) for _name, cfg in rungs)


def test_ladder_rungs_match_the_ladder_metrics(perfbench):
    names = [name for name, _cfg in
             perfbench.bench.ladder_rungs(PipelineConfig())]
    declared = {key.split(".")[1] for key in perfbench.layers.UNITS
                if key.startswith("ladder.")}
    assert sorted(names + ["full"]) == sorted(declared)
