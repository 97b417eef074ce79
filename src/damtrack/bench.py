"""Suite benchmarking: run the tracking session over scenario directories
on disk and collect metrics."""

from __future__ import annotations

import os
from dataclasses import replace

from .config import PipelineConfig
from .detection import ScriptedDetector
from .media import load_sequence
from .metrics import SequenceResult, evaluate
from .pipeline import run_sequence
from .synth import read_events_file, read_gt_file


def run_disk_scenario(path: str, config: PipelineConfig,
                      ) -> tuple[str, SequenceResult, list[tuple[int, int]]]:
    """Track one scenario directory; returns the (name, result, events)
    triple that ``metrics.summarize`` takes."""
    frames = load_sequence(os.path.join(path, "frames"))
    detector = ScriptedDetector.from_file(os.path.join(path, "detections.jsonl"))
    gt, _ = read_gt_file(os.path.join(path, "gt.jsonl"))
    events = read_events_file(os.path.join(path, "events.json"), len(gt))
    init_box = gt[0]
    if init_box is None:
        raise ValueError(f"{path}: ground truth is occluded at frame 0")
    outputs, times, _session = run_sequence(frames, init_box, detector, config)
    return (os.path.basename(os.path.normpath(path)),
            evaluate(outputs, gt, times), events)


def discover_scenarios(suite_dir: str) -> list[str]:
    """Scenario subdirectories of suite_dir, sorted by name."""
    paths = []
    for entry in sorted(os.listdir(suite_dir)):
        full = os.path.join(suite_dir, entry)
        if os.path.isdir(full) and os.path.isfile(os.path.join(full, "gt.jsonl")):
            paths.append(full)
    if not paths:
        raise ValueError(f"{suite_dir}: no scenario directories found")
    return paths


def ladder_configs(base: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    """Component ladder from bare tracker to the full system.

    The held-box protocol rides with the detector rung: it is driven by
    detections (the overlap set steers its size), and without it the holding
    reference follows the failing tracker, which starves every later stage.
    """
    return [
        ("tracker_only", replace(base, use_detector=False, use_ram=False,
                                 use_drm=False, use_held=False)),
        ("with_detector", replace(base, use_detector=True, use_ram=False,
                                  use_drm=False, use_held=True)),
        ("with_ram", replace(base, use_detector=True, use_ram=True,
                             use_drm=False, use_held=True)),
        ("full", replace(base, use_detector=True, use_ram=True,
                         use_drm=True, use_held=True)),
    ]


# one row per mechanism: the value of an existing key that switches it off
KNOCKOUTS = (
    ("no_bank", {"gamma": 0.0}),  # no distractor penalty in recovery
    ("no_stage1", {"tau_acc": 99.0}),  # no anchor can score this high
    ("no_locality", {"tau_prior": 0.0}),  # stage 2 takes any motion prior
    ("no_size_blend", {"beta": 0.0}),  # the held box keeps its size
    ("no_crowding", {"tau_occ": 1.0}),  # only an exact overlap crowds
    ("no_jump", {"tau_jump": 1.0}),  # only a jump past one diagonal
    ("no_realign", {"tau_match": 1.0}),  # only an exact overlap realigns
)


def knockout_configs(base: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    """The base config, then the base without each mechanism in turn."""
    return [("full", base)] + [(name, replace(base, **override))
                               for name, override in KNOCKOUTS]
