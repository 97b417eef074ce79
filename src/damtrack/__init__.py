"""Detection-guided single-object tracking with distractor-aware memory.

A lightweight tracking pipeline over axis-aligned boxes: a template tracker
propagates frame to frame, a sparse detection source corrects drift, a held
box dead-reckons through occlusion, a dual-buffer appearance memory separates
the target from look-alikes, and a staged recovery cascade re-acquires the
target after occlusion. Ships with a
deterministic synthetic scenario generator and a benchmark harness, so the
whole stack runs end to end without any learned model.
"""

from .appearance import compute_descriptor, cosine, ncc_scores, ncc_search
from .bench import knockout_configs, ladder_configs, run_disk_scenario
from .config import (PipelineConfig, config_from_dict, config_to_dict,
                     load_config, save_config, scale_thresholds)
from .detection import (Detection, DetectionSet, DetectorInterface,
                        ScriptedDetector, filter_confident, nms, provide,
                        read_detections_file, schedule, write_detections_file)
from .geometry import (Box, FrameDims, Vec2, area, clamp_to_frame, iou,
                       norm_displacement, roi_crop, union_bbox)
from .media import (Frame, MediaError, load_sequence, read_pnm,
                    write_annotated, write_pnm)
from .memory import (DistractorAwareMemory, DrmEntry, NegativeBank, RamEntry,
                     penalized_score, score_anchor)
from .metrics import (RecoveryStats, SequenceResult, evaluate, mean_iou,
                      recovery_stats, robustness, summarize)
from .pipeline import (MODE_HOLDING, MODE_NORMAL, TrackOutput, TrackerSession,
                       run_sequence)
from .synth import (NoiseSpec, ObjectSpec, OcclusionSpec, ScenarioOutput,
                    ScenarioSpec, SplitMix64, generate, read_events_file,
                    read_gt_file, scenario_spec_from_dict,
                    scenario_spec_to_dict, standard_suite, write_scenario)
from .tracker import MotionEstimator, TemplateTracker

__version__ = "0.1.0"

__all__ = [
    "Box", "FrameDims", "Vec2", "area", "iou", "union_bbox", "clamp_to_frame",
    "roi_crop", "norm_displacement",
    "Frame", "MediaError", "read_pnm", "write_pnm", "load_sequence",
    "write_annotated",
    "compute_descriptor", "cosine", "ncc_scores", "ncc_search",
    "DistractorAwareMemory", "RamEntry", "DrmEntry",
    "NegativeBank", "score_anchor", "penalized_score",
    "Detection", "DetectionSet", "DetectorInterface",
    "ScriptedDetector", "filter_confident", "nms", "schedule", "provide",
    "read_detections_file", "write_detections_file",
    "TemplateTracker", "MotionEstimator",
    "PipelineConfig", "TrackerSession", "TrackOutput", "run_sequence",
    "MODE_NORMAL", "MODE_HOLDING",
    "ScenarioSpec", "ObjectSpec", "OcclusionSpec", "NoiseSpec",
    "ScenarioOutput", "SplitMix64", "generate", "standard_suite",
    "write_scenario", "read_gt_file", "read_events_file",
    "scenario_spec_from_dict", "scenario_spec_to_dict",
    "SequenceResult", "RecoveryStats", "evaluate", "mean_iou",
    "robustness", "recovery_stats", "summarize",
    "config_from_dict", "config_to_dict", "load_config", "save_config",
    "scale_thresholds",
    "run_disk_scenario", "ladder_configs", "knockout_configs",
    "__version__",
]
