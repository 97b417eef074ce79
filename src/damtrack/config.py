"""Flat JSON configuration: one key per named threshold, weight, or switch.

``PipelineConfig`` is the one config class, and each of its fields is named
as its JSON key, so the on-disk format is the class itself and experiment
configs stay greppable. ``records.decode`` reads it: unknown keys are
rejected to catch typos, any subset of keys is accepted with defaults filling
the rest, and each value must have its field's JSON type (a float key a
finite JSON number, an int key a JSON integer, a switch true or false).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

from .records import decode, read_json, write_json

STAGE1_REINIT_MODES = ("ref", "anchor")


# the closed range [low, high] of each bounded key
_RANGES = {
    **dict.fromkeys(("tau_s", "nms_iou", "tau_in", "tau_a", "tau_sim",
                     "tau_conf", "tau_jump", "tau_occ", "beta", "tau_match",
                     "tau_snap", "tau_prior", "tau_ncc"), (0.0, 1.0)),
    **dict.fromkeys(("lambda_iou", "lambda_app", "lambda_mot", "lambda_time",
                     "alpha", "gamma", "tau_acc"), (0.0, math.inf)),
    **dict.fromkeys(("delta", "ram_capacity", "drm_capacity", "neg_capacity",
                     "window_w", "m_min", "kappa", "ncc_region_factor"),
                    (1.0, math.inf)),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every threshold, weight, capacity and component switch of a session."""

    # detection source
    tau_s: float = 0.45  # confidence floor
    nms_iou: float = 0.50
    delta: int = 3  # detection stride in frames
    kappa: float = 2.0  # ROI scale during stable tracking
    # recent-appearance memory (RAM)
    ram_capacity: int = 10
    tau_in: float = 0.50  # admission IoU gate
    tau_a: float = 0.20  # admission relative-area gate
    epsilon: float = 1e-6
    # stable anchors (the DRM buffer) and stage 1, the only reader of them
    drm_capacity: int = 10
    tau_sim: float = 0.85  # promotion window similarity
    window_w: int = 5
    m_min: int = 3
    lambda_iou: float = 0.4
    lambda_app: float = 0.3
    lambda_mot: float = 0.2
    lambda_time: float = 0.1
    alpha: float = 0.05  # age decay for anchor scoring
    tau_acc: float = 0.30  # minimum accepted anchor score
    # where a stage-1 accept resumes: "ref" at b_ref, "anchor" at the anchor box
    stage1_reinit: str = "ref"
    # distractor bank: hard negatives that penalize re-selection in recovery
    gamma: float = 0.25  # distractor penalty weight
    neg_capacity: int = 20
    # switching, held box, and stages 2 and 3 of recovery
    tau_conf: float = 0.35  # tracker confidence floor
    tau_jump: float = 0.30  # normalized displacement ceiling
    tau_occ: float = 0.40  # IoU for a detection to crowd the hypothesis
    beta: float = 0.3  # held-box size blend
    tau_match: float = 0.50  # detection re-alignment IoU
    tau_snap: float = 0.50  # stage-2 acceptance
    tau_prior: float = 0.20  # stage-2 motion-prior floor (locality gate)
    tau_ncc: float = 0.60  # stage-3 acceptance
    ncc_region_factor: float = 4.0  # stage-3 region scale around b_ref
    # component switches for ablation runs
    use_detector: bool = True
    use_ram: bool = True
    use_drm: bool = True
    use_held: bool = True

    def __post_init__(self):
        for name, (low, high) in _RANGES.items():
            v = getattr(self, name)
            if not low <= v <= high:
                raise ValueError(f"{name} must be in [{low:g},{high:g}], got {v}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.stage1_reinit not in STAGE1_REINIT_MODES:
            raise ValueError(f"stage1_reinit must be one of {STAGE1_REINIT_MODES}")
        if self.use_drm and not self.use_ram:
            raise ValueError("use_drm requires use_ram")


KNOWN_KEYS = tuple(f.name for f in fields(PipelineConfig))

# fields scaled by perturbation sweeps: every float key with a range;
# integer counts, capacities, and strides are excluded
PERTURBABLE = tuple(key for key in _RANGES
                    if isinstance(getattr(PipelineConfig, key), float))


def config_to_dict(cfg: PipelineConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> PipelineConfig:
    return decode(PipelineConfig, data, "config")


def load_config(path: str) -> PipelineConfig:
    return read_json(path, "config", config_from_dict)


def save_config(path: str, cfg: PipelineConfig) -> None:
    write_json(path, config_to_dict(cfg))


def scale_thresholds(cfg: PipelineConfig, factor: float) -> PipelineConfig:
    """Every continuous threshold and weight scaled by factor, clamped to its
    domain; used by perturbation-robustness sweeps."""
    if factor <= 0.0:
        raise ValueError("factor must be > 0")
    scaled = {}
    for key in PERTURBABLE:
        low, high = _RANGES[key]
        scaled[key] = min(max(getattr(cfg, key) * factor, low), high)
    return replace(cfg, **scaled)
