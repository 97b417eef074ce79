"""Flat JSON configuration: one key per named threshold, weight, or switch.

The on-disk format is a single flat object so experiment configs stay
greppable; keys map one-to-one onto the nested runtime dataclasses. Unknown
keys are rejected to catch typos, and any subset of keys is accepted with
defaults filling the rest.
"""

from __future__ import annotations

from .detection import SourceConfig
from .memory import DamConfig
from .pipeline import PipelineConfig
from .records import json_int, read_json, write_json

# flat key -> (sub-config, field name); None targets the pipeline level
_SOURCE_KEYS = {
    "tau_s": "tau_s",
    "nms_iou": "nms_iou",
    "delta": "stride_delta",
    "kappa": "kappa",
}
_DAM_KEYS = {
    "ram_capacity": "ram_capacity",
    "drm_capacity": "drm_capacity",
    "tau_in": "tau_in",
    "tau_a": "tau_a",
    "tau_sim": "tau_sim",
    "window_w": "window_w",
    "m_min": "m_min",
    "lambda_iou": "lambda_iou",
    "lambda_app": "lambda_app",
    "lambda_mot": "lambda_mot",
    "lambda_time": "lambda_time",
    "alpha": "alpha",
    "gamma": "gamma",
    "tau_acc": "tau_acc",
    "neg_capacity": "neg_capacity",
    "epsilon": "epsilon",
}
_PIPELINE_KEYS = (
    "tau_conf", "tau_jump", "tau_occ", "beta", "tau_match", "tau_snap",
    "tau_prior", "tau_ncc", "ncc_region_factor", "stage1_reinit",
    "use_detector", "use_ram", "use_drm", "use_held",
)

KNOWN_KEYS = tuple(_SOURCE_KEYS) + tuple(_DAM_KEYS) + _PIPELINE_KEYS

# JSON has one number type and truthy strings, so these keys are type-checked:
# "delta": 2.5 would reach an integer field and "use_drm": "false" is truthy
_BOOL_KEYS = tuple(key for key in _PIPELINE_KEYS if key.startswith("use_"))
_INT_KEYS = ("delta", "ram_capacity", "drm_capacity", "window_w", "m_min",
            "neg_capacity")

# fields scaled by perturbation sweeps: every [0,1] threshold and weight;
# integer counts, capacities, and strides are excluded
PERTURBABLE = (
    "tau_s", "nms_iou", "kappa",
    "tau_in", "tau_a", "tau_sim", "lambda_iou", "lambda_app", "lambda_mot",
    "lambda_time", "alpha", "gamma", "tau_acc",
    "tau_conf", "tau_jump", "tau_occ", "beta", "tau_match", "tau_snap",
    "tau_prior", "tau_ncc", "ncc_region_factor",
)


def config_to_dict(cfg: PipelineConfig) -> dict:
    out: dict = {}
    for key, fname in _SOURCE_KEYS.items():
        out[key] = getattr(cfg.source, fname)
    for key, fname in _DAM_KEYS.items():
        out[key] = getattr(cfg.dam, fname)
    for key in _PIPELINE_KEYS:
        out[key] = getattr(cfg, key)
    return out


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise TypeError("config must be a flat JSON object")
    unknown = sorted(set(data) - set(KNOWN_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key in _BOOL_KEYS:
        if key in data and not isinstance(data[key], bool):
            raise ValueError(f"config key {key} must be true or false, "
                             f"got {data[key]!r}")
    for key in _INT_KEYS:
        if key in data:
            json_int(data[key], f"config key {key}")
    source_kw = {
        fname: data[key] for key, fname in _SOURCE_KEYS.items() if key in data
    }
    dam_kw = {
        fname: data[key] for key, fname in _DAM_KEYS.items() if key in data
    }
    pipe_kw = {key: data[key] for key in _PIPELINE_KEYS if key in data}
    return PipelineConfig(
        dam=DamConfig(**dam_kw),
        source=SourceConfig(**source_kw),
        **pipe_kw,
    )


def load_config(path: str) -> PipelineConfig:
    return read_json(path, "config", config_from_dict)


def save_config(path: str, cfg: PipelineConfig) -> None:
    write_json(path, config_to_dict(cfg))


def scale_thresholds(cfg: PipelineConfig, factor: float) -> PipelineConfig:
    """Every continuous threshold and weight scaled by factor, clamped to its
    domain; used by perturbation-robustness sweeps."""
    if factor <= 0.0:
        raise ValueError("factor must be > 0")
    flat = config_to_dict(cfg)
    for key in PERTURBABLE:
        value = flat[key] * factor
        if key in ("kappa", "ncc_region_factor"):
            value = max(value, 1.0)
        else:
            value = min(max(value, 0.0), 1.0)
        flat[key] = value
    return config_from_dict(flat)
