"""Flat config round trips, the pinned schema, typed keys, validation, and
perturbation scaling."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

from damtrack.config import (KNOWN_KEYS, PERTURBABLE, PipelineConfig,
                             config_from_dict, config_to_dict, load_config,
                             save_config, scale_thresholds)

# every key and default of the on-disk format; a change here breaks saved
# configs, so it is a deliberate schema change, not a refactor
SCHEMA = {
    "tau_s": 0.45, "nms_iou": 0.5, "delta": 3, "kappa": 2.0,
    "ram_capacity": 10, "drm_capacity": 10, "tau_in": 0.5, "tau_a": 0.2,
    "tau_sim": 0.85, "window_w": 5, "m_min": 3, "lambda_iou": 0.4,
    "lambda_app": 0.3, "lambda_mot": 0.2, "lambda_time": 0.1, "alpha": 0.05,
    "gamma": 0.25, "tau_acc": 0.3, "neg_capacity": 20, "epsilon": 1e-06,
    "tau_conf": 0.35, "tau_jump": 0.3, "tau_occ": 0.4, "beta": 0.3,
    "tau_match": 0.5, "tau_snap": 0.5, "tau_prior": 0.2, "tau_ncc": 0.6,
    "ncc_region_factor": 4.0, "stage1_reinit": "ref", "use_detector": True,
    "use_ram": True, "use_drm": True, "use_held": True,
}
# sha256 of the 659 bytes save_config writes for the defaults
DEFAULTS_SHA256 = (
    "dcf9b1c69300ace824aa4b4bd680f638f8f0e1f7122fb1df2c337cd336d69036")

FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


def test_schema_is_pinned(tmp_path):
    defaults = config_to_dict(PipelineConfig())
    assert defaults == SCHEMA
    assert {k: type(v) for k, v in defaults.items()} == {
        k: type(v) for k, v in SCHEMA.items()}
    path = tmp_path / "defaults.json"
    save_config(str(path), PipelineConfig())
    data = path.read_bytes()
    assert len(data) == 659
    assert hashlib.sha256(data).hexdigest() == DEFAULTS_SHA256


def test_dict_round_trip_is_identity():
    cfg = PipelineConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    tweaked = config_from_dict({"tau_conf": 0.5, "ram_capacity": 4,
                                "use_drm": False})
    assert config_from_dict(config_to_dict(tweaked)) == tweaked


def test_partial_dict_fills_defaults():
    cfg = config_from_dict({"kappa": 3.0})
    assert cfg.kappa == 3.0
    assert cfg.tau_s == 0.45
    assert cfg.ram_capacity == 10
    assert cfg.tau_conf == 0.35


def test_every_field_is_a_json_key():
    names = [f.name for f in fields(PipelineConfig)]
    assert names == list(KNOWN_KEYS) == list(config_to_dict(PipelineConfig()))
    # every field type has a JSON decoder, and every JSON key decodes
    assert {f.type for f in fields(PipelineConfig)} == {
        "int", "float", "str", "bool"}
    assert config_from_dict(SCHEMA) == PipelineConfig()


# one case per range rule: the key, a value just outside its range, and the
# value at the edge it accepts
_RANGE_RULES = [
    ("tau_s", 1.01, 1.0), ("nms_iou", -0.01, 0.0), ("tau_in", 1.01, 1.0),
    ("tau_a", -0.01, 0.0), ("tau_sim", 1.01, 1.0), ("tau_conf", -0.01, 0.0),
    ("tau_jump", 1.01, 1.0), ("tau_occ", -0.01, 0.0), ("beta", 1.01, 1.0),
    ("tau_match", -0.01, 0.0), ("tau_snap", 1.01, 1.0),
    ("tau_prior", -0.01, 0.0), ("tau_ncc", 1.01, 1.0),
    ("lambda_iou", -0.01, 0.0), ("lambda_app", -0.01, 0.0),
    ("lambda_mot", -0.01, 0.0), ("lambda_time", -0.01, 0.0),
    ("alpha", -0.01, 0.0), ("gamma", -0.01, 0.0), ("tau_acc", -0.01, 0.0),
    ("delta", 0, 1), ("ram_capacity", 0, 1), ("drm_capacity", 0, 1),
    ("neg_capacity", 0, 1), ("window_w", 0, 1), ("m_min", 0, 1),
    ("kappa", 0.99, 1.0), ("ncc_region_factor", 0.99, 1.0),
    ("epsilon", 0.0, 1e-12),
]


@pytest.mark.parametrize("key,bad,edge", _RANGE_RULES,
                         ids=[rule[0] for rule in _RANGE_RULES])
def test_range_rules(key, bad, edge):
    with pytest.raises(ValueError) as err:
        config_from_dict({key: bad})
    assert key in str(err.value)
    assert getattr(config_from_dict({key: edge}), key) == edge


def test_unknown_keys_rejected():
    with pytest.raises(ValueError) as err:
        config_from_dict({"tau_conf": 0.3, "zeta": 1, "aleph": 2})
    assert "unknown config keys: aleph, zeta" in str(err.value)


def test_save_load_round_trip(tmp_path):
    cfg = config_from_dict({"tau_snap": 0.4, "drm_capacity": 6})
    path = str(tmp_path / "cfg.json")
    save_config(path, cfg)
    text = open(path).read()
    assert text.endswith("\n")
    assert json.loads(text) == config_to_dict(cfg)
    assert load_config(path) == cfg


def test_load_config_errors_name_the_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"wat": 1}')
    with pytest.raises(ValueError) as err:
        load_config(str(bad))
    assert str(bad) in str(err.value) and "unknown config keys" in str(err.value)
    nondict = tmp_path / "list.json"
    nondict.write_text("[1, 2]")
    with pytest.raises(ValueError) as err:
        load_config(str(nondict))
    assert "flat JSON object" in str(err.value)


def test_scale_thresholds_exact_values():
    base = PipelineConfig()
    up = scale_thresholds(base, 1.2)
    down = scale_thresholds(base, 0.8)
    flat_base = config_to_dict(base)
    flat_up = config_to_dict(up)
    flat_down = config_to_dict(down)
    for key in PERTURBABLE:
        if key in ("kappa", "ncc_region_factor"):
            assert flat_down[key] == pytest.approx(
                max(flat_base[key] * 0.8, 1.0))
            assert flat_up[key] == pytest.approx(flat_base[key] * 1.2)
        else:
            assert flat_up[key] == pytest.approx(
                min(flat_base[key] * 1.2, 1.0))
            assert flat_down[key] == pytest.approx(flat_base[key] * 0.8)
    # tau_sim is the one default that hits the unit ceiling at 1.2x
    assert flat_up["tau_sim"] == 1.0


def test_scale_thresholds_keeps_open_ranges_unclamped():
    # gamma is bounded below only, so 1.5 scales both ways
    base = PipelineConfig(gamma=1.5)
    assert scale_thresholds(base, 1.1).gamma == pytest.approx(1.65)
    assert scale_thresholds(base, 0.9).gamma == pytest.approx(1.35)


def test_scale_thresholds_leaves_structure_alone():
    base = config_from_dict({"ram_capacity": 7, "delta": 4, "window_w": 9,
                             "use_drm": False, "stage1_reinit": "anchor"})
    scaled = scale_thresholds(base, 1.2)
    assert scaled.ram_capacity == 7
    assert scaled.delta == 4
    assert scaled.window_w == 9
    assert scaled.use_drm is False
    assert scaled.stage1_reinit == "anchor"
    assert scaled.neg_capacity == base.neg_capacity
    assert scaled.epsilon == base.epsilon


def test_scale_thresholds_region_factor_floor():
    tiny = scale_thresholds(PipelineConfig(), 0.1)
    assert tiny.ncc_region_factor == 1.0
    assert tiny.kappa == 1.0


def test_scale_thresholds_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        scale_thresholds(PipelineConfig(), 0.0)
    with pytest.raises(ValueError):
        scale_thresholds(PipelineConfig(), -1.0)


def test_perturbable_is_the_continuous_subset():
    assert set(PERTURBABLE) <= set(KNOWN_KEYS)
    structural = {"delta", "ram_capacity", "drm_capacity", "window_w", "m_min",
                  "neg_capacity", "epsilon", "stage1_reinit", "use_detector",
                  "use_ram", "use_drm", "use_held"}
    assert set(KNOWN_KEYS) - set(PERTURBABLE) == structural


@pytest.mark.parametrize("key", [k for k in KNOWN_KEYS if k.startswith("use_")])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_switch_must_be_a_json_bool(key, value):
    with pytest.raises(ValueError) as err:
        config_from_dict({key: value})
    assert key in str(err.value)
    cfg = config_from_dict({"use_drm": False, key: False})
    assert getattr(cfg, key) is False


@pytest.mark.parametrize("key", ["delta", "ram_capacity", "drm_capacity",
                                 "window_w", "m_min", "neg_capacity"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_integer_keys_reject_non_integers(key, value):
    with pytest.raises(ValueError) as err:
        config_from_dict({key: value})
    assert key in str(err.value)
    assert config_to_dict(config_from_dict({key: 4}))[key] == 4


def test_type_errors_name_the_path_and_key(tmp_path):
    path = tmp_path / "typed.json"
    path.write_text('{"use_drm": "false"}')
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(path) in str(err.value) and "use_drm" in str(err.value)
    path.write_text('{"delta": 2.5}')
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(path) in str(err.value) and "delta" in str(err.value)


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("text", ["true", '"0.5"', "NaN", "Infinity"])
def test_float_keys_are_finite_json_numbers(tmp_path, key, text):
    # each of these used to load; true was even written back by save_config
    with pytest.raises(ValueError) as err:
        config_from_dict(json.loads(f'{{"{key}": {text}}}'))
    assert key in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{key}": {text}}}')
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(path) in str(err.value) and key in str(err.value)


def test_integral_float_key_reads_as_float(tmp_path):
    cfg = config_from_dict({"kappa": 3})
    assert cfg.kappa == 3.0 and isinstance(cfg.kappa, float)
    path = tmp_path / "cfg.json"
    save_config(str(path), cfg)
    assert '"kappa": 3.0' in path.read_text()


@pytest.mark.parametrize("value", [1, None, True, ["ref"]])
def test_string_key_must_be_a_json_string(value):
    with pytest.raises(ValueError) as err:
        config_from_dict({"stage1_reinit": value})
    assert "config key stage1_reinit must be a string" in str(err.value)
