"""Flat config round trips, validation, and perturbation scaling."""

from __future__ import annotations

import json

import pytest

from damtrack.config import (KNOWN_KEYS, PERTURBABLE, config_from_dict,
                             config_to_dict, load_config, save_config,
                             scale_thresholds)
from damtrack.pipeline import PipelineConfig


def test_dict_round_trip_is_identity():
    cfg = PipelineConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    tweaked = config_from_dict({"tau_conf": 0.5, "ram_capacity": 4,
                                "use_drm": False})
    assert config_from_dict(config_to_dict(tweaked)) == tweaked


def test_partial_dict_fills_defaults():
    cfg = config_from_dict({"kappa": 3.0})
    assert cfg.source.kappa == 3.0
    assert cfg.source.tau_s == 0.45
    assert cfg.dam.ram_capacity == 10
    assert cfg.tau_conf == 0.35


def test_flat_keys_map_onto_nested_fields():
    cfg = config_from_dict({"delta": 5, "tau_in": 0.7, "stage1_reinit": "anchor"})
    assert cfg.source.stride_delta == 5
    assert cfg.dam.tau_in == 0.7
    assert cfg.stage1_reinit == "anchor"


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


def test_scale_thresholds_leaves_structure_alone():
    base = config_from_dict({"ram_capacity": 7, "delta": 4, "window_w": 9,
                             "use_drm": False, "stage1_reinit": "anchor"})
    scaled = scale_thresholds(base, 1.2)
    assert scaled.dam.ram_capacity == 7
    assert scaled.source.stride_delta == 4
    assert scaled.dam.window_w == 9
    assert scaled.use_drm is False
    assert scaled.stage1_reinit == "anchor"
    assert scaled.dam.neg_capacity == base.dam.neg_capacity
    assert scaled.dam.epsilon == base.dam.epsilon


def test_scale_thresholds_region_factor_floor():
    tiny = scale_thresholds(PipelineConfig(), 0.1)
    assert tiny.ncc_region_factor == 1.0
    assert tiny.source.kappa == 1.0


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
