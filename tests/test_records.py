"""Every JSON and JSON Lines reader names the file (and the line) on bad
input, no module but ``records`` parses or dumps JSON itself, and the one
typed decoder reads the config and the scenario spec by their fields."""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import json
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import damtrack
from conftest import tiny_scenario
from damtrack.cli import main, read_track_file
from damtrack.config import PipelineConfig, load_config
from damtrack.detection import read_detections_file
from damtrack.geometry import Box, FrameDims
from damtrack.records import decode
from damtrack.synth import (NoiseSpec, ObjectSpec, ScenarioSpec, generate,
                            read_events_file, read_gt_file,
                            scenario_spec_from_dict, scenario_spec_to_dict,
                            standard_suite)

_BOX = '{"x": 1, "y": 2, "w": 3, "h": 4}'


def _synth_spec(path: str) -> None:
    """``damtrack synth --spec``, its error message raised as a ValueError."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["synth", "--spec", path,
                     "--out", os.path.join(os.path.dirname(path), "out")])
    if code != 0:
        raise ValueError(err.getvalue())


# reader, a valid first line (JSON Lines only), and the three bad inputs:
# a non-ASCII byte, truncated JSON and a wrongly typed field
_READERS = {
    "detections": (read_detections_file, '{"t": 0, "detections": []}', {
        "non_ascii": b'{"t": 1, "detections": [], "note": "\xc3\xa9"}',
        "truncated": b'{"t": 1, "detections": [',
        "wrong_type": b'{"t": 1, "detections": [{"x": 1, "y": 2, "w": 3, '
                      b'"h": 4, "score": "high"}]}',
    }),
    "gt": (read_gt_file, f'{{"t": 0, "box": {_BOX}}}', {
        "non_ascii": b'{"t": 1, "occluded": true, "note": "\xe9"}',
        "truncated": b'{"t": 1, "box": ',
        "wrong_type": b'{"t": 1, "box": {"x": "left", "y": 2, "w": 3, "h": 4}}',
    }),
    "track": (read_track_file, f'{{"t": 0, "box": {_BOX}, "mode": "NORMAL"}}', {
        "non_ascii": b'{"t": 1, "box": {"x": 1, "y": 2, "w": 3, "h": 4}, '
                     b'"mode": "NORM\xc3\x81L"}',
        "truncated": b'{"t": 1, "box": {"x": 1',
        "wrong_type": b'{"t": 1, "box": [1, 2, 3, 4], "mode": "NORMAL"}',
    }),
    "events": (read_events_file, None, {
        "non_ascii": b'{"occlusions": [], "note": "\xe9"}',
        "truncated": b'{"occlusions": [{"start": 1',
        "wrong_type": b'{"occlusions": [{"start": "soon", "end": 3}]}',
    }),
    "config": (load_config, None, {
        "non_ascii": b'{"tau_s": 0.5, "note\xe9": 1}',
        "truncated": b'{"tau_s": ',
        "wrong_type": b'{"use_drm": "false"}',
    }),
    "scenario_spec": (_synth_spec, None, {
        "non_ascii": b'{"name": "\xc3\xa9"}',
        "truncated": b'{"name": "x", ',
        "wrong_type": b'{"name": "x", "seed": "many", "target": {}}',
    }),
}


@pytest.mark.parametrize("bad", ["non_ascii", "truncated", "wrong_type"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_reader_names_file_and_line(tmp_path, reader, bad):
    read, first_line, cases = _READERS[reader]
    path = tmp_path / "input"
    if first_line is None:
        path.write_bytes(cases[bad])
        where = f"{path}: bad "
    else:
        path.write_bytes(first_line.encode() + b"\n" + cases[bad] + b"\n")
        where = f"{path}:2: bad "
    with pytest.raises(ValueError) as err:
        read(str(path))
    assert where in str(err.value)


# reader, a valid first line (JSON Lines only), and bad inputs whose frame
# index is not a JSON integer or whose box field or score is not a JSON number
_STRICT_CASES = {
    "detections": (read_detections_file, '{"t": 0, "detections": []}', {
        "t_fraction": '{"t": 1.9, "detections": []}',
        "t_bool": '{"t": true, "detections": []}',
        "t_string": '{"t": "1", "detections": []}',
        "x_string": '{"t": 1, "detections": [{"x": "1", "y": 2, "w": 3, '
                    '"h": 4, "score": 0.9}]}',
        "w_bool": '{"t": 1, "detections": [{"x": 1, "y": 2, "w": true, '
                  '"h": 4, "score": 0.9}]}',
        "score_string": '{"t": 1, "detections": [{"x": 1, "y": 2, "w": 3, '
                        '"h": 4, "score": "0.9"}]}',
        "score_bool": '{"t": 1, "detections": [{"x": 1, "y": 2, "w": 3, '
                      '"h": 4, "score": true}]}',
    }),
    "gt": (read_gt_file, f'{{"t": 0, "box": {_BOX}}}', {
        "t_fraction": f'{{"t": 1.9, "box": {_BOX}}}',
        "t_bool": f'{{"t": true, "box": {_BOX}}}',
        "x_string": '{"t": 1, "box": {"x": "1", "y": 2, "w": 3, "h": 4}}',
        "h_bool": '{"t": 1, "box": {"x": 1, "y": 2, "w": 3, "h": true}}',
    }),
    "track": (read_track_file, f'{{"t": 0, "box": {_BOX}, "mode": "NORMAL"}}', {
        "t_fraction": f'{{"t": 1.9, "box": {_BOX}, "mode": "NORMAL"}}',
        "t_bool": f'{{"t": true, "box": {_BOX}, "mode": "NORMAL"}}',
        "x_string": '{"t": 1, "box": {"x": "1", "y": 2, "w": 3, "h": 4}, '
                    '"mode": "NORMAL"}',
        "y_null": '{"t": 1, "box": {"x": 1, "y": null, "w": 3, "h": 4}, '
                  '"mode": "NORMAL"}',
    }),
    "events": (read_events_file, None, {
        "start_fraction": '{"occlusions": [{"start": 1.5, "end": 3}]}',
        "start_bool": '{"occlusions": [{"start": true, "end": 3}]}',
        "end_string": '{"occlusions": [{"start": 1, "end": "3"}]}',
    }),
}


@pytest.mark.parametrize("reader,bad", [
    (reader, bad) for reader, (_, _, cases) in sorted(_STRICT_CASES.items())
    for bad in cases])
def test_reader_requires_json_integers_and_numbers(tmp_path, reader, bad):
    # "t": 1.9 and "t": true used to read as frame 1, "x": "1" as 1.0
    read, first_line, cases = _STRICT_CASES[reader]
    path = tmp_path / "input"
    if first_line is None:
        path.write_text(cases[bad])
        where = f"{path}: bad "
    else:
        path.write_text(first_line + "\n" + cases[bad] + "\n")
        where = f"{path}:2: bad "
    with pytest.raises(ValueError) as err:
        read(str(path))
    assert where in str(err.value)
    assert re.search(r"must be an? (integer|number)", str(err.value))


def test_readers_take_integral_box_fields_as_floats(tmp_path):
    # a JSON integer is a JSON number: hand-written files stay readable
    path = tmp_path / "gt.jsonl"
    path.write_text(f'{{"t": 0, "box": {_BOX}}}\n')
    boxes, _ = read_gt_file(str(path))
    assert boxes == [Box(1.0, 2.0, 3.0, 4.0)]
    assert all(isinstance(v, float) for v in boxes[0].to_dict().values())


_JSON_CALLS = {"load", "loads", "dump"}


def test_only_records_parses_or_dumps_json():
    package = os.path.dirname(damtrack.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "records.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in _JSON_CALLS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                offenders.append(f"{name}:{node.lineno}: json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders.append(f"{name}:{node.lineno}: from json import")
    assert not offenders, offenders


# a small valid scenario spec; each case below mistypes one of its fields
_SPEC = {
    "name": "typed", "seed": 7, "length": 20, "dims": [96, 64],
    "target": {"color": [200, 60, 60], "size": [12, 12], "texture_amp": 0.8,
               "block": 4, "evolve_rate": 0.0,
               "waypoints": [[0, 30, 30], [19, 40, 30]]},
    "distractors": [{"color": [200, 60, 60], "size": [12, 12],
                     "pattern_similarity": 0.5, "waypoints": [[0, 70, 40]]}],
    "occlusions": [{"start": 5, "duration": 4, "pad": 4,
                    "color": [98, 102, 114]}],
    "noise": {"center_sigma": 1.0, "size_sigma": 0.5, "fp_rate": 0.1,
              "miss_rate": 0.0, "blackout": 1},
}

# (path to the field, wrong value); each used to load, by int(), float() or
# str(), or raw
_SPEC_CASES = {
    "name_number": (("name",), 5),
    "seed_fraction": (("seed",), 7.9),
    "seed_string": (("seed",), "7"),
    "length_fraction": (("length",), 20.6),
    "dims_fraction_and_string": (("dims",), [96.5, "64"]),
    "size_string_and_bool": (("target", "size"), ["12", True]),
    "color_bool": (("target", "color"), [200, True, 60]),
    "block_fraction": (("target", "block"), 4.5),
    "texture_amp_string": (("target", "texture_amp"), "0.8"),
    "evolve_rate_bool": (("target", "evolve_rate"), True),
    "waypoint_frame_fraction": (("target", "waypoints"),
                                [[0.5, 30, 30], [19, 40, 30]]),
    "waypoint_x_string": (("target", "waypoints"),
                          [[0, "30", 30], [19, 40, 30]]),
    "similarity_string": (("distractors", 0, "pattern_similarity"), "0.5"),
    "start_fraction": (("occlusions", 0, "start"), 5.7),
    "duration_bool": (("occlusions", 0, "duration"), True),
    "pad_string": (("occlusions", 0, "pad"), "4"),
    "occluder_color_fraction": (("occlusions", 0, "color"), [98, 102.5, 114]),
    "sigma_bool": (("noise", "center_sigma"), True),
    "fp_rate_string": (("noise", "fp_rate"), "0.1"),
    "blackout_fraction": (("noise", "blackout"), 2.5),
}


def test_spec_cases_start_from_a_valid_spec():
    spec = scenario_spec_from_dict(copy.deepcopy(_SPEC))
    assert spec.seed == 7 and spec.noise.blackout == 1
    assert generate(spec).gt_boxes[0] is not None


@pytest.mark.parametrize("case", sorted(_SPEC_CASES))
def test_scenario_spec_fields_are_typed(tmp_path, case):
    where, value = _SPEC_CASES[case]
    data = copy.deepcopy(_SPEC)
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        _synth_spec(str(path))
    assert f"{path}: bad scenario spec" in str(err.value)
    assert re.search(r"must be an? (integer|number|string)", str(err.value))
    assert not os.path.exists(tmp_path / "out")


def _with(where: tuple, value) -> dict:
    """A copy of _SPEC with the field at where set to value."""
    data = copy.deepcopy(_SPEC)
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return data


# one case per range rule of the spec classes: the path to the field, a
# value just outside the range, the value at the edge it accepts (None: no
# edge), and the field the error must name; each used to load, or to fail
# later without naming the field
_RANGE_CASES = {
    "center_sigma_negative": (("noise", "center_sigma"), -0.1, 0.0,
                              "center_sigma"),
    "center_sigma_nan": (("noise", "center_sigma"), math.nan, None,
                         "center_sigma"),
    "size_sigma_negative": (("noise", "size_sigma"), -0.1, 0.0, "size_sigma"),
    "fp_rate_above_one": (("noise", "fp_rate"), 7.0, 1.0, "fp_rate"),
    "fp_rate_negative": (("noise", "fp_rate"), -0.1, 0.0, "fp_rate"),
    "miss_rate_above_one": (("noise", "miss_rate"), 1.1, 1.0, "miss_rate"),
    "blackout_negative": (("noise", "blackout"), -3, 0, "blackout"),
    "start_negative": (("occlusions", 0, "start"), -1, 0, "start"),
    "duration_zero": (("occlusions", 0, "duration"), 0, 1, "duration"),
    "pad_negative": (("occlusions", 0, "pad"), -50, 0, "pad"),
    "occluder_color_above_255": (("occlusions", 0, "color"), [98, 256, 114],
                                 [98, 255, 114], "color"),
    "target_color_out_of_range": (("target", "color"), [999, -4, 3],
                                  [255, 0, 3], "color"),
    "size_zero": (("target", "size"), [12, 0], [12, 1], "size"),
    "block_zero": (("target", "block"), 0, 1, "block"),
    "evolve_rate_above_one": (("target", "evolve_rate"), 1.5, 1.0,
                              "evolve_rate"),
    "evolve_rate_negative": (("target", "evolve_rate"), -0.1, 0.0,
                             "evolve_rate"),
    # a rule's error is prefixed by the path of the object that broke it
    "distractor_color_negative": (("distractors", 0, "color"), [-1, 60, 60],
                                  [0, 60, 60], "distractors[0]: color"),
    # wrong lengths: a two-channel colour used to fail at the first rendered
    # frame, a three-item size inside generate
    "color_too_short": (("target", "color"), [200, 60], None, "color"),
    "size_too_long": (("target", "size"), [12, 12, 5], None, "size"),
}


@pytest.mark.parametrize("case", sorted(_RANGE_CASES))
def test_scenario_spec_range_rules(tmp_path, case):
    where, bad, edge, field = _RANGE_CASES[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_with(where, bad)))
    with pytest.raises(ValueError) as err:
        _synth_spec(str(path))
    assert f"{path}: bad scenario spec" in str(err.value)
    assert field in str(err.value)
    assert not os.path.exists(tmp_path / "out")
    if edge is not None:
        scenario_spec_from_dict(_with(where, edge))


def test_spec_classes_check_their_ranges_when_built_in_python():
    with pytest.raises(ValueError, match="center_sigma"):
        NoiseSpec(center_sigma=math.nan)
    with pytest.raises(ValueError, match="block"):
        ObjectSpec(color=(1, 2, 3), block=0, waypoints=((0, 1.0, 1.0),))


def test_decode_names_a_missing_key_by_its_path():
    data = copy.deepcopy(_SPEC)
    del data["target"]["color"]
    with pytest.raises(ValueError) as err:
        decode(ScenarioSpec, data, "scenario")
    assert "scenario key target.color is missing" in str(err.value)


@pytest.mark.parametrize("where,value,message", [
    (("target", "waypoints", 1, 0), 0.5,
     "scenario key target.waypoints[1][0] must be an integer"),
    (("target", "wobble"), 1, "unknown scenario keys: target.wobble"),
    (("target",), [1, 2], "scenario key target must be a flat JSON object"),
    (("dims",), {"width": 96, "height": 64},
     "scenario key dims must be a JSON array"),
    (("dims",), [96], "scenario key dims must be a JSON array of 2 items"),
], ids=["waypoint_frame", "unknown_key", "target_array", "dims_object",
        "dims_short"])
def test_decode_names_the_dotted_path(where, value, message):
    with pytest.raises(ValueError) as err:
        decode(ScenarioSpec, _with(where, value), "scenario")
    assert message in str(err.value)


def test_decode_reads_null_as_an_unset_optional_field():
    spec = decode(ScenarioSpec, _with(
        ("distractors", 0, "pattern_similarity"), None), "scenario")
    assert spec.distractors[0].pattern_similarity is None


def test_decode_reads_only_frame_dims_from_an_array():
    assert decode(FrameDims, [96, 64], "dims") == FrameDims(96, 64)
    with pytest.raises(ValueError, match="config must be a flat JSON object"):
        decode(PipelineConfig, [0.45, 0.5], "config")
    with pytest.raises(ValueError, match="must be a flat JSON object"):
        decode(ObjectSpec, [[1, 2, 3]], "target")


_SPECS = standard_suite() + [
    tiny_scenario(),
    tiny_scenario(with_distractor=True, noise=NoiseSpec(1.0, 0.5, 0.1, 0.05, 2)),
]


def _json_spec(spec: ScenarioSpec):
    return json.loads(json.dumps(scenario_spec_to_dict(spec)))


def _leaves(value, keys=(), path=""):
    """(keys, dotted path, value) of every scalar in a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, keys + (k,), f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, keys + (i,), f"{path}[{i}]")
    else:
        yield keys, path, value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SPECS))
def test_spec_round_trips_through_json(spec):
    assert scenario_spec_from_dict(_json_spec(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SPECS), st.data())
def test_wrongly_typed_leaf_is_rejected_by_its_path(spec, data):
    doc = _json_spec(spec)
    keys, path, value = data.draw(st.sampled_from(list(_leaves(doc))))
    # no leaf of a spec is a bool, an array or an object, and a string leaf
    # takes no number: each of these has the wrong JSON type for its leaf
    wrong = data.draw(st.sampled_from(
        [True, [], {}, 1.5 if isinstance(value, str) else "1.5"]))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = wrong
    with pytest.raises(ValueError) as err:
        scenario_spec_from_dict(doc)
    assert f"scenario key {path} must be" in str(err.value)
