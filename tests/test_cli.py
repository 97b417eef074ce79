"""Command-line runs and error paths: a bad input file or flag exits 1,
names the file (and the line, for JSONL) or the flag, and leaves no output
behind."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from conftest import tiny_scenario
from damtrack.bench import KNOCKOUTS, knockout_configs, ladder_configs
from damtrack.cli import main
from damtrack.config import config_to_dict, save_config
from damtrack import media
from damtrack.media import read_pnm, write_pnm
from damtrack.pipeline import PipelineConfig
from damtrack.synth import generate, scenario_spec_to_dict, write_scenario

_BOX = {"x": 10.0, "y": 12.0, "w": 8.0, "h": 6.0}


def _jsonl(path, records) -> str:
    path.write_text("".join(
        r if isinstance(r, str) else json.dumps(r) + "\n" for r in records))
    return str(path)


@pytest.fixture
def eval_inputs(tmp_path):
    """A valid two-frame prediction, ground truth and events file."""
    pred = _jsonl(tmp_path / "pred.jsonl", [
        {"t": 0, "box": _BOX, "mode": "stable"},
        {"t": 1, "box": _BOX, "mode": "holding"},
    ])
    gt = _jsonl(tmp_path / "gt.jsonl", [
        {"t": 0, "box": _BOX},
        {"t": 1, "occluded": True},
    ])
    events = tmp_path / "events.json"
    events.write_text(json.dumps({"occlusions": [{"start": 1, "end": 2}]}))
    return {"pred": pred, "gt": gt, "events": str(events),
            "out": str(tmp_path / "report.json")}


def _eval(files: dict) -> int:
    return main(["eval", "--pred", files["pred"], "--gt", files["gt"],
                 "--events", files["events"], "--out", files["out"]])


def _assert_failed(code: int, capsys, fragment: str, out_path) -> None:
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert fragment in err
    assert not out_path.exists()


def test_eval_valid_inputs(eval_inputs):
    assert _eval(eval_inputs) == 0
    with open(eval_inputs["out"]) as f:
        report = json.load(f)
    assert report["frames"] == 2
    assert report["mean_iou"] == 1.0
    assert report["events"] == 1


@pytest.mark.parametrize("line", [
    '{"t": 1, "mode": "stable"}\n',                       # no box
    '{"t": 1, "box": {"x": 1, "y": 2, "w": 3}, "mode": "stable"}\n',
    '{"t": 1, "box": null, "mode": "stable"}\n',
    '{"t": 1, "box": {"x": 1, "y": 2, "w": 3, "h": 4}}\n',  # no mode
    '{"t": 1, "box": {"x": 1, "y": 2, "w": 3, "h": 4}, "mode": 5}\n',
    '{"t": "one", "box": {"x": 1, "y": 2, "w": 3, "h": 4}, "mode": "x"}\n',
    '[1, 2]\n',
    '{"t": 1, "box": \n',                                 # not JSON
], ids=["no_box", "short_box", "null_box", "no_mode", "number_mode", "bad_t",
        "not_object", "not_json"])
def test_eval_bad_track_record_names_file_and_line(eval_inputs, tmp_path,
                                                   capsys, line):
    good = {"t": 0, "box": _BOX, "mode": "stable"}
    eval_inputs["pred"] = _jsonl(tmp_path / "bad_pred.jsonl", [good, line])
    code = _eval(eval_inputs)
    _assert_failed(code, capsys, f"{eval_inputs['pred']}:2: bad track record",
                   tmp_path / "report.json")


@pytest.mark.parametrize("line", [
    '{"t": 1}\n',                                         # neither box nor flag
    '{"t": 1, "box": {"x": 1, "y": 2}}\n',
    '{"box": {"x": 1, "y": 2, "w": 3, "h": 4}}\n',        # no t
    '"t"\n',
    'not json\n',
], ids=["no_box", "short_box", "no_t", "not_object", "not_json"])
def test_eval_bad_gt_record_names_file_and_line(eval_inputs, tmp_path,
                                                capsys, line):
    eval_inputs["gt"] = _jsonl(tmp_path / "bad_gt.jsonl",
                               [{"t": 0, "box": _BOX}, line])
    code = _eval(eval_inputs)
    _assert_failed(code, capsys,
                   f"{eval_inputs['gt']}:2: bad ground-truth record",
                   tmp_path / "report.json")


@pytest.mark.parametrize("content", [
    '{"occlusions": [{"start": 1}]}',
    '{"events": []}',
    '[]',
    '{"occlusions": [{"start": 1, "end": "two"}]}',
    '{"occlusions": ',
    '{"occlusions": [{"start": 2, "end": 1}]}',
    '{"occlusions": [{"start": -1, "end": 1}]}',
    '{"occlusions": [{"start": 1, "end": 3}]}',           # past the 2 frames
], ids=["no_end", "no_occlusions", "not_object", "bad_end", "not_json",
        "inverted", "negative_start", "past_end"])
def test_eval_bad_events_file_names_file(eval_inputs, tmp_path, capsys,
                                         content):
    path = tmp_path / "bad_events.json"
    path.write_text(content)
    eval_inputs["events"] = str(path)
    code = _eval(eval_inputs)
    _assert_failed(code, capsys, f"{path}: bad events file",
                   tmp_path / "report.json")


def _spec_with(**changes) -> dict:
    data = scenario_spec_to_dict(tiny_scenario(occ_len=0))
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return data


@pytest.mark.parametrize("content", [
    json.dumps(_spec_with(name=None)),                    # missing key
    json.dumps(_spec_with(seed="many")),
    json.dumps(_spec_with(dims=7)),
    json.dumps(_spec_with(target=[1, 2])),
    json.dumps([1, 2]),
    '{"name": "x", ',                                     # not JSON
], ids=["no_name", "bad_seed", "bad_dims", "bad_target", "not_object",
        "not_json"])
def test_synth_bad_spec_names_file(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    spec.write_text(content)
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(spec), "--out", str(out)])
    _assert_failed(code, capsys, f"{spec}: bad scenario spec", out)


def test_synth_valid_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec_with()))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "tiny" / "gt.jsonl").is_file()


def test_synth_spec_rejected_by_generate_names_file(tmp_path, capsys):
    # a 4-frame copy of the tiny scenario moves its target about 10 px/frame
    data = scenario_spec_to_dict(tiny_scenario(length=4, occ_len=0))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(spec), "--out", str(out)])
    _assert_failed(code, capsys, f"error: {spec}: tiny: target exceeds", out)


# --- bench --------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory) -> str:
    """A one-scenario suite on disk, with the default config file beside it."""
    suite = tmp_path_factory.mktemp("suite")
    write_scenario(generate(tiny_scenario()), str(suite / "tiny"))
    save_config(str(suite / "config.json"), PipelineConfig())
    return str(suite)


def _bench(suite_dir: str, out, *flags: str, suite: str | None = None) -> int:
    # an explicit config keeps the defaults notice off stderr
    return main(["bench", "--suite", suite or suite_dir,
                 "--config", os.path.join(suite_dir, "config.json"),
                 "--out", str(out), *flags])


def _rows(out) -> list[dict]:
    with open(out) as f:
        return json.load(f)["rows"]


def test_bench_default_row(suite_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _bench(suite_dir, out) == 0
    (row,) = _rows(out)
    assert row["config"] == "default"
    summary = row["summary"]
    assert summary["scenarios"] == 1
    for key in ("mean_iou", "robustness", "recovery_rate"):
        assert 0.0 <= summary[key] <= 1.0
    assert summary["timing"]["fps"] > 0


def test_bench_ladder_rows(suite_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _bench(suite_dir, out, "--ladder") == 0
    names = [name for name, _cfg in ladder_configs(PipelineConfig())]
    assert [row["config"] for row in _rows(out)] == names


def test_bench_knockout_rows(suite_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _bench(suite_dir, out, "--knockout") == 0
    names = ["full"] + [name for name, _override in KNOCKOUTS]
    assert [row["config"] for row in _rows(out)] == names


def test_knockouts_change_only_their_keys():
    base = config_to_dict(PipelineConfig())
    (full, cfg), *rows = knockout_configs(PipelineConfig())
    assert full == "full" and config_to_dict(cfg) == base
    assert [name for name, _cfg in rows] == [name for name, _ in KNOCKOUTS]
    for (_name, override), (_label, cfg) in zip(KNOCKOUTS, rows):
        changed = {key: value for key, value in config_to_dict(cfg).items()
                   if value != base[key]}
        assert changed == override


def test_bench_perturb_rows(suite_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _bench(suite_dir, out, "--perturb", "0.1") == 0
    assert [row["config"] for row in _rows(out)] == ["base", "down_0.1",
                                                      "up_0.1"]
    with open(out) as f:
        assert json.load(f)["iou_fluctuation"] >= 0.0


@pytest.mark.parametrize("flag,value", [
    ("--perturb", "0"), ("--perturb", "1"),
])
def test_bench_falsy_flag_values_rejected(suite_dir, tmp_path, capsys,
                                          flag, value):
    # a falsy value is still a given flag: it must not run the default row
    out = tmp_path / "report.json"
    code = _bench(suite_dir, out, flag, value)
    _assert_failed(code, capsys, flag, out)


def test_bench_exclusive_flags(suite_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = _bench(suite_dir, out, "--ladder", "--knockout")
    _assert_failed(code, capsys, "exclusive", out)


def test_bench_events_past_the_sequence_names_file(suite_dir, tmp_path,
                                                    capsys):
    suite = tmp_path / "suite"
    shutil.copytree(suite_dir, suite)
    path = suite / "tiny" / "events.json"
    events = json.loads(path.read_text())
    events["occlusions"].append({"start": 2, "end": 9999})
    path.write_text(json.dumps(events))
    out = tmp_path / "report.json"
    code = _bench(suite_dir, out, suite=str(suite))
    _assert_failed(code, capsys, f"{path}: bad events file", out)


def test_bench_missing_suite(suite_dir, tmp_path, capsys):
    missing = tmp_path / "no_suite"
    out = tmp_path / "report.json"
    code = _bench(suite_dir, out, suite=str(missing))
    _assert_failed(code, capsys, str(missing), out)


# --- track --------------------------------------------------------------------


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory) -> str:
    """A scenario on disk (frames/, detections.jsonl, gt.jsonl) and the
    default config file beside its frames."""
    root = tmp_path_factory.mktemp("track")
    write_scenario(generate(tiny_scenario(occ_len=0)), str(root))
    save_config(str(root / "config.json"), PipelineConfig())
    return str(root)


def _init_text(track_dir: str) -> str:
    with open(os.path.join(track_dir, "gt.jsonl")) as f:
        box = json.loads(f.readline())["box"]
    return ",".join(str(box[k]) for k in ("x", "y", "w", "h"))


def _track(track_dir: str, out, *flags: str, frames: str | None = None,
           init: str | None = None, detections: str | None = None) -> int:
    # an explicit config and detections file keep the notices off stderr
    return main([
        "track", "--frames", frames or os.path.join(track_dir, "frames"),
        "--init", _init_text(track_dir) if init is None else init,
        "--detections",
        detections or os.path.join(track_dir, "detections.jsonl"),
        "--config", os.path.join(track_dir, "config.json"),
        "--out", str(out), *flags])


def test_track_writes_outputs_and_annotations(track_dir, tmp_path):
    out = tmp_path / "track.jsonl"
    annotate = tmp_path / "frames_out"
    code = _track(track_dir, out, "--annotate", str(annotate))
    assert code == 0
    assert len(out.read_text().splitlines()) == 30
    assert sorted(os.listdir(annotate)) == [f"{t:05d}.ppm" for t in range(30)]


def test_track_decodes_each_frame_once(track_dir, tmp_path, monkeypatch):
    calls = []

    def counting_read_pnm(path):
        calls.append(path)
        return read_pnm(path)

    monkeypatch.setattr(media, "read_pnm", counting_read_pnm)
    code = _track(track_dir, tmp_path / "track.jsonl",
                  "--annotate", str(tmp_path / "frames_out"))
    assert code == 0
    assert len(calls) == 30 and len(set(calls)) == 30


def test_track_annotation_color_follows_mode(tmp_path):
    # the tiny scenario's cover makes the session hold the box over frames 12-16
    root = tmp_path / "covered"
    write_scenario(generate(tiny_scenario()), str(root))
    save_config(str(root / "config.json"), PipelineConfig())
    out = tmp_path / "track.jsonl"
    annotate = tmp_path / "frames_out"
    assert _track(str(root), out, "--annotate", str(annotate)) == 0
    colors = {}
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        box = rec["box"]
        pixels = read_pnm(str(annotate / f"{rec['t']:05d}.ppm"))
        # the middle of the outline's top edge
        x = int(round(box["x"] + box["w"] / 2))
        y = int(round(box["y"]))
        colors.setdefault(rec["mode"], set()).add(tuple(pixels[y, x]))
    assert colors.keys() == {"NORMAL", "HOLDING"}
    assert len(colors["NORMAL"]) == len(colors["HOLDING"]) == 1
    assert colors["NORMAL"] != colors["HOLDING"]


@pytest.mark.parametrize("value", [
    "a,b,c,d", "10,10,0,0", "10,10,-4,6", "10,10,nan,6", "10,inf,4,6",
    "10,10,4", "",
], ids=["not_numeric", "zero_size", "negative", "nan", "inf", "three_fields",
        "empty"])
def test_track_bad_init_names_value(track_dir, tmp_path, capsys, value):
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, init=value)
    _assert_failed(code, capsys, f"bad init box {value!r}: ", out)


def test_track_init_outside_frame(track_dir, tmp_path, capsys):
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, init="230,10,20,20")  # the frame is 240 wide
    _assert_failed(code, capsys, "init box", out)


def test_track_missing_frames_dir(track_dir, tmp_path, capsys):
    missing = tmp_path / "no_frames"
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, frames=str(missing))
    _assert_failed(code, capsys, str(missing), out)


def test_track_frame_of_other_dims_names_file(track_dir, tmp_path, capsys):
    frames = tmp_path / "frames"
    shutil.copytree(os.path.join(track_dir, "frames"), frames)
    odd = frames / "00003.ppm"
    write_pnm(str(odd), np.zeros((10, 12, 3), dtype=np.uint8))
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, frames=str(frames))
    _assert_failed(code, capsys, f"{odd}: dims 12x10 do not match", out)


def test_track_bad_detections_line_names_file_and_line(track_dir, tmp_path,
                                                      capsys):
    with open(os.path.join(track_dir, "detections.jsonl")) as f:
        first = f.readline()
    dets = _jsonl(tmp_path / "dets.jsonl", [first, '{"t": 1, "detections": 7}\n'])
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, detections=dets)
    _assert_failed(code, capsys, f"{dets}:2: bad detection record", out)


def test_track_bad_annotate_leaves_no_track_file(track_dir, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, "--annotate", str(taken))
    _assert_failed(code, capsys, str(taken), out)


@pytest.mark.parametrize("via", ["same_path", "other_path"])
def test_track_annotate_into_frames_dir_is_rejected(track_dir, tmp_path,
                                                    capsys, via):
    frames = tmp_path / "frames"
    shutil.copytree(os.path.join(track_dir, "frames"), frames)
    before = {p.name: p.read_bytes() for p in frames.iterdir()}
    annotate = frames if via == "same_path" else frames / ".." / "frames"
    out = tmp_path / "track.jsonl"
    code = _track(track_dir, out, "--annotate", str(annotate),
                  frames=str(frames))
    _assert_failed(code, capsys, f"--annotate {annotate} is the --frames "
                                 f"directory {frames}", out)
    assert {p.name: p.read_bytes() for p in frames.iterdir()} == before
