"""Detection provisioning: filtering, NMS vs a reference implementation,
scheduling, ROI replay, and the JSONL format."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_scene
from damtrack.config import PipelineConfig
from damtrack.detection import (Detection, DetectionSet, ScriptedDetector,
                                filter_confident, nms, provide,
                                read_detections_file, schedule,
                                write_detections_file)
from damtrack.geometry import Box, iou


def random_detections(rng, n: int, t: int = 0) -> DetectionSet:
    dets = []
    for _ in range(n):
        b = Box(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)),
                float(rng.uniform(3, 15)), float(rng.uniform(3, 15)))
        # coarse scores so ties actually happen
        dets.append(Detection(b, round(float(rng.uniform(0.3, 1.0)), 1)))
    return DetectionSet(t, dets)


def reference_nms(dets: DetectionSet, thresh: float) -> list[Detection]:
    """Greedy NMS, written independently: stable sort, earlier index on ties."""
    pending = sorted(enumerate(dets.detections), key=lambda p: (-p[1].score, p[0]))
    kept: list[Detection] = []
    for _i, d in pending:
        if not any(iou(d.box, k.box) >= thresh for k in kept):
            kept.append(d)
    return kept


def test_detection_score_validation():
    b = Box(0, 0, 5, 5)
    Detection(b, 0.0)
    Detection(b, 1.0)
    with pytest.raises(ValueError):
        Detection(b, -0.01)
    with pytest.raises(ValueError):
        Detection(b, 1.2)
    with pytest.raises(ValueError):
        Detection(b, float("nan"))


def test_filter_confident_boundary_and_order():
    boxes = [Box(i * 10, 0, 5, 5) for i in range(4)]
    ds = DetectionSet(3, [Detection(boxes[0], 0.44), Detection(boxes[1], 0.45),
                          Detection(boxes[2], 0.90), Detection(boxes[3], 0.10)])
    out = filter_confident(ds, 0.45)
    assert out.t == 3
    assert [d.box for d in out] == [boxes[1], boxes[2]]  # >= keeps the boundary


def test_nms_matches_reference(rng):
    for trial in range(300):
        ds = random_detections(rng, int(rng.integers(0, 10)))
        thresh = float(rng.uniform(0.1, 0.9))
        got = nms(ds, thresh).detections
        assert got == reference_nms(ds, thresh), f"trial {trial}"


def test_nms_tie_keeps_earlier_index():
    a = Detection(Box(0, 0, 10, 10), 0.8)
    b = Detection(Box(1, 0, 10, 10), 0.8)  # heavy overlap, same score
    out = nms(DetectionSet(0, [a, b]), 0.5)
    assert out.detections == [a]
    out_swapped = nms(DetectionSet(0, [b, a]), 0.5)
    assert out_swapped.detections == [b]


def test_nms_keeps_disjoint():
    a = Detection(Box(0, 0, 5, 5), 0.6)
    b = Detection(Box(20, 20, 5, 5), 0.9)
    out = nms(DetectionSet(0, [a, b]), 0.5)
    assert out.detections == [b, a]  # reordered by score


def test_schedule_stride_and_occlusion():
    # stride 3: frames 0, 3, 6, ... run; occlusion forces a run
    assert schedule(0, 3, False)
    assert not schedule(1, 3, False)
    assert not schedule(2, 3, False)
    assert schedule(3, 3, False)
    assert schedule(1, 3, True)
    assert schedule(3, 3, True)
    assert schedule(5, 1, False)
    with pytest.raises(ValueError):
        schedule(-1, 3, False)
    with pytest.raises(ValueError):
        schedule(0, 0, False)


def test_scripted_detector_roi_filtering():
    near = Detection(Box(10, 10, 10, 10), 0.9)
    far = Detection(Box(200, 150, 10, 10), 0.9)
    det = ScriptedDetector({0: [near, far]})
    frame = make_scene(240, 180, [])
    assert det.detect(frame).detections == [near, far]
    roi = Box(0, 0, 40, 40)
    assert det.detect(frame, roi).detections == [near]
    # frames absent from the script have no detections
    frame1 = make_scene(240, 180, [], index=1)
    assert det.detect(frame1).detections == []


def test_provide_stale_and_fresh():
    frame = make_scene(240, 180, [])
    prev = Box(8, 8, 14, 14)
    cfg = PipelineConfig(tau_s=0.45, nms_iou=0.5, delta=3, kappa=2.0)
    inside = Detection(Box(10, 10, 10, 10), 0.9)
    weak = Detection(Box(12, 12, 10, 10), 0.30)  # filtered by tau_s
    outside = Detection(Box(200, 100, 10, 10), 0.9)  # outside the ROI
    det = ScriptedDetector({0: [inside, weak, outside]})
    stale = DetectionSet(7, [outside])
    assert provide(det, frame, prev, False, False, stale, cfg) is stale
    roi_run = provide(det, frame, prev, True, False, stale, cfg)
    assert roi_run.detections == [inside]
    full_run = provide(det, frame, prev, True, True, stale, cfg)
    assert full_run.detections == [inside, outside]


def test_provide_applies_nms():
    frame = make_scene(100, 100, [])
    a = Detection(Box(10, 10, 10, 10), 0.7)
    b = Detection(Box(11, 10, 10, 10), 0.95)
    det = ScriptedDetector({0: [a, b]})
    cfg = PipelineConfig()
    out = provide(det, frame, Box(10, 10, 10, 10), True, True,
                  DetectionSet(0, []), cfg)
    assert out.detections == [b]


def test_detections_file_round_trip(tmp_path, rng):
    per_frame = {}
    for t in (0, 2, 5):
        per_frame[t] = [
            Detection(Box(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                          5.0, 6.0), round(float(rng.uniform(0, 1)), 6))
            for _ in range(int(rng.integers(0, 3)))
        ]
    path = str(tmp_path / "dets.jsonl")
    write_detections_file(path, per_frame)
    back = read_detections_file(path)
    assert back == per_frame


def test_detections_file_bad_record_names_line(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as f:
        f.write('{"t": 0, "detections": []}\n')
        f.write('{"t": 1, "detections": [{"x": 1, "y": 2, "w": 3}]}\n')
    with pytest.raises(ValueError) as err:
        read_detections_file(path)
    assert f"{path}:2" in str(err.value)
    assert "bad detection record" in str(err.value)


@pytest.mark.parametrize("second", [
    '{"t": 1, "detections": []}\n',                     # repeated frame
    '{"t": -4, "detections": []}\n',
], ids=["repeated", "negative"])
def test_detections_file_rejects_repeated_or_negative_frame(tmp_path, second):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"t": 1, "detections": '
                    '[{"x": 1, "y": 2, "w": 3, "h": 4, "score": 0.9}]}\n'
                    + second)
    with pytest.raises(ValueError) as err:
        read_detections_file(str(path))
    assert f"{path}:2: bad detection record" in str(err.value)
    assert "negative or repeated" in str(err.value)
