"""Scenario generator: determinism, randomness oracles, scene and file contracts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import tiny_scenario
from damtrack.geometry import Box, FrameDims, iou
from damtrack.synth import (GOLDEN, MASK64, MAX_SPEED, NoiseSpec, ObjectSpec,
                            OcclusionSpec, ScenarioSpec, SplitMix64, generate,
                            hash_u64, hash_uniform_array, read_events_file,
                            read_gt_file, scenario_spec_from_dict,
                            scenario_spec_to_dict, standard_suite,
                            write_scenario)


# --- randomness ---------------------------------------------------------------


def test_splitmix_reference_sequence():
    # published reference outputs for the seed-0 stream
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_uniform_range_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    draws = [a.uniform() for _ in range(2000)]
    assert [b.uniform() for _ in range(2000)] == draws
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(float(np.mean(draws)) - 0.5) < 0.02


def test_splitmix_normal_moments():
    g = SplitMix64(7)
    draws = np.array([g.normal(2.0) for _ in range(20000)])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 2.0) < 0.05


def test_hash_u64_stateless_and_tag_sensitive():
    assert hash_u64(5, 1, 2) == hash_u64(5, 1, 2)
    assert hash_u64(5, 1, 2) != hash_u64(5, 2, 1)
    assert hash_u64(5, 1) != hash_u64(6, 1)


def test_hash_uniform_array_matches_scalar_mixer():
    """The vectorized keyed stream must equal a scalar reimplementation."""
    seed, tags, n = 987654321, (3, 14, 15), 9

    def scalar(i: int) -> float:
        x = (hash_u64(seed, *tags) + (i + 1) * GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        x = x ^ (x >> 31)
        return (x >> 11) * 2.0 ** -53

    got = hash_uniform_array(seed, tags, n)
    assert got.tolist() == [scalar(i) for i in range(n)]


# --- spec validation ----------------------------------------------------------


def test_object_spec_validation():
    with pytest.raises(ValueError):
        ObjectSpec(color=(1, 2, 3), waypoints=())
    with pytest.raises(ValueError):
        ObjectSpec(color=(1, 2, 3), texture_amp=1.5, waypoints=((0, 5, 5),))
    with pytest.raises(ValueError):
        ObjectSpec(color=(1, 2, 3), pattern_similarity=1.2,
                   waypoints=((0, 5, 5),))
    with pytest.raises(ValueError):
        # lockstep patterns already follow the target's evolution
        ObjectSpec(color=(1, 2, 3), pattern_similarity=0.8, evolve_rate=0.01,
                   waypoints=((0, 5, 5),))


def test_scenario_spec_validation():
    target = ObjectSpec(color=(1, 2, 3), waypoints=((0, 50, 50),))
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", seed=1, target=target, length=1)
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", seed=1, target=target, length=20,
                     occlusions=(OcclusionSpec(15, 10),))  # hangs past the end
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", seed=1, target=target, length=40,
                     occlusions=(OcclusionSpec(5, 10), OcclusionSpec(12, 5)))


def test_generate_rejects_fast_or_escaping_paths():
    fast = ScenarioSpec(
        name="fast", seed=1, length=10,
        target=ObjectSpec(color=(9, 9, 9),
                          waypoints=((0, 50.0, 50.0), (9, 120.0, 50.0))))
    with pytest.raises(ValueError) as err:
        generate(fast)
    assert f"exceeds {MAX_SPEED}" in str(err.value)
    escaping = ScenarioSpec(
        name="out", seed=1, length=10,
        target=ObjectSpec(color=(9, 9, 9), waypoints=((0, 5.0, 50.0),)))
    with pytest.raises(ValueError) as err:
        generate(escaping)
    assert "leaves the frame" in str(err.value)


def test_generate_rejects_mismatched_lockstep_distractor():
    target = ObjectSpec(color=(9, 9, 9), waypoints=((0, 100.0, 100.0),))
    bad = ObjectSpec(color=(9, 9, 9), size=(30, 30), pattern_similarity=0.8,
                     waypoints=((0, 200.0, 100.0),))
    spec = ScenarioSpec(name="x", seed=1, target=target, distractors=(bad,))
    with pytest.raises(ValueError) as err:
        generate(spec)
    assert "size and block" in str(err.value)


# --- generated scenes ---------------------------------------------------------


def test_generate_is_deterministic():
    spec = tiny_scenario(with_distractor=True,
                         noise=NoiseSpec(1.0, 0.5, 0.1, 0.05, 2))
    a = generate(spec)
    b = generate(spec)
    assert a.gt_boxes == b.gt_boxes
    assert a.occluded == b.occluded
    assert a.events == b.events
    assert a.detections == b.detections  # exact float equality
    for fa, fb in zip(a.frames(), b.frames()):
        assert np.array_equal(fa.pixels, fb.pixels)


def test_frames_iterator_is_restartable():
    out = generate(tiny_scenario())
    first_a = next(iter(out.frames()))
    first_b = next(iter(out.frames()))
    assert np.array_equal(first_a.pixels, first_b.pixels)


def test_gt_boxes_stay_in_frame_and_slow():
    out = generate(tiny_scenario())
    dims = out.spec.dims
    prev = None
    for b in out.gt_boxes:
        assert b.x >= 0 and b.y >= 0
        assert b.x2 <= dims.width and b.y2 <= dims.height
        if prev is not None:
            assert math.hypot(b.cx - prev.cx, b.cy - prev.cy) <= MAX_SPEED + 1e-9
        prev = b
    assert out.init_box == out.gt_boxes[0]


def test_events_match_occluded_flags():
    out = generate(tiny_scenario(occ_start=12, occ_len=5))
    assert out.events == [(12, 17)]
    for t, occ in enumerate(out.occluded):
        assert occ == (12 <= t < 17)


def test_occluder_rect_covers_target_during_window():
    out = generate(tiny_scenario(occ_start=12, occ_len=5))
    (x0, y0, x1, y1) = out.occluder_rects[0]
    for t in range(12, 17):
        b = out.gt_boxes[t]
        assert b.x >= x0 and b.y >= y0 and b.x2 <= x1 and b.y2 <= y1


def test_cover_is_drawn_only_while_active():
    out = generate(tiny_scenario(occ_start=12, occ_len=5))
    frames = {f.index: f for f in out.frames()}
    x0, y0, x1, y1 = out.occluder_rects[0]
    flat = frames[12].pixels[y0:y1, x0:x1]
    assert np.all(flat == flat[0, 0])  # the cover region is featureless
    b = out.gt_boxes[11]
    before = frames[11].pixels[int(b.y):int(b.y2), int(b.x):int(b.x2)]
    assert before.min() != before.max()  # target still visible before it lands


def test_detections_clean_noise_contract():
    out = generate(tiny_scenario())  # zero noise, no distractor
    for t in range(out.spec.length):
        dets = out.detections[t]
        if out.occluded[t]:
            assert dets == []  # guaranteed miss while covered
        else:
            assert len(dets) == 1
            assert iou(dets[0].box, out.gt_boxes[t]) > 0.8
            assert 0.5 <= dets[0].score <= 0.99


def test_detection_blackout_after_reappearance():
    spec = tiny_scenario(noise=NoiseSpec(blackout=3))
    out = generate(spec)
    end = out.events[0][1]
    for t in range(end, end + 3):
        assert out.detections[t] == []
    assert len(out.detections[end + 3]) == 1


def test_detection_jitter_bounds():
    spec = tiny_scenario(noise=NoiseSpec(center_sigma=1.5, size_sigma=1.0,
                                         fp_rate=0.2))
    out = generate(spec)
    dims = out.spec.dims
    for dets in out.detections.values():
        for d in dets:
            assert d.box.w >= 4 and d.box.h >= 4
            assert d.box.x >= 0 and d.box.y >= 0
            assert d.box.x2 <= dims.width + 1e-9
            assert d.box.y2 <= dims.height + 1e-9
            assert 0.5 <= d.score <= 0.99


def block_cells(frame_pixels, box: Box, block: int = 4) -> np.ndarray:
    """Binary block pattern sampled at cell centers."""
    gray = frame_pixels[int(box.y):int(box.y2), int(box.x):int(box.x2), 0]
    mid = (int(gray.min()) + int(gray.max())) / 2.0  # crops are bimodal
    n = int(box.w) // block
    cells = gray[block // 2::block, block // 2::block][:n, :n]
    return cells > mid


def test_lockstep_distractor_pattern():
    """A pattern-similarity distractor is the target pattern with a fixed
    deviation mask, at every frame."""
    spec = tiny_scenario(with_distractor=True)
    out = generate(spec)
    frames = {f.index: f for f in out.frames()}
    sim = spec.distractors[0].pattern_similarity
    masks = []
    for t in (2, 20):
        tgt = block_cells(frames[t].pixels, out.gt_boxes[t])
        # recompute the distractor box the same way the renderer does
        d = spec.distractors[0]
        cx = np.interp(t, [w[0] for w in d.waypoints], [w[1] for w in d.waypoints])
        cy = np.interp(t, [w[0] for w in d.waypoints], [w[2] for w in d.waypoints])
        dbox = Box(math.floor(cx - 12 + 0.5), math.floor(cy - 12 + 0.5), 24, 24)
        dis = block_cells(frames[t].pixels, dbox)
        masks.append(tgt ^ dis)
        frac = float((tgt ^ dis).mean())
        assert frac == pytest.approx(1.0 - sim, abs=0.15)
    # the deviation mask is frame-independent: evolution stays in lockstep
    assert np.array_equal(masks[0], masks[1])


# --- the standard suite -------------------------------------------------------


def test_standard_suite_shape():
    suite = standard_suite()
    assert len(suite) == 30
    names = [s.name for s in suite]
    seeds = [s.seed for s in suite]
    assert len(set(names)) == 30
    assert len(set(seeds)) == 30
    for spec in suite:
        assert spec.dims == FrameDims(640, 480)
        assert spec.length == (150 if len(spec.occlusions) == 3 else 110)
        assert 1 <= len(spec.distractors) <= 3
        assert 1 <= len(spec.occlusions) <= 3
        for d in spec.distractors:
            assert d.pattern_similarity is not None
        # every occlusion window leaves room to score a 10-frame latency
        last = max(o.start + o.duration for o in spec.occlusions)
        assert spec.length - last >= 11


def test_standard_suite_scenarios_generate():
    # generating validates speeds and frame containment for every object
    for spec in standard_suite():
        out = generate(spec)
        assert len(out.events) == len(spec.occlusions)
        assert not out.occluded[0]


# --- disk layout --------------------------------------------------------------


def test_write_scenario_round_trip(tmp_path):
    out = generate(tiny_scenario(length=12, occ_start=5, occ_len=3))
    target = str(tmp_path / "scen")
    write_scenario(out, target)
    frames = sorted((tmp_path / "scen" / "frames").iterdir())
    assert len(frames) == 12
    assert frames[0].name == "00000.ppm"
    gt, occ = read_gt_file(str(tmp_path / "scen" / "gt.jsonl"))
    assert occ == out.occluded
    for got, want, hidden in zip(gt, out.gt_boxes, out.occluded):
        assert got == (None if hidden else want)
    assert read_events_file(str(tmp_path / "scen" / "events.json")) == out.events


def test_read_gt_file_rejects_gaps(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"t": 0, "box": {"x": 1, "y": 1, "w": 5, "h": 5}}\n'
                    '{"t": 2, "occluded": true}\n')
    with pytest.raises(ValueError) as err:
        read_gt_file(str(path))
    assert "non-contiguous" in str(err.value)


def test_read_gt_file_rejects_empty_file(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError) as err:
        read_gt_file(str(path))
    assert f"{path}: empty ground-truth file" in str(err.value)


@pytest.mark.parametrize("value", ['"no"', "1", "null"])
def test_read_gt_file_requires_bool_occluded(tmp_path, value):
    # a truthy string would score the frame as occluded and drop its box
    path = tmp_path / "gt.jsonl"
    path.write_text('{"t": 0, "box": {"x": 1, "y": 1, "w": 5, "h": 5}, '
                    f'"occluded": {value}}}\n')
    with pytest.raises(ValueError) as err:
        read_gt_file(str(path))
    assert f"{path}:1: bad ground-truth record" in str(err.value)
    assert "occluded must be true or false" in str(err.value)


def test_read_gt_file_accepts_explicit_false(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"t": 0, "box": {"x": 1, "y": 1, "w": 5, "h": 5}, '
                    '"occluded": false}\n')
    assert read_gt_file(str(path)) == ([Box(1, 1, 5, 5)], [False])


# --- spec (de)serialization ---------------------------------------------------


def test_spec_dict_round_trip():
    for spec in [tiny_scenario(with_distractor=True,
                               noise=NoiseSpec(1.0, 0.5, 0.1, 0.05, 2)),
                 standard_suite()[4]]:
        data = json.loads(json.dumps(scenario_spec_to_dict(spec)))
        assert scenario_spec_from_dict(data) == spec


def test_spec_from_dict_rejects_unknown_keys():
    data = scenario_spec_to_dict(tiny_scenario())
    data["speed"] = 3
    with pytest.raises(ValueError) as err:
        scenario_spec_from_dict(data)
    assert "unknown scenario keys: speed" in str(err.value)
    data2 = scenario_spec_to_dict(tiny_scenario())
    data2["target"]["wobble"] = 1
    with pytest.raises(ValueError) as err:
        scenario_spec_from_dict(data2)
    assert "target" in str(err.value)
