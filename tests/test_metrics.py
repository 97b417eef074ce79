"""Scoring: IoU traces, robustness, event recovery, suite rollup."""

from __future__ import annotations

import math

import numpy as np
import pytest

from damtrack.geometry import Box
from damtrack.metrics import (RECOVERY_IOU, SequenceResult, evaluate, mean_iou,
                              recovery_stats, robustness, summarize)
from damtrack.pipeline import TrackOutput


def out_at(t: int, box: Box) -> TrackOutput:
    return TrackOutput(t=t, box=box, mode="NORMAL", conf=0.9, o_count=0,
                       switch=False, recovery_stage=0)


def seq(ious: list[float | None], times: list[float] | None = None,
        ) -> SequenceResult:
    n = len(ious)
    return SequenceResult(ious, times or [0.0] * n)


# --- evaluate -----------------------------------------------------------------


def test_evaluate_maps_occluded_frames_to_none():
    outputs = [out_at(0, Box(0, 0, 10, 10)), out_at(1, Box(0, 0, 10, 10)),
               out_at(2, Box(5, 0, 10, 10))]
    gt = [Box(0, 0, 10, 10), None, Box(0, 0, 10, 10)]
    result = evaluate(outputs, gt)
    assert result.ious[0] == 1.0
    assert result.ious[1] is None
    assert result.ious[2] == pytest.approx(5 / 15)
    assert result.times == [0.0] * 3


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError) as err:
        evaluate([out_at(0, Box(0, 0, 5, 5))], [None, None])
    assert "1 vs 2" in str(err.value)


def test_sequence_result_rejects_ragged_traces():
    with pytest.raises(ValueError):
        SequenceResult([1.0, 0.5], [0.0])


# --- accuracy -----------------------------------------------------------------


def test_mean_iou_excludes_occluded_frames():
    assert mean_iou(seq([0.8, None, 0.4, None])) == pytest.approx(0.6)


def test_mean_iou_all_occluded_raises():
    with pytest.raises(ValueError):
        mean_iou(seq([None, None]))


def test_robustness_threshold_is_strict():
    # exactly tau_rob does not count as tracked
    assert robustness(seq([0.1, 0.1, 0.5, 0.0])) == pytest.approx(0.25)
    assert robustness(seq([0.2, None, 0.05, 0.9])) == pytest.approx(2 / 3)
    assert robustness(seq([0.3, 0.6]), tau_rob=0.5) == pytest.approx(0.5)


# --- recovery -----------------------------------------------------------------


def test_recovery_immediate_and_late():
    ious = [0.9, 0.9, None, None, 0.2, 0.3, 0.6, 0.9]
    stats = recovery_stats(seq(ious), [(2, 4)], l_max=10)
    assert stats.rate == 1.0
    assert stats.latencies == [2]  # first frame at or above 0.5 is t=6
    assert stats.mean_latency == 2.0


def test_recovery_threshold_boundary_counts():
    ious = [None, RECOVERY_IOU]
    stats = recovery_stats(seq(ious), [(0, 1)], l_max=5)
    assert stats.latencies == [0]


def test_recovery_at_exact_l_max():
    ious = [None] + [0.1] * 7 + [0.8]
    stats = recovery_stats(seq(ious), [(0, 1)], l_max=7)
    assert stats.latencies == [7]
    stats = recovery_stats(seq(ious), [(0, 1)], l_max=6)  # one frame short
    assert stats.rate == 0.0 and stats.latencies == []
    assert math.isnan(stats.mean_latency)


def test_recovery_scan_truncated_by_sequence_end():
    ious = [None, 0.1, 0.1]
    stats = recovery_stats(seq(ious), [(0, 1)], l_max=30)
    assert stats.rate == 0.0


def test_recovery_scan_truncated_by_next_event():
    # second cover starts before the tracker reaches 0.5: event 1 unrecovered
    ious = [None, 0.1, 0.2, None, None, 0.9]
    stats = recovery_stats(seq(ious), [(0, 1), (3, 5)], l_max=30)
    assert stats.recovered == 1 and stats.total == 2
    assert stats.rate == 0.5
    assert stats.latencies == [0]  # the second event recovers at once


def test_recovery_requires_events():
    with pytest.raises(ValueError):
        recovery_stats(seq([0.9]), [])


# --- suite summary ------------------------------------------------------------


def suite_rows():
    a = seq([0.8, None, 0.6, 0.9], times=[0.01] * 4)
    b = seq([0.4, 0.05, None, 0.7], times=[0.02] * 4)
    return [("a", a, [(1, 2)]), ("b", b, [(2, 3)])]


def test_summarize_known_values():
    report = summarize(suite_rows())
    assert report["scenarios"] == 2
    # accuracy averages scenario means, not pooled frames
    mean_a = (0.8 + 0.6 + 0.9) / 3
    mean_b = (0.4 + 0.05 + 0.7) / 3
    assert report["mean_iou"] == pytest.approx((mean_a + mean_b) / 2)
    assert report["robustness"] == pytest.approx((1.0 + 2 / 3) / 2)
    # recovery pools events across scenarios: both recover at k=0
    assert report["recovery_rate"] == 1.0
    assert report["recovery_mean_latency"] == 0.0
    assert report["recovery_median_latency"] == 0.0
    assert report["events"] == 2
    assert report["timing"]["frames"] == 8
    assert report["timing"]["fps"] == pytest.approx(8 / 0.12)


def test_summarize_is_order_invariant():
    rows = suite_rows()
    a = summarize(rows)
    b = summarize(list(reversed(rows)))
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_summarize_rejects_duplicates_and_empty():
    rows = suite_rows()
    with pytest.raises(ValueError):
        summarize([rows[0], rows[0]])
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_without_events_reports_nan_recovery():
    rows = [("a", seq([0.9, 0.8]), [])]
    report = summarize(rows)
    assert math.isnan(report["recovery_rate"])
    assert math.isnan(report["recovery_mean_latency"])


def test_summarize_pools_latencies_across_scenarios():
    a = seq([None, 0.9, 0.9, 0.9])
    b = seq([None, 0.1, 0.1, 0.9])
    report = summarize([("a", a, [(0, 1)]), ("b", b, [(0, 1)])])
    assert report["recovery_rate"] == 1.0
    assert report["recovery_mean_latency"] == pytest.approx(1.0)  # {0, 2}
    np.testing.assert_allclose(report["recovery_median_latency"], 1.0)
