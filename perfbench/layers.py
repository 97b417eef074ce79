"""Per-layer metrics, the count block and the workload profiles.

Layers are the ``damtrack`` modules; a span's layer is the part of its name
before the first dot, and ``session.*`` spans are the pipeline's own time.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .harness import ScenarioRun, output_counts
from .tracing import ROOTS, layer_times

LAYERS = ("media", "detection", "tracker", "appearance", "memory")
CALL_COUNTS = ("provide", "descriptor", "ncc_search", "reinit", "admitted",
               "promoted", "banked")

UNITS = {
    "media.to_gray.ms_per_frame": "ms",
    "media.to_gray.calls_per_frame": "calls/frame",
    "media.decode.ms_per_frame": "ms",
    "detection.provide.ms_per_frame": "ms",
    "detection.provide.fresh_share": "share",
    "detection.provide.dets_per_fresh_call": "dets/call",
    "tracker.update.self_ms_per_frame": "ms",
    "tracker.ncc_scores.ms_per_call": "ms",
    "tracker.resample.ms_per_frame": "ms",
    "tracker.reinit.calls_per_frame": "calls/frame",
    "tracker.motion.ms_per_frame": "ms",
    "appearance.descriptor.ms_per_call": "ms",
    "appearance.descriptor.calls_per_frame": "calls/frame",
    "appearance.ncc_search.ms_per_call": "ms",
    "appearance.ncc_search.calls": "count",
    "memory.write.ms_per_frame": "ms",
    "memory.read.ms_per_frame": "ms",
    "memory.ram_admit.admitted_ratio": "share",
    "memory.try_promote.promoted_ratio": "share",
    "memory.best_anchor.hit_ratio": "share",
    "memory.negatives_banked": "count",
    "memory.retained_kb": "KB",
    "pipeline.frames.stable": "count",
    "pipeline.frames.held": "count",
    "pipeline.recovered.s1": "count",
    "pipeline.recovered.s2": "count",
    "pipeline.recovered.s3": "count",
    "pipeline.stable.ms_p50": "ms",
    "pipeline.holding.ms_p50": "ms",
    "pipeline.self_ms_per_frame": "ms",
    "pipeline.recovery_latency_mean": "frames",
    "harness.render_ms_per_frame": "ms",
    "harness.trace_overhead_pct": "%",
    **{f"layer.{layer}.self_ms_per_frame": "ms" for layer in LAYERS},
    "trace.frame_ms_per_frame": "ms",
    "trace.accounted_pct": "%",
    "profile.gray_share_pct": "%",
    "profile.held_share_pct": "%",
    "profile.ok": "bool",
    **{f"count.{name}": "count" for name in CALL_COUNTS},
    **{f"ladder.{rung}.{key}": unit
       for rung in ("tracker_only", "with_detector", "with_ram", "full", "anchor")
       for key, unit in (("mean_iou", "iou"), ("robustness", "share"),
                         ("recovery_rate", "share"))},
    "micro.to_gray.640x480_ms": "ms",
    "micro.to_gray.1280x720_ms": "ms",
    "micro.ncc_scores.window80_t32_ms": "ms",
    "micro.ncc_scores.region176_t44_ms": "ms",
    "micro.compute_descriptor.44px_ms": "ms",
    "micro.max_cosine.20_ms": "ms",
}


def count_block(runs: list[ScenarioRun], spans: list[list]) -> dict[str, int]:
    """Deterministic counts: outcomes from the outputs, calls from the spans."""
    calls = Counter(span[0] for span in spans)
    true = Counter(span[0] for span in spans if span[5] is True)
    return {
        **output_counts(runs),
        "provide": calls["detection.provide"],
        "descriptor": calls["appearance.descriptor"],
        "ncc_search": calls["appearance.ncc_search"],
        "reinit": calls["tracker.reinit"],
        "admitted": true["memory.ram_admit"],
        "promoted": true["memory.try_promote"],
        "banked": calls["memory.add_negative"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return float(np.percentile(values, 50)) if values else 0.0


def layer_metrics(plain: list[ScenarioRun], traced: list[ScenarioRun],
                  spans: list[list], acc: dict, from_disk: bool
                  ) -> dict[str, float]:
    """Per-layer figures from a traced pass and the untraced pass before it.

    The fetch time of the untraced pass is rendering on a synthetic
    workload and decoding (part of frame time) on a disk workload.
    """
    rows = layer_times(spans)

    def get(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0)

    def ms(name: str, key: str = "total_ns") -> float:
        return get(name, key) / 1e6

    # counted by the harness, so a root span the program renamed costs the
    # per-frame figures their meaning, not the run
    frames = sum(len(run.frame_s) for run in traced)
    fresh = [s[5] for s in spans if s[0] == "detection.provide" and s[5] is not None]
    true = Counter(s[0] for s in spans if s[5] is True)
    traced_ms = 1000.0 * sum(s for run in traced for s in run.frame_s)
    plain_ms = 1000.0 * sum(s for run in plain for s in run.frame_s)
    counts = output_counts(plain)
    split: dict[bool, list[float]] = {False: [], True: []}
    for run in plain:
        for out, s in zip(run.outputs, run.frame_s):
            split[bool(out.switch)].append(s * 1000.0)
    render = [s for run in plain for s in run.fetch_s]

    m = {
        "media.to_gray.ms_per_frame": ms("media.to_gray") / frames,
        "media.to_gray.calls_per_frame": get("media.to_gray", "calls") / frames,
        "media.decode.ms_per_frame": ms("media.decode") / frames,
        "detection.provide.ms_per_frame": ms("detection.provide") / frames,
        "detection.provide.fresh_share": _ratio(
            len(fresh), get("detection.provide", "calls")),
        "detection.provide.dets_per_fresh_call": _ratio(sum(fresh), len(fresh)),
        "tracker.update.self_ms_per_frame": ms("tracker.update", "self_ns") / frames,
        "tracker.ncc_scores.ms_per_call": _ratio(
            ms("tracker.ncc_scores"), get("tracker.ncc_scores", "calls")),
        "tracker.resample.ms_per_frame": ms("tracker.resample") / frames,
        "tracker.reinit.calls_per_frame": get("tracker.reinit", "calls") / frames,
        "tracker.motion.ms_per_frame": ms("tracker.motion") / frames,
        "appearance.descriptor.ms_per_call": _ratio(
            ms("appearance.descriptor"), get("appearance.descriptor", "calls")),
        "appearance.descriptor.calls_per_frame": get(
            "appearance.descriptor", "calls") / frames,
        "appearance.ncc_search.ms_per_call": _ratio(
            ms("appearance.ncc_search"), get("appearance.ncc_search", "calls")),
        "appearance.ncc_search.calls": get("appearance.ncc_search", "calls"),
        "memory.write.ms_per_frame": (ms("memory.ram_admit") + ms("memory.try_promote")
                                      + ms("memory.add_negative")) / frames,
        "memory.read.ms_per_frame": (ms("memory.best_anchor", "self_ns")
                                     + ms("memory.max_cosine")) / frames,
        "memory.ram_admit.admitted_ratio": _ratio(
            true["memory.ram_admit"], get("memory.ram_admit", "calls")),
        "memory.try_promote.promoted_ratio": _ratio(
            true["memory.try_promote"], get("memory.try_promote", "calls")),
        "memory.best_anchor.hit_ratio": _ratio(
            true["memory.best_anchor"], get("memory.best_anchor", "calls")),
        "memory.negatives_banked": get("memory.add_negative", "calls"),
        **{f"pipeline.{k}": v for k, v in counts.items()},
        "pipeline.stable.ms_p50": _median(split[False]),
        "pipeline.holding.ms_p50": _median(split[True]),
        "pipeline.self_ms_per_frame": sum(
            ms(root, "self_ns") for root in ROOTS) / frames,
        "pipeline.recovery_latency_mean": acc["recovery_latency_mean"],
        "harness.render_ms_per_frame": (
            0.0 if from_disk else 1000.0 * sum(render) / len(render)),
        "harness.trace_overhead_pct": 100.0 * (traced_ms / plain_ms - 1.0),
        "trace.frame_ms_per_frame": traced_ms / frames,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms_per_frame"] = sum(
            row["self_ns"] for name, row in rows.items()
            if name.split(".")[0] == layer) / 1e6 / frames
    accounted = sum(m[f"layer.{layer}.self_ms_per_frame"] for layer in LAYERS)
    m["trace.accounted_pct"] = 100.0 * (
        accounted + m["pipeline.self_ms_per_frame"]) / m["trace.frame_ms_per_frame"]
    m["profile.gray_share_pct"] = (100.0 * m["media.to_gray.ms_per_frame"]
                                   / m["trace.frame_ms_per_frame"])
    m["profile.held_share_pct"] = 100.0 * counts["frames.held"] / sum(counts.values())
    return m


# what each workload is for, checked on every traced run so that a claim
# can be re-checked on a seed not used while writing it
PROFILES = {
    "standard": (
        ("every recovery stage runs", lambda m: min(
            m["pipeline.recovered.s1"], m["pipeline.recovered.s2"],
            m["pipeline.recovered.s3"]) > 0),
    ),
    "cruise_720p": (
        ("gray >= 70% of frame time", lambda m: m["profile.gray_share_pct"] >= 70.0),
        ("no stage-3 search", lambda m: m["appearance.ncc_search.calls"] == 0),
    ),
    "cover_dense_qvga": (
        ("held >= 40% of frames", lambda m: m["profile.held_share_pct"] >= 40.0),
        ("gray <= 20% of frame time", lambda m: m["profile.gray_share_pct"] <= 20.0),
    ),
    "disk_replay": (
        ("frames are decoded", lambda m: m["media.decode.ms_per_frame"] > 0.0),
    ),
}


def profile_failures(workload: str, m: dict[str, float]) -> list[str]:
    return [name for name, holds in PROFILES[workload] if not holds(m)]
