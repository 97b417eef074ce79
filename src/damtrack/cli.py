"""Command line harness: track, synth, bench, and eval subcommands.

``bench`` runs one config, or one sweep of it: the component ladder, the
knock-out table (without each mechanism in turn), or scaled thresholds.

Machine output goes to files; human diagnostics go to stderr. Every failure
exits nonzero with a message naming the offending input (the file and line,
for a JSON Lines file). Every JSON and JSON Lines output is written through
``records``, which removes a partially written file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .bench import (discover_scenarios, knockout_configs, ladder_configs,
                    run_disk_scenario)
from .config import (PipelineConfig, config_to_dict, load_config,
                     scale_thresholds)
from .detection import ScriptedDetector
from .geometry import Box, iou
from .media import load_sequence, write_annotated
from .metrics import (SequenceResult, mean_iou, recovery_stats, robustness,
                      summarize)
from .pipeline import MODE_HOLDING, MODE_NORMAL, TrackerSession, TrackOutput
from .records import (json_int, read_json, read_jsonl, write_json,
                      write_jsonl)
from .synth import (generate, read_events_file, read_gt_file,
                    scenario_spec_from_dict, standard_suite, write_scenario)

# the --annotate outline: green while tracking, orange while holding the box
_MODE_COLORS = {MODE_NORMAL: (0, 220, 0), MODE_HOLDING: (255, 80, 0)}


def write_track_file(path: str, outputs: list[TrackOutput]) -> None:
    """One JSON record per frame, in frame order."""
    write_jsonl(path, (out.to_record() for out in outputs))


def read_track_file(path: str) -> list[Box]:
    """Per-frame boxes of a track file, in frame order; every record must
    still carry its mode."""
    boxes: list[Box] = []

    def parse(rec: dict) -> None:
        if json_int(rec["t"], "t") != len(boxes):
            raise ValueError("non-contiguous frame index")
        if not isinstance(rec["mode"], str):
            raise TypeError(f"mode must be a string, got {rec['mode']!r}")
        boxes.append(Box.from_dict(rec["box"]))

    read_jsonl(path, "track", parse)
    if not boxes:
        raise ValueError(f"{path}: empty track file")
    return boxes


def _parse_init(text: str) -> Box:
    """The --init box; every error names the whole flag value."""
    parts = text.split(",")
    try:
        if len(parts) != 4:
            raise ValueError('expected "x,y,w,h"')
        return Box(*(float(p) for p in parts))
    except ValueError as e:
        raise ValueError(f"bad init box {text!r}: {e}") from None


def _load_or_default_config(path: str | None) -> PipelineConfig:
    if path is None:
        cfg = PipelineConfig()
        print("no config given; defaults: "
              + json.dumps(config_to_dict(cfg), sort_keys=True),
              file=sys.stderr)
        return cfg
    return load_config(path)


# --- subcommands --------------------------------------------------------------


def _cmd_track(args: argparse.Namespace) -> int:
    cfg = _load_or_default_config(args.config)
    init_box = _parse_init(args.init)
    if args.detections is None:
        if cfg.use_detector:
            print("no detections file; running without the detector",
                  file=sys.stderr)
            cfg = replace(cfg, use_detector=False)
        detector = None
    else:
        detector = ScriptedDetector.from_file(args.detections)
    if args.annotate:
        # annotated frames take the input frames' names, so annotating into
        # the input directory would overwrite the sequence while it is read
        if (os.path.isdir(args.annotate) and os.path.isdir(args.frames)
                and os.path.samefile(args.annotate, args.frames)):
            raise ValueError(f"--annotate {args.annotate} is the --frames "
                             f"directory {args.frames}")
        # a bad directory fails here, before any output is written
        os.makedirs(args.annotate, exist_ok=True)
    # each frame is annotated as it is tracked, so the sequence decodes once
    session = TrackerSession(detector, cfg)
    outputs: list[TrackOutput] = []
    for frame in load_sequence(args.frames):
        out = (session.init(frame, init_box) if frame.index == 0
               else session.step(frame))
        outputs.append(out)
        if args.annotate:
            write_annotated(frame, out.box, _MODE_COLORS[out.mode],
                            os.path.join(args.annotate,
                                         f"{frame.index:05d}.ppm"))
    write_track_file(args.out, outputs)
    print(f"tracked {len(outputs)} frames -> {args.out}", file=sys.stderr)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if (args.spec is None) == (not args.suite):
        raise ValueError("exactly one of --spec or --suite is required")
    if args.spec is not None:
        spec = read_json(args.spec, "scenario spec", scenario_spec_from_dict)
        try:
            scenarios = [generate(spec)]
        except ValueError as e:
            raise ValueError(f"{args.spec}: {e}") from None
    else:
        scenarios = (generate(spec) for spec in standard_suite())
    for scenario in scenarios:
        target = os.path.join(args.out, scenario.spec.name)
        write_scenario(scenario, target)
        print(f"wrote {target} ({scenario.spec.length} frames)",
              file=sys.stderr)
    return 0


def _bench_variants(args: argparse.Namespace,
                    base: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    # a given flag counts even when its value is falsy ("--perturb 0")
    chosen = args.knockout + args.ladder + (args.perturb is not None)
    if chosen > 1:
        raise ValueError("--knockout, --ladder, and --perturb are exclusive")
    if args.knockout:
        return knockout_configs(base)
    if args.ladder:
        return ladder_configs(base)
    if args.perturb is not None:
        if not 0.0 < args.perturb < 1.0:
            raise ValueError("--perturb must be in (0, 1)")
        return [
            ("base", base),
            (f"down_{args.perturb:g}", scale_thresholds(base, 1.0 - args.perturb)),
            (f"up_{args.perturb:g}", scale_thresholds(base, 1.0 + args.perturb)),
        ]
    return [("default", base)]


def _format_table(rows: list[dict]) -> str:
    header = (f"{'config':<16} {'mean_iou':>9} {'robust':>7} "
              f"{'recovery':>9} {'med_lat':>8} {'fps':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        s = row["summary"]
        lines.append(
            f"{row['config']:<16} {s['mean_iou']:>9.4f} {s['robustness']:>7.4f} "
            f"{s['recovery_rate']:>9.4f} {s['recovery_median_latency']:>8.1f} "
            f"{s['timing']['fps']:>8.1f}")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    base = _load_or_default_config(args.config)
    paths = discover_scenarios(args.suite)
    rows = []
    for label, cfg in _bench_variants(args, base):
        runs = []
        for path in paths:
            try:
                runs.append(run_disk_scenario(path, cfg))
            except Exception as e:
                raise RuntimeError(
                    f"scenario {path} failed under config {label}: {e}"
                ) from e
        rows.append({"config": label, "summary": summarize(runs)})
        print(f"finished config {label} ({len(runs)} scenarios)",
              file=sys.stderr)
    report: dict = {"rows": rows}
    if args.perturb is not None:
        base_iou = rows[0]["summary"]["mean_iou"]
        report["iou_fluctuation"] = max(
            abs(r["summary"]["mean_iou"] - base_iou) for r in rows[1:])
    write_json(args.out, report)
    print(_format_table(rows), file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    boxes = read_track_file(args.pred)
    gt, _occ = read_gt_file(args.gt)
    if len(boxes) != len(gt):
        raise ValueError(f"prediction/ground-truth length mismatch: "
                         f"{len(boxes)} vs {len(gt)}")
    ious = [None if g is None else iou(b, g) for b, g in zip(boxes, gt)]
    result = SequenceResult(ious, [0.0] * len(ious))
    report: dict = {
        "frames": len(ious),
        "mean_iou": mean_iou(result),
        "robustness": robustness(result),
    }
    if args.events is not None:
        events = read_events_file(args.events, len(gt))
        stats = recovery_stats(result, events)
        report["recovery_rate"] = stats.rate
        report["recovery_mean_latency"] = stats.mean_latency
        report["events"] = stats.total
    write_json(args.out, report)
    print(f"mean_iou={report['mean_iou']:.4f} "
          f"robustness={report['robustness']:.4f}", file=sys.stderr)
    return 0


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="damtrack",
        description="detection-guided single-object tracking harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="track through a frame directory")
    p.add_argument("--frames", required=True, help="directory of frame images")
    p.add_argument("--init", required=True, metavar="X,Y,W,H",
                   help="first-frame box")
    p.add_argument("--detections", help="scripted detections file (JSONL)")
    p.add_argument("--config", help="flat JSON config; defaults if omitted")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--annotate", metavar="DIR",
                   help="also write annotated frames here")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("synth", help="generate synthetic scenarios")
    p.add_argument("--spec", help="JSON scenario spec file")
    p.add_argument("--suite", action="store_true",
                   help="generate the standard benchmark suite")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run a scenario suite and report metrics")
    p.add_argument("--suite", required=True, help="suite directory")
    p.add_argument("--config", help="flat JSON config; defaults if omitted")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--knockout", action="store_true",
                   help="run the config as 'full', then once without each "
                        "mechanism")
    p.add_argument("--perturb", type=float, metavar="F",
                   help="also run with thresholds scaled by (1-F) and (1+F)")
    p.add_argument("--ladder", action="store_true",
                   help="run the component ladder instead of one config")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="score a track file against ground truth")
    p.add_argument("--pred", required=True, help="track output JSONL")
    p.add_argument("--gt", required=True, help="ground-truth JSONL")
    p.add_argument("--events", help="occlusion events JSON for recovery stats")
    p.add_argument("--out", required=True, help="JSON metrics path")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
