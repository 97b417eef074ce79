"""damtrack benchmark: closed-loop frame latency and accuracy per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload standard --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports the per-layer metrics of a traced run. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` of the checkout, so a directory without it fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("standard", "cruise_720p", "cover_dense_qvga", "disk_replay")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "damtrack", "__init__.py")):
        print(f"error: no damtrack sources under {src}; run from the root "
              "of a damtrack checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.bench import run_benchmark

    work = os.path.join(ROOT, "perfbench", ".work")
    workdir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:  # absent, or another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
