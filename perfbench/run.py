"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-analysis --seed 1 --seconds 25 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` prints every end-to-end metric listed in ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead, from a run that
interleaves traced and untraced ops.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Lines before it give tails with their sample counts and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Outcome, peak_rss_mb

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if WORKLOADS[args.workload].ONE_CPU:
        # Before any thread starts: threads inherit the affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_dir = ROOT / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)

    warmups = Outcome()
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            warmups.absorb(workload.warmup)
            workload.close()
            workload = None
        started = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, work_dir, args.seconds)
        # The checker's own reference work is not the program's set-up.
        setups.append(time.perf_counter() - started - workload.check_s)
    try:
        outcome = workload.run(args.seconds, bool(args.trace))
    finally:
        workload.close()
    outcome.absorb(warmups)

    if args.trace:
        wanted = spec["per_layer"]
        values = dict(outcome.per_layer)
    else:
        wanted = spec["end_to_end"]
        values = dict(outcome.end_to_end)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
    # A layer that this workload's ops never enter did no work on it;
    # a missing metric of a layer they do enter is a benchmark defect.
    on_path = WORKLOADS[args.workload].ON_PATH if args.trace else ("",)
    off_path = [m["name"] for m in wanted if m["name"] not in values]
    for name in off_path:
        if name.startswith(on_path):
            outcome.flag(f"metric {name} was not measured")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "setup_samples_s": setups,
                "tails": outcome.details,
                "off_path_zero": off_path,
                "errors": outcome.errors,
                "flags": outcome.flags,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
