#!/usr/bin/env python3
"""One repetition of one workload, in a process of its own.

    python3 rep.py --workload NAME --seed N --seconds S [--scale full]

Set-up, ``S`` seconds of timed work, the recheck of kept answers,
tear-down.  ``run.py`` starts one of these per repetition, so every
repetition has a fresh interpreter, heap and peak-RSS mark, and a
repetition's memory never counts toward the next one's.  The last line
of standard output is one JSON object: what ``run.summarise`` reduces
to the run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import config
import harness
from workloads import registry


def repetition(name: str, seed: int, seconds: float, sizes: config.Sizes) -> dict:
    w = registry()[name](seed, sizes, seconds)
    t0 = time.perf_counter()
    w.setup()
    setup_s = time.perf_counter() - t0
    try:
        phases = w.run(seconds)
        checked, wrong = w.verify()
        peak_rss_mb = harness.peak_rss_mb_of(os.getpid()) + w.children_rss_mb()
    finally:
        w.teardown()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(p.attempted for p in phases.values()) + checked,
        "failed": sum(p.failed for p in phases.values()) + wrong,
        **w.timing(phases),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(registry()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(config.SCALES))
    args = ap.parse_args()
    result = repetition(args.workload, args.seed, args.seconds, config.SCALES[args.scale])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
