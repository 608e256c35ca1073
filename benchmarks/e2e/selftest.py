#!/usr/bin/env python3
"""Harness self-test: every workload end to end at smoke scale.

    python3 benchmarks/e2e/selftest.py --scale smoke

Runs the probes once and all five workloads on seconds-sized inputs —
each as an untraced run (one repetition in a child process) and as a
traced run — and asserts what the numbers rest on: the probes' and a
workload's own metrics together are exactly the declared per-layer ones,
an untraced run reports every declared end-to-end one, each a finite
measured number (nothing is filled in), every answer was correct, spans
nest, and the
traced and untraced passes agree on operation counts (every traced
operation has exactly one root span; open-loop phases, whose schedule is
fixed, attempt the same number of operations in both).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import config  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

SEED = 424242
UNTRACED_S = 0.2  # one repetition
TRACED_S = 0.6  # two passes of a third of this each


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(what: str, metrics: dict[str, float], declared: set[str]) -> None:
    check(set(metrics) == declared,
          f"{what}: missing {sorted(declared - set(metrics))}, "
          f"undeclared {sorted(set(metrics) - declared)}")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    check(not bad, f"{what}: not finite: {bad}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", default="smoke", choices=sorted(config.SCALES))
    args = ap.parse_args()
    spec = run.load_spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    t0 = time.perf_counter()
    probed = probes.run_probes(SEED, config.SCALES[args.scale])
    for w in spec["workloads"]:
        name = w["name"]
        plain = run.run_untraced(name, SEED, UNTRACED_S, args.scale)
        check(plain["correct"], f"{name}: untraced run had wrong answers")
        # An untraced run measures throughput and latency too; those are
        # declared in the per-layer list.
        timing = set(plain["metrics"]) - end_to_end
        check(timing <= per_layer, f"{name}: undeclared {sorted(timing - per_layer)}")
        check_metrics(f"{name} untraced", plain["metrics"], end_to_end | timing)
        check(all(v > 0 for v in plain["metrics"].values()),
              f"{name}: untraced metric not positive: {plain['metrics']}")

        traced = run.run_traced(name, SEED, TRACED_S, args.scale)
        check(traced["correct"], f"{name}: traced run had wrong answers")
        check(not set(probed) & set(traced["metrics"]),
              f"{name}: reports a probe's metric under the same name")
        check_metrics(f"{name} per-layer", {**probed, **traced["metrics"]}, per_layer)
        check(traced["nesting_violations"] == 0, f"{name}: spans do not nest")
        check(traced["root_ops"] == sum(traced["ops_traced"].values()),
              f"{name}: {traced['root_ops']} root spans for {traced['ops_traced']} ops")
        for phase, kind in traced["kinds"].items():
            if kind == "open":
                check(traced["ops_traced"][phase] == traced["ops_plain"][phase],
                      f"{name}/{phase}: traced and untraced op counts differ")
        check(Path(traced["trace_file"]).is_file(), f"{name}: no trace file")
        print(f"ok {name}: {traced['attempted']} ops, {traced['spans']} spans")
    print(f"selftest passed in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
