#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace [0|1]]

Builds its inputs from the seed, runs the workload(s), checks every
answer, and prints every metric by name with its unit; the last line of
each workload's output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  An untraced run (``--trace 0``) is three
independent repetitions, each in a process of its own (``rep.py``:
set-up, a third of ``--seconds`` of timed work, recheck, tear-down),
reduced to medians by ``summarise``; its result line holds the
end-to-end metrics.  A traced run (``--trace 1``) runs each workload
once without and once with the harness's span recorder, then the
per-layer probes once, writes ``out/trace-<workload>.json`` and reports
the per-layer metrics.  Metric names, units and bounds are
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Share of ``--seconds`` each of the traced run's two passes gets: the
#: length of one repetition of a full-scale untraced run.
TRACED_PASS_SHARE = 1 / 3

#: A repetition that has not finished by then is killed and the run fails.
REP_TIMEOUT_S = 50.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_repetition(name: str, seed: int, seconds: float, scale: str) -> dict:
    """Run ``rep.py`` as a child and return the JSON object it prints."""
    import harness

    proc = harness.spawn(
        [sys.executable, str(HERE / "rep.py"), "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--scale", scale],
        grace_s=10.0, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    finally:
        harness.stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition of {name} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def summarise(reps: list[dict]) -> dict[str, float]:
    """One run's metrics from its repetitions: medians, and ``ok_frac`` over all."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out = {
        key: statistics.median(r[key] for r in reps)
        for key in ("setup_s", "peak_rss_mb", "ops_per_s", "lat_p50_ms", "lat_tail_ms")
    }
    out["ok_frac"] = 1.0 - failed / max(1, attempted)
    return out


def run_untraced(name: str, seed: int, seconds: float, scale: str = "full") -> dict:
    """``repetitions`` independent repetitions, reduced by ``summarise``."""
    import config

    n = config.SCALES[scale].repetitions
    reps = [one_repetition(name, seed, seconds / n, scale) for _ in range(n)]
    metrics = summarise(reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "workload": name, "seed": seed,
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reps), "failed": failed,
        "metrics": metrics,
    }


def run_traced(name: str, seed: int, seconds: float, scale: str = "full") -> dict:
    """One set-up, an untraced and a traced pass of one workload.

    ``metrics`` holds what every workload measures about itself: the
    untraced pass's throughput and latency, the harness's own numbers
    and the self-time share of each layer.
    """
    import config
    import harness
    from spans import LAYERS, NullTracer, Tracer
    from workloads import registry

    pass_s = seconds * TRACED_PASS_SHARE
    w = registry()[name](seed, config.SCALES[scale], pass_s)
    w.setup()
    try:
        w.tracer = NullTracer()
        plain = w.run(pass_s)
        tracer = w.tracer = Tracer()
        traced = w.run(pass_s)
        checked, wrong = w.verify()
    finally:
        w.teardown()

    lat_plain = plain[w.lat_phase].latencies()
    late = [v for p in traced.values() for v in p.late_ms]
    metrics = {
        **w.timing(plain),
        # Means, not medians: mine_suite's latencies are multi-modal (seven
        # different analyses) and its median jumps between modes.
        "bench.trace_overhead_frac": statistics.fmean(traced[w.lat_phase].latencies())
        / statistics.fmean(lat_plain) - 1.0,
        "bench.gen_late_ms_p99": harness.percentile(late, 99),
        "bench.window_spread_frac": plain[w.ops_phase].half_spread(),
        "bench.samples_per_window": float(len(lat_plain)),
    }
    self_s = tracer.self_time_by_layer()
    total = sum(self_s.values())
    for layer in LAYERS:
        metrics[f"trace.{layer}_self_frac"] = self_s[layer] / total

    harness.OUT.mkdir(exist_ok=True)
    trace_path = harness.OUT / f"trace-{name}.json"
    tracer.write_chrome(trace_path)
    phases = list(plain.values()) + list(traced.values())
    failed = sum(p.failed for p in phases) + wrong
    return {
        "workload": name, "seed": seed,
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases) + checked, "failed": failed,
        "metrics": metrics,
        "trace_file": str(trace_path),
        "spans": len(tracer.spans),
        "root_ops": tracer.root_ops(),
        "nesting_violations": tracer.nesting_violations(),
        "ops_traced": {k: p.attempted for k, p in traced.items()},
        "ops_plain": {k: p.attempted for k, p in plain.items()},
        "kinds": {k: p.kind for k, p in traced.items()},
    }


def print_table(metrics: dict[str, float], units: dict[str, str]) -> None:
    for key, value in metrics.items():
        print(f"{key:40s} {value:16.6g} {units.get(key, '(undeclared)')}")


def report(result: dict, declared: list[str], units: dict[str, str],
           probed: dict[str, float] | None = None) -> bool:
    """One workload's header, its metrics by name, and the one-line JSON result.

    The result line carries exactly the ``declared`` metrics — in a
    traced run the workload's own plus the probes' — each a finite
    measured number.  Nothing is filled in: when one is missing the run
    says which, prints no result line and is not correct.  An untraced
    run also measures throughput and latency; they are printed by name,
    but belong to the traced run's list (see README) and not to the line.
    """
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    print_table(result["metrics"], units)
    if "trace_file" in result:
        print(f"# trace: {result['trace_file']} ({result['spans']} spans)")
    metrics = {**(probed or {}), **result["metrics"]}
    problems = {
        "missing": set(declared) - set(metrics),
        "undeclared": set(metrics) - set(units),
        "not finite": {k for k, v in metrics.items() if not math.isfinite(v)},
    }
    for what, names in problems.items():
        if names:
            print(f"run.py: {result['workload']}: {what} metrics: "
                  f"{', '.join(sorted(names))}", file=sys.stderr)
    if any(problems.values()):
        return False
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in declared},
    }), flush=True)
    return result["correct"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None, help="default: all five")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run.py: src/repro not found — the benchmark needs the repo "
              "it measures", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        ap.error(f"unknown workload {args.workload!r} (one of {', '.join(known)})")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [args.workload] if args.workload else known

    all_correct = True
    if args.trace:
        import config
        import probes

        results = [run_traced(name, args.seed, seconds) for name in names]
        # The probes do not depend on the workload: once per invocation,
        # after every timed pass.
        t0 = time.perf_counter()
        probed = probes.run_probes(args.seed, config.FULL)
        print(f"# probes seed={args.seed} ({time.perf_counter() - t0:.1f} s)")
        print_table(probed, units)
        declared = [m["name"] for m in spec["per_layer"]]
        for result in results:
            all_correct &= report(result, declared, units, probed)
    else:
        declared = [m["name"] for m in spec["end_to_end"]]
        for name in names:
            all_correct &= report(run_untraced(name, args.seed, seconds), declared, units)
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
