#!/usr/bin/env python3
"""Does the benchmark repeat?  Two sets of runs of the same code, compared.

    python3 benchmarks/e2e/repeat.py [--runs N] [--workload NAME ...]

Runs two full sets back to back, alternating the workload order; a set is
``--runs`` untraced runs of every workload, each run with its own seed
(the same seeds in both sets).  Per metric and workload it prints the two
set medians, their relative difference (over the smaller of the two, in
either direction) beside the metric's bound, and — with four or more
runs — the spread of each set (distance between the first and third
quartile over the median, which the acceptance rule asks to stay inside
the bound; ``setup_s`` is exempt).  The throughput and latency an
untraced run also prints are listed the same way, without a bound.
Writes ``out/repeat.json`` and exits non-zero when the two medians of any
end-to-end metric differ by more than its bound, or a spread exceeds it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import load_spec

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float | None, names: set[str]) -> dict:
    """One untraced run: its result line, plus every metric its table prints.

    The table also holds the throughput and latency an untraced run
    measures; they have no bound, and are shown here for what they say
    about the host.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    table = (line.split() for line in lines[:-1])
    result["measured"] = {
        f[0]: float(f[1]) for f in table if len(f) == 3 and f[0] in names
    }
    # The end-to-end metrics with all their digits, from the result line.
    result["measured"].update({k: m["value"] for k, m in result["metrics"].items()})
    return result


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1, help="runs (seeds) per set")
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workload", action="append", default=None)
    args = ap.parse_args()

    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = set(bounds) | {m["name"] for m in spec["per_layer"]}
    seeds = [args.first_seed + i for i in range(args.runs)]
    sets: list[dict[str, dict[str, list[float]]]] = []
    for set_no in range(2):
        order = workloads if set_no == 0 else workloads[::-1]
        values: dict[str, dict[str, list[float]]] = {}
        for workload in order:
            for seed in seeds:
                result = one_run(workload, seed, args.seconds, names)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: wrong answers")
                for name, value in result["measured"].items():
                    values.setdefault(workload, {}).setdefault(name, []).append(value)
                print(f"set {set_no + 1} {workload} seed {seed} done", file=sys.stderr)
        sets.append(values)

    rows, bad = [], 0
    print(f"{'workload':14s} {'metric':22s} {'set 1':>12s} {'set 2':>12s} "
          f"{'differ by':>9s} {'bound':>6s} {'spread 1':>9s} {'spread 2':>9s}")
    for workload in workloads:
        for name in sets[0][workload]:
            bound = bounds.get(name)  # None: measured, not an end-to-end metric
            a, b = (s[workload][name] for s in sets)
            m1, m2 = statistics.median(a), statistics.median(b)
            differ = abs(m2 - m1) / min(m1, m2)
            spreads = [spread(a), spread(b)]
            over = bound is not None and (differ > bound or (
                name != "setup_s" and any(s is not None and s > bound for s in spreads)
            ))
            bad += over
            rows.append({"workload": workload, "metric": name, "set1": m1, "set2": m2,
                         "differ_by": differ, "bound": bound, "spreads": spreads,
                         "within_bound": not over, "values": [a, b]})
            shown = ["    -" if s is None else f"{s:9.4f}" for s in spreads]
            limit = "     -" if bound is None else f"{bound:6.3f}"
            print(f"{workload:14s} {name:22s} {m1:12.5g} {m2:12.5g} {differ:9.4f} "
                  f"{limit} {shown[0]:>9s} {shown[1]:>9s}{'  OVER' if over else ''}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(
        json.dumps({"seeds": seeds, "rows": rows}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"{bad} end-to-end metric(s) outside their bound; wrote {out / 'repeat.json'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
