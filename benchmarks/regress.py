#!/usr/bin/env python3
"""Benchmark regression guard: fresh results vs committed baselines.

Compares the JSON reports the smoke benchmarks just wrote
(``benchmarks/out/BENCH_*.json`` — run outputs, never committed) against
the committed baselines in ``benchmarks/baselines/`` and fails (exit 1)
when a guarded metric regressed beyond its tolerance, or when no smoke
ran at all.  This is the CI tripwire that catches
"the optimisation still passes its floor assert but quietly lost half
its win" — floors catch breakage, baselines catch erosion.

Guarded metrics are dotted paths into the report with a direction:

* ``higher`` is better (speedups): regression = fresh < base * (1 - tol)
* ``lower`` is better (scans, rows): regression = fresh > base * (1 + tol)

Structural metrics (scan counts, rows after pruning) are deterministic
and guarded tightly; wall-clock-derived metrics (speedups) carry a
wider tolerance because CI machines are noisy neighbours.

Run:    PYTHONPATH=src python benchmarks/regress.py
Update: PYTHONPATH=src python benchmarks/regress.py --write-baselines
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).parent
OUT_DIR = HERE / "out"
BASELINE_DIR = HERE / "baselines"

#: Default regression tolerance (fraction of the baseline value).
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class Metric:
    """One guarded metric: dotted path, direction, tolerance."""

    path: str
    direction: str  # "higher" | "lower"
    tolerance: float = DEFAULT_TOLERANCE


#: report file -> guarded metrics.  Timing-derived speedups get 0.5
#: (CI noise); deterministic planner/dedup counts get tight bounds.
GUARDS: dict[str, tuple[Metric, ...]] = {
    "BENCH_planner.json": (
        Metric("speedup", "higher", 0.50),
        Metric("rows_scanned", "lower", 0.05),
        Metric("n_chunks_pruned", "higher", 0.05),
        Metric("cache.hits", "higher", 0.0),
    ),
    "BENCH_serve.json": (
        Metric("speedup", "higher", 0.50),
        # Scan counts are the batching/dedup contract; the dedup-vs-cache
        # *split* is timing-dependent, so only total scans are guarded.
        Metric("served.scans", "lower", 0.05),
        Metric("single_flight.scans", "lower", 0.0),
    ),
    "BENCH_shard.json": (
        # Byte-identity and degraded-mode behaviour are absolute
        # contracts; pruning must keep skipping whole shards.
        Metric("identical.mismatches", "lower", 0.0),
        Metric("pruning.shards_pruned", "higher", 0.0),
        Metric("partial.missing_shards", "lower", 0.0),
        Metric("routed.throughput_rps", "higher", 0.50),
    ),
    "BENCH_views.json": (
        # Byte-identity between view-served and rescanned values is an
        # absolute contract; the speedup floor (5x) is asserted inside
        # views_smoke.py, so the guard only flags erosion.
        Metric("identical.mismatches", "lower", 0.0),
        Metric("speedup", "higher", 0.50),
        # Incremental refresh must keep costing ~the delta, not the
        # dataset: the ratio of full-rebuild rows to delta rows scanned.
        Metric("incremental.delta_rows_ratio", "higher", 0.50),
    ),
    "BENCH_soak.json": (
        # The robustness invariants are absolute: any error or
        # cross-generation mix is a failure regardless of the baseline.
        Metric("failures.errors", "lower", 0.0),
        Metric("failures.gen_mix_violations", "lower", 0.0),
        Metric("requests.transport_errors", "lower", 0.0),
        # At least one reload/cancel/revive must keep happening; counts
        # scale with soak duration, so only guard against collapse.
        Metric("reloads.ok", "higher", 0.70),
        Metric("deadline.cancelled", "higher", 0.90),
        Metric("worker.revives", "higher", 0.0),
        # Tail latency during reload windows.  The hard ceiling (2 s) is
        # asserted inside soak.py; this guard only flags order-of-
        # magnitude erosion, since the baseline is single-digit ms and
        # CI runners are noisy.
        Metric("latency.p99_reload_s", "lower", 50.0),
    ),
}


def _producer(name: str) -> str:
    """The command that writes report ``name`` (``BENCH_<x>.json``)."""
    stem = name.removeprefix("BENCH_").removesuffix(".json")
    script = "soak.py" if stem == "soak" else f"{stem}_smoke.py"
    return f"PYTHONPATH=src python benchmarks/{script}"


def _lookup(doc: dict, dotted: str):
    cur = doc
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def _check_file(name: str, metrics: tuple[Metric, ...]) -> list[str]:
    """Returns failure strings for one report; [] when clean or skipped.

    A missing *fresh* report is a skip — each CI job runs one smoke and
    regress checks whatever landed in ``out/`` (``main`` fails when
    nothing did).  A missing *baseline* (file or metric) for a report
    that DID run is a hard failure: a
    guard that silently stops comparing is indistinguishable from a
    guard that passes.
    """
    fresh_path = OUT_DIR / name
    base_path = BASELINE_DIR / name
    if not fresh_path.exists():
        print(f"  {name}: no fresh report, skipped (run '{_producer(name)}')")
        return []
    if not base_path.exists():
        return [
            f"{name}: fresh report exists but no baseline is committed at "
            f"{base_path}; run "
            f"'PYTHONPATH=src python benchmarks/regress.py --write-baselines' "
            f"and commit the result"
        ]
    fresh = json.loads(fresh_path.read_text())
    base = json.loads(base_path.read_text())
    failures: list[str] = []
    for m in metrics:
        bv, fv = _lookup(base, m.path), _lookup(fresh, m.path)
        if bv is None:
            failures.append(
                f"{name}:{m.path}: guarded metric missing from the committed "
                f"baseline {base_path}; re-promote it with "
                f"'PYTHONPATH=src python benchmarks/regress.py "
                f"--write-baselines' and commit the result"
            )
            continue
        if fv is None:
            failures.append(f"{name}:{m.path}: present in baseline but missing "
                            f"from the fresh report")
            continue
        bv, fv = float(bv), float(fv)
        if m.direction == "higher":
            bound = bv * (1.0 - m.tolerance)
            bad = fv < bound
        else:
            bound = bv * (1.0 + m.tolerance)
            bad = fv > bound
        arrow = ">=" if m.direction == "higher" else "<="
        verdict = "REGRESSED" if bad else "ok"
        print(
            f"  {name}:{m.path}: {fv:g} (baseline {bv:g}, "
            f"must be {arrow} {bound:g}) {verdict}"
        )
        if bad:
            failures.append(
                f"{name}:{m.path}: {fv:g} vs baseline {bv:g} "
                f"(tolerance {m.tolerance:.0%}, {m.direction} is better)"
            )
    return failures


def write_baselines() -> int:
    BASELINE_DIR.mkdir(exist_ok=True)
    wrote = 0
    for name in GUARDS:
        src = OUT_DIR / name
        if not src.exists():
            print(f"  {name}: no fresh report to promote")
            continue
        shutil.copyfile(src, BASELINE_DIR / name)
        print(f"  promoted {src} -> {BASELINE_DIR / name}")
        wrote += 1
    return 0 if wrote else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--write-baselines",
        action="store_true",
        help="promote the fresh out/ reports to committed baselines",
    )
    args = ap.parse_args(argv)
    if args.write_baselines:
        return write_baselines()

    failures: list[str] = []
    print("benchmark regression check:")
    for name, metrics in GUARDS.items():
        failures.extend(_check_file(name, metrics))
    if not any((OUT_DIR / name).exists() for name in GUARDS):
        failures.append(
            f"no fresh report in {OUT_DIR}: nothing was compared; run a "
            f"smoke first, e.g. '{_producer(next(iter(GUARDS)))}'"
        )
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
