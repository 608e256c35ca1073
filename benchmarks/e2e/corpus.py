"""Seeded inputs: the corpus builder child process and ground truth.

The corpus is generated and written by a *child* of the harness
(``python corpus.py ...``), so the generator's memory never counts
toward ``peak_rss_mb`` and the processes under test only ever see the
files it leaves behind — never the seed or the workload name.  Beside
the data it writes ``truth.json``: the generator's own row counts, which
the workloads' oracles compare answers against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path


def build(out: Path, seed: int, events: int, sources: int,
          zone_chunk_rows: int | None = None,
          raw_chunk_intervals: int | None = None) -> dict:
    """Run in the child: generate, write ``db/`` or ``raw/``, return truth."""
    import numpy as np

    from repro import synth
    from repro.ingest.direct import dataset_to_binary

    cfg = replace(synth.calibrated_config(), seed=seed, n_events=events,
                  n_sources=sources)
    ds = synth.generate_dataset(cfg)
    truth: dict = {
        "n_events": int(ds.n_events),
        "n_mentions": int(ds.n_articles),
        "n_sources": int(sources),
    }
    interval = np.sort(ds.mentions.interval)
    truth["interval_min"] = int(interval[0])
    truth["interval_max"] = int(interval[-1])
    truth["interval_median"] = int(interval[len(interval) // 2])
    if raw_chunk_intervals is None:
        dataset_to_binary(ds, out / "db", zone_chunk_rows=zone_chunk_rows)
    else:
        synth.write_raw_archives(ds, out / "raw", chunk_intervals=raw_chunk_intervals)
        # Cumulative generator row counts per landing (one chunk index =
        # one export/mentions archive pair), in landing order.
        start = cfg.start_interval
        ev_chunk = (ds.first_interval - start) // raw_chunk_intervals
        ev_chunk = ev_chunk[ev_chunk >= 0]  # never-mentioned events are not exported
        mt_chunk = (ds.mentions.interval - start) // raw_chunk_intervals
        chunks = sorted(set(ev_chunk.tolist()) | set(mt_chunk.tolist()))
        ev_sorted, mt_sorted = np.sort(ev_chunk), np.sort(mt_chunk)
        truth["landings"] = [
            {
                "interval0": int(start + c * raw_chunk_intervals),
                "events": int(np.searchsorted(ev_sorted, c, side="right")),
                "mentions": int(np.searchsorted(mt_sorted, c, side="right")),
            }
            for c in chunks
        ]
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth


def problem_rows(report) -> int:
    """Rows a conversion's ``ProblemReport`` flagged (Table II row classes)."""
    return sum(
        getattr(report, f)
        for f in ("bad_event_rows", "bad_mention_rows", "missing_source_urls",
                  "future_event_dates")
    )


def build_in_child(out: Path, seed: int, events: int, sources: int,
                   zone_chunk_rows: int | None = None,
                   raw_chunk_intervals: int | None = None) -> dict:
    """Harness side: run the builder child, return its ground truth."""
    import harness

    out.mkdir(parents=True, exist_ok=True)
    args = [sys.executable, str(Path(__file__).resolve()), str(out),
            "--seed", str(seed), "--events", str(events),
            "--sources", str(sources)]
    if zone_chunk_rows is not None:
        args += ["--zone-chunk-rows", str(zone_chunk_rows)]
    if raw_chunk_intervals is not None:
        args += ["--raw-chunk-intervals", str(raw_chunk_intervals)]
    proc = harness.spawn(args, stdout=subprocess.DEVNULL)
    code = proc.wait()
    harness.stop_process(proc)
    if code != 0:
        raise RuntimeError(f"corpus builder exited with {code}")
    return json.loads((out / "truth.json").read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--events", type=int, required=True)
    ap.add_argument("--sources", type=int, required=True)
    ap.add_argument("--zone-chunk-rows", type=int, default=None)
    ap.add_argument("--raw-chunk-intervals", type=int, default=None)
    a = ap.parse_args()
    build(a.out, a.seed, a.events, a.sources, a.zone_chunk_rows,
          a.raw_chunk_intervals)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
