"""Committed constants of the benchmark: sizes, rates, cadences, percentiles.

Nothing here is calibrated at run time.  Open-loop rates and cadences
were sized once on the seed code to sit near 50% utilisation (see
README.md, "Interaction rules"); changing one re-bases every number
measured with it, so a PR that claims a gain may not edit this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

#: Load-generator threads/connections — the sandbox has two cores, and
#: the servers under test need one of them.
NPROC = min(2, os.cpu_count() or 1)

#: An open-loop phase whose generator falls this far behind is aborted
#: and its remaining operations are counted as failed.
MAX_BACKLOG_S = 1.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one scale (``full`` is what BENCHMARK.json runs)."""

    #: An untraced run is this many independent repetitions — set-up,
    #: ``--seconds / repetitions`` of timed work, recheck, tear-down — and
    #: every end-to-end metric is the median over them.  Repetitions are
    #: seconds apart, so a burst of interference from the host spoils one
    #: of them and not the median.
    repetitions: int = 3
    #: Main corpus: ``synth.calibrated_config()`` cut to a third so that
    #: three full set-ups plus the timed run fit the driver's budget.
    events: int = 108_000
    sources: int = 6_000
    #: Zone-map granularity scaled with the corpus (~50 chunks, the
    #: chunk count a default-granularity dataset has at ~3M rows).
    zone_chunk_rows: int = 8_192
    #: ``ingest_follow`` corpus, exported as weekly raw archives.
    ingest_events: int = 14_000
    ingest_sources: int = 2_100
    ingest_chunk_intervals: int = 672
    #: Probe corpus of the traced run (``synth.small_config()`` size).
    probe_events: int = 40_000
    probe_sources: int = 2_100
    probe_ingest_events: int = 4_000
    probe_ingest_sources: int = 300
    #: Length of the probes' fixed passes: requests of the hot mix (in
    #: process, and per connection against the probe server).
    probe_requests: int = 1_000

    #: serve_hot: fixed query pool, ranks registered as views, Zipf
    #: exponent, share of the run spent in the closed-loop phase, and the
    #: committed open-loop arrival rate (requests/s over both connections).
    pool: int = 64
    view_ranks: tuple[int, ...] = (0, 2, 5, 9, 14, 20, 33, 47)
    zipf_s: float = 1.1
    serve_closed_share: float = 0.4
    serve_open_rate: float = 1000.0

    #: ingest_follow: share of the timed seconds given to the closed-loop
    #: catch-up phase (the rest is the live phase), the archive pairs held
    #: back for it (it ends early when they run out), the live phase's
    #: landing cadence, and the reader's pacing.
    catchup_share: float = 0.3
    catchup_reserve: int = 80
    landing_cadence_s: float = 0.07
    reader_interval_s: float = 0.02

    #: 1-in-N operations kept for the post-window recheck.
    recheck_every: int = 16


FULL = Sizes()

#: ``selftest.py --scale smoke``: same code paths, seconds-sized inputs.
SMOKE = replace(
    FULL,
    repetitions=1,
    events=4_000, sources=300, zone_chunk_rows=1_024,
    ingest_events=1_500, ingest_sources=120, ingest_chunk_intervals=2_688,
    probe_events=2_000, probe_sources=120,
    probe_ingest_events=800, probe_ingest_sources=80, probe_requests=200,
    serve_open_rate=300.0, catchup_reserve=20, landing_cadence_s=0.03,
    recheck_every=4,
)

SCALES = {"full": FULL, "smoke": SMOKE}

#: ``lat_tail_ms`` percentile per workload: the highest of p99/p95/p90/p75
#: that leaves at least ten samples beyond it in one repetition of a
#: full-scale run (4 s of timed work) and repeats on the seed code.  A
#: repetition holds ~120 (mine_suite), ~4 000 (adhoc_scan), ~1 600
#: (serve_hot), ~470 (shard_wide) and 40 (ingest_follow) latency samples.
TAIL_PERCENTILE = {
    "mine_suite": 90,
    "adhoc_scan": 95,
    "serve_hot": 95,
    "shard_wide": 95,
    "ingest_follow": 75,
}
