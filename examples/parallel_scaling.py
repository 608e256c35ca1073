#!/usr/bin/env python3
"""Parallel scaling of the aggregated country query (the paper's Fig 12).

Measures the engine at the thread counts this host offers, characterizes
the host with a STREAM-style bandwidth microbenchmark, then calibrates
the NUMA cost model on the measured single-thread time and extrapolates
to the paper's 64-core / 8-NUMA-node EPYC 7601 testbed.

Also quantifies *why* the system is specialized at all: the same query
executed row-at-a-time in a generic fashion, with the per-row slowdown
reported.

Run:  python examples/parallel_scaling.py
"""

import os
import time

from repro import engine, ingest, synth
from repro.benchlib import fig12_scaling
from repro.engine.baseline import row_at_a_time_country_query
from repro.parallel import stream_triad


def main() -> None:
    ds = synth.generate_dataset(synth.small_config())
    events, mentions, dicts = ingest.dataset_to_arrays(ds, include_urls=False)
    store = engine.GdeltStore.from_arrays(events, mentions, dicts)
    # Warm the derived columns so measurements isolate the query.
    store.mention_event_row()
    store.source_country_idx()
    store.event_country_idx()

    print("host STREAM bandwidth:", end=" ")
    sr = stream_triad(n=5_000_000, repeats=2)
    print(f"triad {sr.triad_gbs:.1f} GB/s (paper's node: ~240 GB/s)")

    max_threads = min(4, (os.cpu_count() or 1) * 2)
    result = fig12_scaling(
        store,
        thread_counts=tuple(sorted({1, 2, max_threads})),
        model_counts=(1, 2, 4, 8, 16, 32, 64),
    )
    print()
    print(result.text)
    print("(model: EPYC 7601 node; paper: 344s -> 43s, ~8x)")

    n_rows = 20_000
    t0 = time.perf_counter()
    row_at_a_time_country_query(store, n_rows)
    per_row_base = (time.perf_counter() - t0) / n_rows
    t0 = time.perf_counter()
    engine.aggregated_country_query(store)
    per_row_col = (time.perf_counter() - t0) / store.n_mentions
    print(
        f"columnar engine: {per_row_col * 1e9:.0f} ns/row; "
        f"row-at-a-time baseline: {per_row_base * 1e9:.0f} ns/row "
        f"-> {per_row_base / per_row_col:.0f}x speedup from specialization"
    )


if __name__ == "__main__":
    main()
