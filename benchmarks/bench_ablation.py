"""Ablations of the design choices DESIGN.md calls out.

1. Dictionary-encoded columns vs raw Python strings — the binary-format
   claim: grouped counting over int codes must beat string hashing by a
   wide margin.
2. Dense vs sparse co-reporting accumulation — the paper argues dense is
   right at GDELT's source count; sparse quarterly assembly is the
   documented scaling fallback.
3. Morsel size — bandwidth-bound scans are insensitive over a broad
   plateau but degrade at pathological extremes.
4. Time slicing — a sorted-range restriction vs a full predicate scan vs
   the same scan with zone-map pruning.
5. Column compression — space saved vs decode cost per codec.
6. NUMA placement — model-predicted query time under the paper's
   thread/memory placement regimes.

The columnar vs row-at-a-time engine comparison lives in bench_fig12.
"""

import numpy as np
import pytest

from repro.analysis import source_coreporting, source_coreporting_sparse, top_publishers
from repro.engine import SerialExecutor
from repro.engine.aggregate import group_count
from repro.engine.query import aggregated_country_query


# --- 1. dictionary encoding -------------------------------------------------


def bench_ablation_dict_encoded_groupby(benchmark, bench_store):
    """Grouped count over int32 dictionary codes (the engine's way)."""
    sid = np.asarray(bench_store.mentions["SourceId"])
    n = bench_store.n_sources
    out = benchmark(lambda: group_count(sid.astype(np.int64), n))
    assert out.sum() == bench_store.n_mentions


def bench_ablation_raw_string_groupby(benchmark, bench_store):
    """The same count over materialized strings (what conversion avoids)."""
    sid = np.asarray(bench_store.mentions["SourceId"])
    domains = bench_store.sources.to_list()
    strings = [domains[s] for s in sid[:200_000]]

    def count():
        acc: dict[str, int] = {}
        for s in strings:
            acc[s] = acc.get(s, 0) + 1
        return acc

    out = benchmark(count)
    assert sum(out.values()) == len(strings)


# --- 2. dense vs sparse co-reporting -----------------------------------------


@pytest.fixture(scope="module")
def top200(bench_store):
    return top_publishers(bench_store, 200)


def bench_ablation_coreporting_dense(benchmark, bench_store, top200):
    j = benchmark(source_coreporting, bench_store, top200)
    assert j.shape == (200, 200)


def bench_ablation_coreporting_sparse(benchmark, bench_store, top200):
    j = benchmark(
        source_coreporting_sparse, bench_store, top200, True
    )
    assert j.shape == (200, 200)
    # The two strategies count the same integers: equal to the byte.
    assert j.tobytes() == source_coreporting(bench_store, top200).tobytes()


# --- 3. morsel size ------------------------------------------------------------


@pytest.mark.parametrize("chunk_rows", [2_000, 50_000, 1_000_000])
def bench_ablation_morsel_size(benchmark, bench_store, chunk_rows):
    result = benchmark(
        aggregated_country_query, bench_store, SerialExecutor(), chunk_rows
    )
    assert result.cross_counts.sum() > 0


# --- 4. time slicing: sorted-range restriction vs predicate scan ---------------


def bench_ablation_time_range_sorted(benchmark, bench_store):
    """One-quarter slice via binary search on the sorted interval column."""
    from repro.engine import result_cache
    from repro.gdelt.time_util import quarter_index_range

    lo, hi = quarter_index_range(10)
    q = bench_store.query("mentions").time_range(lo, hi)

    def run():
        result_cache().invalidate()  # measure the scan, not the cache
        return q.count()

    res = benchmark(run)
    assert res.value > 0


def bench_ablation_time_range_scan(benchmark, bench_store):
    """The same slice as a full-table predicate scan (pruning disabled)."""
    from repro.engine import col, result_cache
    from repro.gdelt.time_util import quarter_index_range

    lo, hi = quarter_index_range(10)
    q = (
        bench_store.query("mentions")
        .filter((col("MentionInterval") >= lo) & (col("MentionInterval") < hi))
        .with_pruning(False)
    )

    def run():
        result_cache().invalidate()
        return q.count()

    res = benchmark(run)
    assert res.value > 0


def bench_ablation_time_range_pruned(benchmark, bench_store):
    """The same predicate scan with zone-map chunk pruning engaged."""
    from repro.engine import col, result_cache
    from repro.gdelt.time_util import quarter_index_range

    lo, hi = quarter_index_range(10)
    q = bench_store.query("mentions").filter(
        (col("MentionInterval") >= lo) & (col("MentionInterval") < hi)
    )

    def run():
        result_cache().invalidate()
        return q.count()

    res = benchmark(run)
    assert res.value > 0
    assert res.plan.pruning == "zone-map"


# --- 5. column compression: space vs scan-time trade-off ------------------------


def bench_ablation_codec_report(benchmark, bench_store, save_output):
    """Compression ratio and decode cost per codec on real columns."""
    import time

    import numpy as np

    from repro.analysis.report import render_table
    from repro.storage.codecs import decode_column, encode_column

    interval = np.asarray(bench_store.mentions["MentionInterval"])
    tone = np.asarray(bench_store.mentions["DocTone"])

    def measure():
        rows = []
        for colname, arr, codecs in (
            ("MentionInterval", interval, ("delta-rle", "delta-zlib", "zlib")),
            ("DocTone", tone, ("zlib",)),
        ):
            for codec in codecs:
                enc = encode_column(arr, codec)
                t0 = time.perf_counter()
                out = decode_column(enc, codec, arr.dtype, len(arr))
                dt = time.perf_counter() - t0
                assert np.array_equal(out, arr)
                rows.append(
                    (colname, codec, arr.nbytes / len(enc), dt * 1e3)
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=2, iterations=1)
    text = render_table(
        ["column", "codec", "ratio", "decode ms"],
        rows,
        title="Column compression: ratio vs decode cost",
        floatfmt=".2f",
    )
    save_output("ablation_codecs", text)
    by = {(r[0], r[1]): r[2] for r in rows}
    # The sorted capture column must compress well under delta-zlib...
    assert by[("MentionInterval", "delta-zlib")] > 3.0
    # ...and better than plain zlib on the same data.
    assert by[("MentionInterval", "delta-zlib")] > by[("MentionInterval", "zlib")]


# --- 6. NUMA placement: the paper's thread/memory placement warning ------------


def bench_ablation_numa_placement(benchmark, save_output):
    """Model-predicted query time under the three placement regimes.

    The paper: "care must be taken to correctly place the compute threads
    and distribute memory allocations among the cores and NUMA nodes in
    order to obtain the full performance of the machine."  The model makes
    that advice quantitative: scatter+interleave reaches the STREAM peak,
    compact placement saturates single-node links mid-curve, and the
    node0 memory policy caps the whole machine at one controller.
    """
    from repro.analysis.report import render_table
    from repro.engine.costmodel import calibrate_to_paper
    from repro.engine.numa import EPYC_7601_NODE, Placement, effective_bandwidth
    from repro.engine.costmodel import ScalingModel

    base = calibrate_to_paper()

    def predict_for(policy: str, memory: str, threads: int) -> float:
        model = ScalingModel(
            serial_seconds=base.serial_seconds,
            compute_seconds=base.compute_seconds,
            memory_gbytes=base.memory_gbytes,
            topology=base.topology,
            placement_policy=policy,
            memory_policy=memory,
        )
        return model.predict(threads)

    def run():
        rows = []
        for threads in (8, 16, 32, 64):
            rows.append(
                (
                    threads,
                    predict_for("scatter", "interleave", threads),
                    predict_for("compact", "interleave", threads),
                    predict_for("scatter", "node0", threads),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        ["threads", "scatter+interleave s", "compact+interleave s", "node0 s"],
        rows,
        title="NUMA placement model (calibrated to the paper's t(1)=344s)",
        floatfmt=".1f",
    )
    # Bandwidth context for the writeup.
    bw = {
        p: effective_bandwidth(EPYC_7601_NODE, Placement(64, "scatter" if p != "compact" else p),
                               "node0" if p == "node0" else "interleave")
        for p in ("scatter", "compact", "node0")
    }
    text += (
        f"\n64-thread effective bandwidth: scatter {bw['scatter']:.0f} GB/s, "
        f"node0 policy {bw['node0']:.0f} GB/s (single controller)\n"
    )
    save_output("ablation_numa", text)

    for threads, scatter, compact, node0 in rows:
        assert scatter <= compact + 1e-9
        assert scatter < node0
