"""Per-layer probes: each layer timed on its own, from outside.

Run only in a traced run, once, after the timed windows, on a fixed
*probe corpus* (``synth.small_config()`` size, reseeded): they are the
one source of every layer metric, whichever workload was traced, so the
numbers are comparable between workloads and between commits.  Counters
that belong to a traffic mix are taken over a fixed-length pass of that
mix in miniature.  Every probe times calls into a layer's public
functions or reads what the protocol reports; none reaches into private
state.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import replace

import numpy as np

import repro
import repro.obs as obs
from repro import analysis, engine, synth
from repro.engine import GdeltStore, SerialExecutor, ThreadExecutor, col
from repro.engine.planner import invalidate_cache
from repro.gdelt.masterlist import parse_master_list
from repro.ingest.convert import convert_raw_to_binary
from repro.ingest.direct import dataset_to_arrays, dataset_to_binary
from repro.ingest.stream import LiveFollower
from repro.parallel.stream import stream_triad
from repro.serve import (
    QueryRequest,
    QueryService,
    ServeClient,
    StoreLifecycle,
    compile_request,
)
from repro.shard import split_dataset
from repro.storage import decode_column, encode_column, verify_dataset
from repro.views import ViewCatalog, ViewDefinition

import config
import corpus
import harness
import queries
from workloads import mine_suite, serve_hot


def _ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _p50_us(fn, n: int) -> float:
    """Median of ``n`` timed calls, in microseconds."""
    return harness.percentile([_ms(fn) * 1e3 for _ in range(n)], 50)


def _rate(rows: int, fn, n: int) -> float:
    """Rows per second at the median of ``n`` calls."""
    return rows / (harness.percentile([_ms(fn) for _ in range(n)], 50) / 1e3)


def _truth(store) -> dict:
    """What the query streams need to know about a corpus, read off a store."""
    mi = store.mentions["MentionInterval"]  # capture-sorted
    return {"interval_min": int(mi[0]), "interval_max": int(mi[-1]),
            "interval_median": int(mi[len(mi) // 2]), "n_sources": store.n_sources}


def run_probes(seed: int, sizes: config.Sizes) -> dict[str, float]:
    work = harness.new_workdir()
    try:
        out: dict[str, float] = {}
        db = _storage(out, work, seed, sizes)
        store = GdeltStore.open(db, mode="memory")
        _engine(out, store, seed, sizes)
        _analysis(out, store)
        _views_and_inproc(out, store, db)
        _ingest(out, work, seed, sizes)
        _serve(out, work, db, store, seed, sizes)
        _shard(out, work, db, store, seed, sizes)
        _obs(out, store, seed)
        store.release()
        out["parallel.stream_triad_gb_per_s"] = stream_triad(
            n=2_000_000, repeats=3
        ).triad_gbs
        return out
    finally:
        harness.drop_workdir(work)


# -- storage ---------------------------------------------------------------


def _storage(out, work, seed, sizes):
    cfg = replace(synth.calibrated_config(), seed=seed,
                  n_events=sizes.probe_events, n_sources=sizes.probe_sources)
    ds = synth.generate_dataset(cfg)
    arrays = []
    out["ingest.dataset_to_arrays_ms"] = _ms(lambda: arrays.append(dataset_to_arrays(ds)))
    db = work / "db"
    out["storage.write_binary_s"] = _ms(
        lambda: dataset_to_binary(ds, db, zone_chunk_rows=sizes.zone_chunk_rows)
    ) / 1e3
    out["storage.bytes_per_mention_row"] = harness.dir_bytes(db) / ds.n_articles
    for mode in ("memory", "mmap"):
        out[f"storage.open_{mode}_ms"] = harness.percentile(
            [_ms(lambda: GdeltStore.open(db, mode=mode).release()) for _ in range(5)], 50
        )
    out["storage.verify_ms"] = _ms(lambda: verify_dataset(db))
    # Codec throughput on the column the compressed layout delta-codes.
    column = arrays[0][1]["MentionInterval"]
    mb = column.nbytes / 1e6
    blob = encode_column(column, "delta-zlib")
    out["storage.codec_encode_mb_per_s"] = mb / (
        _p50_us(lambda: encode_column(column, "delta-zlib"), 5) / 1e6
    )
    out["storage.codec_decode_mb_per_s"] = mb / (
        _p50_us(lambda: decode_column(blob, "delta-zlib", column.dtype, len(column)), 5) / 1e6
    )
    return db


# -- engine ----------------------------------------------------------------


#: Queries of the ad-hoc pass whose plan counters are exact per seed.
ADHOC_PASS = 200


def _engine(out, store, seed, sizes) -> None:
    n, n_ev = store.n_mentions, store.n_events
    mi = store.mentions["MentionInterval"]
    lo, hi = int(mi[n // 4]), int(mi[n // 2])
    k = iter(range(10**9))  # every timed query gets a fresh predicate

    def windowed():
        return store.query("mentions").filter(
            (col("MentionInterval") >= lo + next(k)) & (col("MentionInterval") < hi)
        )

    out["engine.first_pass_ms"] = _ms(
        lambda: store.query("mentions").group_by("SourceCountry").count()
    )
    out["engine.plan_us_p50"] = _p50_us(lambda: windowed().explain(), 50)
    out["engine.scan_rows_per_s_scalar"] = _rate(
        n, lambda: store.query("mentions").filter(col("Delay") > next(k)).count(), 30
    )
    out["engine.scan_rows_per_s_grouped"] = _rate(
        n, lambda: store.query("mentions").filter(col("Delay") > next(k))
        .group_by("Source").sum("Delay"), 20,
    )
    out["engine.stats_rows_per_s"] = _rate(
        n, lambda: store.query("mentions").filter(col("Delay") > next(k))
        .group_by("Quarter").stats("Delay"), 5,
    )
    out["engine.lowcard_rows_per_s"] = _rate(
        n_ev, lambda: store.query("events").filter(
            col("RootCode").isin([1 + next(k) % 20, 7]) & (col("NumMentions") >= next(k))
        ).count(), 30,
    )
    hot = store.query("mentions").filter(col("Delay") > 96)
    hot.count()
    out["engine.cache_hit_us_p50"] = _p50_us(
        lambda: store.query("mentions").filter(col("Delay") > 96).count(), 200
    )
    engine.aggregated_country_query(store)  # joins and country keys get built here
    with ThreadExecutor(config.NPROC) as team:
        t1, tn = (
            harness.percentile(
                [_ms(lambda: engine.aggregated_country_query(store, ex)) for _ in range(5)], 50
            )
            for ex in (SerialExecutor(), team)
        )
    out["engine.thread_speedup"] = t1 / tn
    _plan_counters(out, store, seed, sizes)


def _plan_counters(out, store, seed, sizes) -> None:
    """What the planner reports over fixed-length passes (exact per seed)."""
    stream = queries.adhoc_stream(np.random.default_rng([seed, 0xAD]), _truth(store))
    plans = [queries.run_fluent(store, next(stream)).plan for _ in range(ADHOC_PASS)]
    out["engine.pruned_chunk_frac"] = (
        sum(p.n_chunks_pruned for p in plans) / sum(p.n_chunks_total for p in plans)
    )
    out["engine.rows_scanned_per_op"] = sum(p.rows_planned for p in plans) / len(plans)
    # The hot mix in process: every query after a spec's first is a hit.
    rng = np.random.default_rng([seed, 0xCA])
    pool = queries.hot_pool(rng, sizes.pool)
    invalidate_cache()
    hits = sum(
        queries.run_fluent(store, pool[rank]).plan.cache_status == "hit"
        for rank in queries.zipf_draws(rng, sizes.pool, sizes.zipf_s, sizes.probe_requests)
    )
    out["engine.cache_hit_frac"] = hits / sizes.probe_requests


def _analysis(out, store) -> None:
    top10 = analysis.top_publishers(store, 10)
    top50 = analysis.top_publishers(store, 50)
    for name, _, call in mine_suite.suite(store, None, top10, top50):
        call()
        out[f"analysis.{name}_ms"] = harness.percentile([_ms(call) for _ in range(3)], 50)


# -- views and the in-process service -----------------------------------------


def _views_and_inproc(out, store, db) -> None:
    catalog = ViewCatalog(None)
    catalog.create(ViewDefinition(name="by_quarter", group_by="Quarter"))
    catalog.create(ViewDefinition(name="late", where=("Delay > 96",)))
    out["views.build_ms"] = _ms(lambda: catalog.refresh(store))
    op = compile_request(store, QueryRequest(op="count", group_by="Quarter"))
    assert catalog.serve_lookup(op) is not None, "probe view is not servable"
    out["views.lookup_us_p50"] = _p50_us(lambda: catalog.serve_lookup(op), 500)
    with QueryService(store, workers=config.NPROC) as svc:
        svc.query("mentions", op="count", where=col("Delay") > 96)
        out["serve.inproc_us_p50"] = _p50_us(
            lambda: svc.query("mentions", op="count", where=col("Delay") > 96), 300
        )
    lifecycle = StoreLifecycle(GdeltStore.open(db), reload_path=db)
    out["serve.reload_ms_p50"] = harness.percentile(
        [_ms(lambda: lifecycle.reload()) for _ in range(3)], 50
    )
    lifecycle.close()


# -- ingest ------------------------------------------------------------------


def _ingest(out, work, seed, sizes) -> None:
    cfg = replace(synth.calibrated_config(), seed=seed,
                  n_events=sizes.probe_ingest_events,
                  n_sources=sizes.probe_ingest_sources)
    ds = synth.generate_dataset(cfg)
    raw = work / "raw"
    synth.write_raw_archives(ds, raw, chunk_intervals=sizes.ingest_chunk_intervals)
    results = []
    convert_s = _ms(lambda: results.append(convert_raw_to_binary(raw, work / "conv"))) / 1e3
    result = results[0]
    out["ingest.convert_rows_per_s"] = (result.n_mentions + result.n_events) / convert_s
    out["ingest.problem_rows"] = float(corpus.problem_rows(result.report))
    # Follow the same mirror live, eight weekly landings per poll.
    mirror = work / "mirror"
    mirror.mkdir()
    master = (raw / "masterfilelist.txt").read_text(encoding="utf-8")
    shutil.copy(raw / "masterfilelist.txt", mirror / "masterfilelist.txt")
    by_interval: dict[int, list[str]] = {}
    for ref in parse_master_list(master).chunks:
        by_interval.setdefault(ref.interval, []).append(ref.entry.url.rsplit("/", 1)[-1])
    follower = LiveFollower(mirror)
    polls, snaps, refresh_ms, refresh_rows = [], [], 0.0, 0
    catalog = ViewCatalog(None)
    catalog.create(ViewDefinition(name="by_quarter", group_by="Quarter"))
    intervals = sorted(by_interval)
    for i in range(0, len(intervals), 8):
        for interval in intervals[i:i + 8]:
            for name in by_interval[interval]:
                os.link(raw / name, mirror / name)
        polls.append(_ms(follower.poll))
        stores = []
        snaps.append(_ms(lambda: stores.append(follower.snapshot())))
        t0 = time.perf_counter()
        summary = catalog.refresh(stores[0], source="poll")
        refresh_ms += (time.perf_counter() - t0) * 1e3
        refresh_rows += summary["by_quarter"]["delta_rows"]
        stores[0].release()
    out["ingest.poll_ms_p50"] = harness.percentile(polls, 50)
    out["ingest.snapshot_ms_p50"] = harness.percentile(snaps, 50)
    out["ingest.snapshot_ms_last10"] = harness.percentile(snaps[-10:], 50)
    out["views.refresh_ms_per_krow"] = refresh_ms / max(1e-9, refresh_rows / 1e3)


# -- serve (over the socket) ---------------------------------------------------


def _serve(out, work, db, store, seed, sizes) -> None:
    """Round trips, then ``serve_hot``'s mix in miniature: two connections,
    a fixed number of Zipf draws each, against a server with views."""
    rng = np.random.default_rng([seed, 0x5E])
    wire = [queries.wire_kwargs(spec) for spec in queries.hot_pool(rng, sizes.pool)]
    views_dir = work / "views"
    serve_hot.build_views(views_dir, wire, sizes.view_ranks, store)
    draws = [
        queries.zipf_draws(rng, sizes.pool, sizes.zipf_s, sizes.probe_requests)
        for _ in range(config.NPROC)
    ]
    proc, host, port = harness.spawn_server([
        "serve", str(db), "--port", "0", "--workers", str(config.NPROC),
        "--views", str(views_dir),
    ])
    try:
        with ServeClient(host, port) as client:
            client.ping()
            n = sizes.probe_requests // 3
            out["serve.ping_us_p50"] = _p50_us(client.ping, n)
            kw = dict(op="count", group_by="Quarter", where=["Delay > 96"])
            client.query(**kw)
            raw_us = _p50_us(lambda: client.query(**kw), n)
        with repro.connect(f"{host}:{port}") as remote:
            q = lambda: (  # noqa: E731 - the same request through RemoteStore
                remote.query("mentions").filter(col("Delay") > 96)
                .group_by("Quarter").count()
            )
            q()
            out["serve.remote_revive_us_p50"] = max(_p50_us(q, n) - raw_us, 0.0)
        clients = [ServeClient(host, port) for _ in draws]
        serve_hot.await_views(clients[0], wire[sizes.view_ranks[0]])
        before = clients[0].stats()["stats"]
        replies: list[list[tuple[float, dict]]] = [[] for _ in draws]

        def drive(idx: int) -> None:
            for rank in draws[idx]:
                t0 = time.perf_counter()
                resp = clients[idx].query(**wire[rank])
                replies[idx].append((time.perf_counter() - t0, resp))

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(draws))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = clients[0].stats()["stats"]
        for c in clients:
            c.close()
    finally:
        harness.stop_process(proc)

    flat = [r for per in replies for r in per]
    stats = [resp["stats"] for _, resp in flat]
    out["serve.wire_overhead_us_p50"] = harness.percentile(
        [(rtt - st["queue_delay_s"] - st["exec_s"]) * 1e6
         for (rtt, _), st in zip(flat, stats)], 50)
    out["serve.queue_delay_ms_p50"] = harness.percentile(
        [st["queue_delay_s"] * 1e3 for st in stats], 50)
    out["serve.exec_ms_p50"] = harness.percentile([st["exec_s"] * 1e3 for st in stats], 50)
    out["serve.resp_bytes_per_op"] = float(
        np.mean([len(json.dumps(resp)) + 1 for _, resp in flat]))
    out["views.hit_frac"] = sum(st.get("source") == "view" for st in stats) / len(stats)
    delta = {k: after[k] - before[k] for k in
             ("ok", "scans", "cache_hits", "dedup_hits", "view_hits", "shed", "batches")}
    for key in ("scans", "cache_hits", "dedup_hits", "view_hits"):
        out[f"serve.{key}"] = float(delta[key])
    out["serve.mean_batch_size"] = delta["ok"] / max(1, delta["batches"])
    out["serve.shed_total"] = float(delta["shed"])
    out["serve.peak_queue_depth"] = float(after["peak_queue_depth"])


# -- shard ---------------------------------------------------------------------


def _shard(out, work, db, store, seed, sizes) -> None:
    dirs = []
    out["shard.split_s"] = _ms(lambda: dirs.extend(split_dataset(
        db, work / "shards", 2, zone_chunk_rows=sizes.zone_chunk_rows))) / 1e3
    router, address, shards = harness.spawn_cluster(dirs)
    host, _, port = address.rpartition(":")
    stream = queries.wide_stream(np.random.default_rng([seed, 0x5A]), _truth(store))
    try:
        clients = [ServeClient(h, p) for _, h, p in shards]
        routed = ServeClient(host, int(port))
        merge_ms, overhead_ms, partial_bytes, fanout, pruned = [], [], [], [], []
        direct_s = exec_s = 0.0
        for i in range(24):
            spec = next(stream)
            kw = queries.wire_kwargs(spec)
            # The routed twin starts one interval later: same cost, but no
            # shard can answer it from the result cache.
            (name, op, lo), upper = spec.where
            twin = queries.wire_kwargs(replace(spec, where=((name, op, lo + 1), upper)))
            slowest, sent = 0.0, 0
            for client in clients:
                t0 = time.perf_counter()
                resp = client.query(partials=True, **kw)
                dt = time.perf_counter() - t0
                slowest = max(slowest, dt)
                sent += len(json.dumps(resp))
                if i >= 4:
                    direct_s += dt
                    exec_s += float(resp["stats"]["exec_s"])
            t0 = time.perf_counter()
            resp = routed.query(**twin)
            dt = time.perf_counter() - t0
            fanout.append(resp["stats"]["fanout"])
            pruned.append(resp["stats"]["shards_pruned"])
            if i >= 4:  # the first calls build group keys on the shards
                merge_ms.append(float(resp["stats"]["merge_ms"]))
                overhead_ms.append((dt - slowest) * 1e3)
                partial_bytes.append(sent)
        out["shard.fanout_mean"] = float(np.mean(fanout))
        out["shard.shards_pruned_frac"] = float(np.sum(pruned)) / (len(pruned) * len(shards))
        out["shard.merge_ms_p50"] = harness.percentile(merge_ms, 50)
        out["shard.route_overhead_ms_p50"] = harness.percentile(overhead_ms, 50)
        out["shard.partial_bytes_per_op"] = float(np.mean(partial_bytes))
        # Share of a direct shard call the shard spent executing (the
        # engine's part of what the router's fan-out waits for).
        out["shard.backend_exec_frac"] = exec_s / direct_s
        for c in (*clients, routed):
            c.close()
    finally:
        harness.stop_process(router)
        for p, _, _ in shards:
            harness.stop_process(p)


# -- obs -----------------------------------------------------------------------


def _obs(out, store, seed) -> None:
    """Cost of ``repro.obs.enable()`` on a short ad-hoc pass."""
    specs = []
    stream = queries.adhoc_stream(np.random.default_rng([seed, 0x0B5]), _truth(store))
    while len(specs) < 150:
        spec = next(stream)
        if spec.op != "stats":  # keep the pass short
            specs.append(spec)

    def one_pass() -> float:
        invalidate_cache()
        return _ms(lambda: [queries.run_fluent(store, s) for s in specs])

    one_pass()
    off = min(one_pass() for _ in range(3))
    obs.enable()
    try:
        on = min(one_pass() for _ in range(3))
    finally:
        obs.disable()
        obs.reset()
    out["obs.enabled_overhead_frac"] = on / off - 1.0
