"""Command-line interface.

The future-work Python interface the paper promises, as a CLI::

    repro-gdelt synth --preset small --raw-dir raw/      # generate raw archives
    repro-gdelt synth --preset small --binary-dir db/    # generate binary direct
    repro-gdelt convert raw/ db/                         # preprocessing tool
    repro-gdelt stats db/                                # Table I
    repro-gdelt tables db/                               # all paper tables
    repro-gdelt scaling db/ --threads 1 2 4              # Fig 12 measurement
    repro-gdelt profile db/ --threads 4                  # traced query profile
    repro-gdelt explain db/ --where "Delay > 96"         # planner decisions
    repro-gdelt serve db/ --port 7311 --workers 4        # concurrent query service
    repro-gdelt split db/ shards/ --shards 4             # partition for sharding
    repro-gdelt shard-serve shards/shard* --port 7411    # scatter-gather router
    repro-gdelt view create views/ delayed --where "Delay > 96"  # register a view
    repro-gdelt view refresh views/ db/                  # incremental maintenance
    repro-gdelt serve db/ --views views/                 # serve + subscriptions

Progress reporting goes through stdlib ``logging`` to stderr (``-v``
for debug detail, ``-q`` for warnings only); stdout carries only the
actual outputs — tables, listings, and JSON dumps.  ``--metrics-out``
(on ``synth``/``convert``/``scaling``/``profile``) enables observability
and writes the metrics registry to a file: Prometheus text exposition,
or JSON when the path ends in ``.json``.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]

# Explicit name: under ``python -m repro.cli`` __name__ is "__main__",
# which would fall outside the "repro" logger tree setup_logging configures.
logger = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-gdelt",
        description="High-performance mining on (synthetic) GDELT 2.0 data.",
    )
    p.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more progress detail (repeatable)",
    )
    p.add_argument(
        "-q", "--quiet", action="store_true", help="only warnings and errors"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_metrics_out(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--metrics-out",
            type=Path,
            default=None,
            help="enable observability and write the metrics registry here "
            "(.json for a JSON dump, anything else for Prometheus text)",
        )

    s = sub.add_parser("synth", help="generate a synthetic GDELT dataset")
    s.add_argument("--preset", choices=["tiny", "small", "calibrated"], default="small")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--raw-dir", type=Path, help="write raw GDELT archives here")
    s.add_argument("--binary-dir", type=Path, help="write a binary dataset here")
    s.add_argument(
        "--chunk-days",
        type=int,
        default=1,
        help="aggregate this many days per raw chunk archive (default 1)",
    )
    s.add_argument(
        "--corrupt",
        action="store_true",
        help="plant the paper's Table II defects into the raw archives",
    )
    add_metrics_out(s)

    c = sub.add_parser("convert", help="raw archives -> indexed binary dataset")
    c.add_argument("raw_dir", type=Path)
    c.add_argument("out_dir", type=Path)
    c.add_argument("--verify-checksums", action="store_true")
    c.add_argument(
        "--compress",
        action="store_true",
        help="write bulky columns with the compression codecs",
    )
    c.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="skip the crash-resume journal (slightly faster, not resumable)",
    )
    add_metrics_out(c)

    ve = sub.add_parser(
        "verify",
        help="check a dataset's files against the manifest (sizes + CRC32)",
    )
    ve.add_argument("dataset", type=Path)
    ve.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    st = sub.add_parser("stats", help="print Table I dataset statistics")
    st.add_argument("dataset", type=Path)

    t = sub.add_parser("tables", help="print every reproduced paper table")
    t.add_argument("dataset", type=Path)
    t.add_argument("--top", type=int, default=10)

    sc = sub.add_parser("scaling", help="measure the aggregated query at thread counts")
    sc.add_argument("dataset", type=Path)
    sc.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4])
    sc.add_argument(
        "--model", action="store_true", help="extend with the NUMA cost model to 64"
    )
    add_metrics_out(sc)

    pr = sub.add_parser(
        "profile",
        help="run the aggregated country query fully traced; emit a JSON profile",
    )
    pr.add_argument("dataset", type=Path)
    pr.add_argument("--threads", type=int, default=2)
    pr.add_argument("--chunk-rows", type=int, default=None)
    pr.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write the JSON trace document here (default: stdout)",
    )
    pr.add_argument(
        "--chrome",
        action="store_true",
        help="emit only the chrome://tracing event list instead of the full doc",
    )
    add_metrics_out(pr)

    w = sub.add_parser(
        "wildfires", help="detect fast-spreading events (digital wildfires)"
    )
    w.add_argument("dataset", type=Path)
    w.add_argument("--window", type=int, default=8, help="horizon in 15-min intervals")
    w.add_argument("--min-sources", type=int, default=10)
    w.add_argument("--limit", type=int, default=20)

    cl = sub.add_parser(
        "cluster", help="Markov-cluster the co-reporting matrix of top publishers"
    )
    cl.add_argument("dataset", type=Path)
    cl.add_argument("--top", type=int, default=50)
    cl.add_argument("--inflation", type=float, default=2.0)
    cl.add_argument("--background-percentile", type=float, default=90.0)

    ep = sub.add_parser(
        "explain",
        help="show the planner's execution plan (zone-map pruning, cache) "
        "for a filtered query",
    )
    ep.add_argument("dataset", type=Path)
    ep.add_argument("--table", choices=["events", "mentions"], default="mentions")
    ep.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="PRED",
        help='predicate like "Delay > 96" or "SourceId in 1,2,3" '
        "(repeatable; predicates are ANDed)",
    )
    ep.add_argument(
        "--time-range",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        help="restrict mentions to capture intervals [LO, HI)",
    )
    ep.add_argument(
        "--run",
        action="store_true",
        help="also execute count() and report the value + cache status",
    )

    sv = sub.add_parser(
        "serve",
        help="serve concurrent queries over a line-delimited-JSON socket",
    )
    sv.add_argument("dataset", type=Path)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=7311, help="0 picks an ephemeral port"
    )
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument("--max-queue", type=int, default=256)
    sv.add_argument("--max-batch", type=int, default=16)
    sv.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-client requests/second (default: unlimited)",
    )
    sv.add_argument(
        "--default-deadline", type=float, default=None,
        help="deadline seconds applied to requests that carry none",
    )
    sv.add_argument(
        "--ops-port", type=int, default=None,
        help="also serve the HTTP ops plane (/metrics, /healthz, /readyz, "
        "/varz, /tracez) on this port; enables observability; 0 picks "
        "an ephemeral port",
    )
    sv.add_argument(
        "--follow", action="store_true",
        help="treat DATASET as a raw GDELT mirror and follow it live: "
        "poll the master list, hot-swap validated snapshots in with "
        "zero downtime (SIGHUP forces a poll)",
    )
    sv.add_argument(
        "--poll-interval", type=float, default=0.0,
        help="with --follow, poll the mirror every N seconds "
        "(default 0: only on SIGHUP)",
    )
    sv.add_argument(
        "--no-verify", action="store_true",
        help="skip checksum verification of reload candidates "
        "(archive md5s with --follow, dataset CRC32s without)",
    )
    sv.add_argument(
        "--views", type=Path, default=None, metavar="DIR",
        help="serve materialized views from this catalog directory "
        "(created if missing); each new generation is published with "
        "its views refreshed and the subscribe verb pushes updates",
    )
    sv.add_argument(
        "--slo-latency", type=float, default=0.5,
        help="latency SLO threshold in seconds (default 0.5)",
    )
    sv.add_argument(
        "--slo-target", type=float, default=0.99,
        help="fraction of requests that must meet the latency SLO "
        "(default 0.99)",
    )
    add_metrics_out(sv)

    sp = sub.add_parser(
        "split",
        help="split a dataset into N shard datasets for shard-serve",
    )
    sp.add_argument("dataset", type=Path)
    sp.add_argument("out", type=Path, help="directory to create shard0..N-1 in")
    sp.add_argument("--shards", type=int, default=4)
    sp.add_argument(
        "--zone-chunk-rows", type=int, default=None,
        help="zone-map granularity of the shard datasets (default: writer's)",
    )

    ss = sub.add_parser(
        "shard-serve",
        help="scatter-gather router over per-shard serving backends",
    )
    ss.add_argument(
        "shards", nargs="*", type=Path,
        help="shard dataset directories (one backend process is spawned "
        "for each; see 'split')",
    )
    ss.add_argument(
        "--backend", action="append", default=[], metavar="HOST:PORT",
        help="attach to an already-running backend instead of spawning "
        "one (repeatable; composes with positional shard dirs)",
    )
    ss.add_argument("--host", default="127.0.0.1")
    ss.add_argument(
        "--port", type=int, default=7411, help="0 picks an ephemeral port"
    )
    ss.add_argument(
        "--partial-ok", action="store_true",
        help="with shards down, answer degraded PARTIAL_RESULT responses "
        "(missing shards listed) instead of failing the request",
    )
    ss.add_argument(
        "--ops-port", type=int, default=None,
        help="also serve the router's HTTP ops plane on this port; "
        "enables observability; 0 picks an ephemeral port",
    )

    vw = sub.add_parser(
        "view",
        help="manage materialized views (create/list/drop/refresh)",
    )
    vsub = vw.add_subparsers(dest="view_command", required=True)

    vc = vsub.add_parser("create", help="register a view in a catalog")
    vc.add_argument("views_dir", type=Path, help="catalog directory")
    vc.add_argument("name", help="view name (letters, digits, _-. only)")
    vc.add_argument("--table", choices=["events", "mentions"], default="mentions")
    vc.add_argument(
        "--op", default="count",
        choices=["count", "sum", "mean", "stats", "top"],
        help="terminal operation (stats/top need --group-by)",
    )
    vc.add_argument(
        "--where", action="append", default=[], metavar="PRED",
        help='textual predicate conjunct, e.g. "Delay > 96" (repeatable, ANDed)',
    )
    vc.add_argument("--column", default=None, help="column for sum/mean/stats")
    vc.add_argument("--group-by", default=None, help="group-key name")
    vc.add_argument(
        "-k", type=int, default=None, help="top views: groups to keep"
    )
    vc.add_argument(
        "--dataset", type=Path, default=None,
        help="also refresh the new view against this dataset now",
    )

    vl = vsub.add_parser("list", help="list a catalog's views and freshness")
    vl.add_argument("views_dir", type=Path)
    vl.add_argument("--json", action="store_true", help="emit JSON")

    vd = vsub.add_parser("drop", help="remove a view and its state")
    vd.add_argument("views_dir", type=Path)
    vd.add_argument("name")

    vr = vsub.add_parser("refresh", help="refresh views against a dataset")
    vr.add_argument("views_dir", type=Path)
    vr.add_argument("dataset", type=Path)
    vr.add_argument("--name", default=None, help="refresh only this view")
    vr.add_argument(
        "--full", action="store_true",
        help="rebuild from row zero instead of trusting the append-only "
        "prefix (required when the dataset was rewritten in place)",
    )
    fz = sub.add_parser(
        "fuzz",
        help="differential query fuzzing across engine/planner/shards/views/wire",
    )
    fz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fz.add_argument(
        "--cases", type=int, default=500, help="total query cases to run"
    )
    fz.add_argument(
        "--cases-per-store", type=int, default=25,
        help="cases amortized over each synthesized store",
    )
    fz.add_argument(
        "--local-only", action="store_true",
        help="skip the shard/remote/view surfaces (fast engine-only sweep)",
    )
    fz.add_argument(
        "--corpus-dir", type=Path, default=Path("tests/fuzz_corpus"),
        help="where shrunk repros are written (default: tests/fuzz_corpus)",
    )
    fz.add_argument(
        "--no-corpus", action="store_true",
        help="report mismatches without shrinking/writing repro files",
    )
    fz.add_argument(
        "--self-test", action="store_true",
        help="plant a kernel bug and assert the harness catches + shrinks it",
    )

    return p


def _load_config(preset: str, seed: int | None):
    from repro.synth import calibrated_config, small_config, tiny_config

    factory = {"tiny": tiny_config, "small": small_config, "calibrated": calibrated_config}[
        preset
    ]
    return factory() if seed is None else factory(seed)


def _cmd_synth(args) -> int:
    from repro.ingest.direct import dataset_to_binary
    from repro.synth import generate_dataset, inject_corruption, write_raw_archives
    from repro.synth.corruption import CorruptionPlan

    if not args.raw_dir and not args.binary_dir:
        print("synth: need --raw-dir and/or --binary-dir", file=sys.stderr)
        return 2
    cfg = _load_config(args.preset, args.seed)
    t0 = time.perf_counter()
    ds = generate_dataset(cfg)
    logger.info(
        "generated %s events / %s articles in %.1fs",
        f"{ds.n_events:,}", f"{ds.n_articles:,}", time.perf_counter() - t0,
    )
    if args.raw_dir:
        master = write_raw_archives(
            ds, args.raw_dir, chunk_intervals=96 * max(1, args.chunk_days)
        )
        logger.info("raw archives: %s", master.parent)
        if args.corrupt:
            receipt = inject_corruption(args.raw_dir, CorruptionPlan())
            logger.info(
                "planted defects: %d master, %d missing archives, "
                "%d blank URLs, %d future-dated",
                len(receipt.malformed_lines),
                len(receipt.deleted_archives),
                len(receipt.blanked_event_ids),
                len(receipt.future_dated_event_ids),
            )
    if args.binary_dir:
        dataset_to_binary(ds, args.binary_dir)
        logger.info("binary dataset: %s", args.binary_dir)
    return 0


def _cmd_convert(args) -> int:
    from repro.analysis.report import render_table
    from repro.ingest import convert_raw_to_binary

    t0 = time.perf_counter()
    result = convert_raw_to_binary(
        args.raw_dir,
        args.out_dir,
        verify_checksums=args.verify_checksums,
        compress=args.compress,
        checkpoint=not args.no_checkpoint,
    )
    logger.info(
        "converted %s events / %s mentions in %.1fs -> %s",
        f"{result.n_events:,}", f"{result.n_mentions:,}",
        time.perf_counter() - t0, result.dataset_dir,
    )
    print(
        render_table(
            ["Number of", "Value"],
            result.report.as_table(),
            title="Problems found during the dataset analysis (Table II)",
        )
    )
    return 0


def _cmd_verify(args) -> int:
    from repro.storage.verify import verify_dataset

    report = verify_dataset(args.dataset)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_stats(args) -> int:
    from repro.analysis import dataset_statistics, render_table
    from repro.engine import GdeltStore

    store = GdeltStore.open(args.dataset)
    stats = dataset_statistics(store)
    print(render_table(["Number of", "Value"], stats.as_table(), title="Table I"))
    return 0


def _cmd_tables(args) -> int:
    from repro.benchlib import print_all_tables  # lazy: pulls analysis stack

    from repro.engine import GdeltStore

    store = GdeltStore.open(args.dataset)
    print_all_tables(store, top=args.top)
    return 0


def _cmd_scaling(args) -> int:
    from repro.benchlib import fig12_scaling
    from repro.engine import GdeltStore

    store = GdeltStore.open(args.dataset)
    result = fig12_scaling(
        store,
        thread_counts=tuple(args.threads),
        model_counts=(8, 16, 32, 64) if args.model else (),
    )
    print(result.text)
    return 0


def _cmd_profile(args) -> int:
    """Traced run of the paper's aggregated country query.

    Emits one JSON document: the query's execution profile, the span
    tree (scan -> aggregate -> reduce plus per-chunk spans), and the
    same spans as a ``chrome://tracing`` event list.
    """
    import repro.obs as obs
    from repro.engine import GdeltStore, SerialExecutor, ThreadExecutor
    from repro.engine.query import aggregated_country_query

    obs.enable()
    store = GdeltStore.open(args.dataset)
    ex = SerialExecutor() if args.threads <= 1 else ThreadExecutor(args.threads)
    result = aggregated_country_query(store, ex, args.chunk_rows, profile=True)
    ex.close()

    profile = result.profile
    logger.info("%s", profile.summary())
    if args.chrome:
        doc: object = obs.tracer().to_chrome()
    else:
        doc = {
            "query": "aggregated_country_query",
            "dataset": str(args.dataset),
            "threads": args.threads,
            "profile": profile.to_dict(),
            "spans": obs.tracer().to_json(),
            "chrome_trace": obs.tracer().to_chrome(),
        }
    text = json.dumps(doc, indent=2)
    if args.trace_out is None:
        print(text)
    else:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(text + "\n", encoding="utf-8")
        logger.info("trace written to %s", args.trace_out)
    return 0


def _cmd_wildfires(args) -> int:
    from repro.analysis import detect_wildfires, render_table
    from repro.engine import GdeltStore

    store = GdeltStore.open(args.dataset)
    fires = detect_wildfires(
        store,
        window=args.window,
        min_sources=args.min_sources,
        limit=args.limit,
    )
    rows = [
        (
            f.early_sources,
            f.total_sources,
            f.first_delay,
            f.url or str(f.global_event_id),
        )
        for f in fires
    ]
    print(
        render_table(
            [f"sources<{args.window * 15}min", "total", "first delay", "event"],
            rows,
            title=f"Digital-wildfire candidates (window {args.window * 15} min)",
        )
    )
    return 0


def _cmd_cluster(args) -> int:
    from repro.analysis import (
        markov_clustering,
        sharpen_similarity,
        source_coreporting,
        top_publishers,
    )
    from repro.engine import GdeltStore

    store = GdeltStore.open(args.dataset)
    ids = top_publishers(store, args.top)
    jac = source_coreporting(store, ids)
    sharp = sharpen_similarity(jac, args.background_percentile)
    clusters = markov_clustering(sharp, inflation=args.inflation, self_loops=0.1)
    print(
        f"{len(clusters)} clusters among the top {len(ids)} publishers "
        f"(inflation {args.inflation}):"
    )
    for i, cluster in enumerate(c for c in clusters if len(c) > 1):
        members = ", ".join(store.sources[int(ids[p])] for p in cluster)
        print(f"  cluster {i + 1} ({len(cluster)}): {members}")
    singletons = sum(1 for c in clusters if len(c) == 1)
    print(f"  + {singletons} independent publishers")
    return 0


def _cmd_explain(args) -> int:
    from repro.engine import GdeltStore
    from repro.engine.expr import parse_conjuncts

    store = GdeltStore.open(args.dataset)
    q = store.query(args.table)
    if args.time_range:
        q = q.time_range(*args.time_range)
    try:
        where = parse_conjuncts(args.where)
    except ValueError as exc:
        logger.error("%s", exc)
        return 2
    if where is not None:
        q = q.filter(where)
    print(q.explain())
    if args.run:
        res = q.count()
        plan = res.plan
        print(f"count = {res.value}")
        print(
            f"executed: {plan.n_chunks_pruned}/{plan.n_chunks_total} chunks "
            f"pruned, cache {plan.cache_status}"
        )
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _run_front_end(args, start, interval_s: float) -> int:
    """The front end ``serve`` and ``shard-serve`` share.

    With telemetry (``--ops-port``) and the SIGUSR1 flight dump on,
    ``start()`` builds the service (a ``QueryService`` or a
    ``ShardRouter``) and returns ``(service, tick, stop)``, or ``None``
    for exit status 2.  The service is mounted on a socket server (and
    an ops server), the banners are printed, and ``tick()`` runs every
    ``interval_s`` until SIGINT or SIGTERM; then the servers close around
    a draining service, and ``stop()`` runs the command's teardown and
    stats line.  Both signals get a handler of their own, so a server
    that inherited an ignored SIGINT (started with ``&`` from a script)
    still drains, and a supervisor's SIGTERM drains like Ctrl-C.
    """
    from repro.obs.telemetry import install_signal_dump
    from repro.serve import ServeServer

    if args.ops_port is not None:
        # The ops plane is only useful with live telemetry behind it.
        import repro.obs as obs

        obs.enable()
    install_signal_dump()
    started = start()
    if started is None:
        return 2
    service, tick, stop = started
    server = ops = None
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _interrupt)
        server = ServeServer(service, host=args.host, port=args.port)
        if args.ops_port is not None:
            from repro.serve.ops import OpsServer

            ops = OpsServer(service, host=args.host, port=args.ops_port)
            logger.info("ops plane on http://%s:%d/metrics", ops.host, ops.port)
        print(f"listening on {server.host}:{server.port}", flush=True)
        if ops is not None:
            print(f"ops on {ops.host}:{ops.port}", flush=True)
        while True:
            time.sleep(interval_s)
            tick()
    except KeyboardInterrupt:
        logger.info("draining and shutting down ...")
    finally:
        if server is not None:
            server.close()
        service.close()
        if ops is not None:
            ops.close()
        stop()
    return 0


def _cmd_serve(args) -> int:
    from repro.engine import GdeltStore
    from repro.obs.telemetry import SloTracker, default_serve_objectives
    from repro.serve import BreakerBoard, QueryService, StoreLifecycle

    def start():
        breakers = BreakerBoard()
        follower = None
        if args.follow:
            from repro.ingest.stream import LiveFollower

            follower = LiveFollower(
                args.dataset, verify_checksums=not args.no_verify
            )
            first = follower.poll()
            if first.idle:
                logger.error("mirror %s has no ingestible archives", args.dataset)
                return None
            store = follower.snapshot()
            logger.info(
                "followed %s: %d chunks, %d events, %d mentions",
                args.dataset, first.new_chunks, first.new_events,
                first.new_mentions,
            )
        else:
            store = GdeltStore.open(args.dataset)
        views = None
        if args.views is not None:
            from repro.views import ViewCatalog

            views = ViewCatalog(args.views)
            logger.info(
                "view catalog %s: %d view(s)", args.views, len(views)
            )
        lifecycle = StoreLifecycle(
            store,
            follower=follower,
            reload_path=None if args.follow else args.dataset,
            verify_storage=not args.no_verify,
            breakers=breakers,
            views=views,
        )
        lifecycle.install_sighup()
        slo = SloTracker(
            default_serve_objectives(
                latency_threshold_s=args.slo_latency, target=args.slo_target
            )
        )
        service = QueryService(
            workers=args.workers,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            rate_limit=args.rate_limit,
            default_deadline_s=args.default_deadline,
            slo=slo,
            lifecycle=lifecycle,
            breakers=breakers,
            views=views,
        )
        logger.info(
            "serving %s (%d workers, queue %d, batch %d%s)",
            args.dataset, args.workers, args.max_queue, args.max_batch,
            ", following" if args.follow else "",
        )
        next_poll = time.monotonic() + args.poll_interval

        def tick() -> None:
            nonlocal next_poll
            # SIGHUP handlers only flag; the swap happens here, on the
            # main thread, where a failure is loggable and harmless.
            result = lifecycle.run_pending()
            if result is None and follower is not None and args.poll_interval:
                if time.monotonic() >= next_poll:
                    next_poll = time.monotonic() + args.poll_interval
                    result = lifecycle.poll()
            if result is not None and result.changed:
                logger.info(
                    "now serving generation %d (%s)",
                    result.generation, result.rows,
                )

        def stop() -> None:
            lifecycle.close()
            stats = service.stats()
            logger.info(
                "served %d requests (%d ok, %d shed, %d error), %d scans",
                stats["submitted"], stats["ok"], stats["shed"],
                stats["error"], stats["scans"],
            )

        return service, tick, stop

    return _run_front_end(args, start, 0.2)


def _cmd_view(args) -> int:
    from repro.views import ViewCatalog, ViewDefinition, ViewError

    catalog = ViewCatalog(args.views_dir)

    def _open(dataset):
        from repro.engine import GdeltStore

        return GdeltStore.open(dataset)

    try:
        if args.view_command == "create":
            defn = ViewDefinition(
                name=args.name,
                table=args.table,
                op=args.op,
                where=tuple(args.where),
                column=args.column,
                group_by=args.group_by,
                k=args.k,
            )
            catalog.create(defn)
            print(f"created view {defn.name}: {defn.describe()}")
            if args.dataset is not None:
                result = catalog.refresh(_open(args.dataset), name=defn.name)
                info = result[defn.name]
                if info["error"]:
                    logger.error("initial refresh failed: %s", info["error"])
                    return 1
                print(
                    f"refreshed: {info['rows']:,} rows in {info['elapsed_s']:.3f}s"
                )
            return 0
        if args.view_command == "list":
            snap = catalog.snapshot()
            if args.json:
                print(json.dumps(snap, indent=2))
                return 0
            if not snap["views"]:
                print("no views")
                return 0
            for name, view in snap["views"].items():
                fresh = (
                    f"rows {view['rows']:,}, refreshed {view['refresh_count']}x"
                    if view["refresh_count"]
                    else "never refreshed"
                )
                extra = f" [ERROR: {view['last_error']}]" if view["last_error"] else ""
                print(f"{name}: {view['terminal']} ({fresh}){extra}")
            return 0
        if args.view_command == "drop":
            catalog.drop(args.name)
            print(f"dropped view {args.name}")
            return 0
        if args.view_command == "refresh":
            store = _open(args.dataset)
            summary = catalog.refresh(
                store, name=args.name, assume_prefix=not args.full
            )
            failed = 0
            for name, info in sorted(summary.items()):
                if info["error"]:
                    failed += 1
                    print(f"{name}: FAILED ({info['error']})")
                else:
                    mode = "rebuilt" if info["rebuilt"] else (
                        f"+{info['delta_rows']:,} rows"
                    )
                    print(
                        f"{name}: {info['rows']:,} rows ({mode}) "
                        f"in {info['elapsed_s']:.3f}s"
                    )
            return 1 if failed else 0
    except (ViewError, ValueError) as exc:
        logger.error("%s", exc)
        return 2
    raise AssertionError(f"unhandled view command {args.view_command!r}")


def _cmd_split(args) -> int:
    from repro.shard import split_dataset

    t0 = time.perf_counter()
    paths = split_dataset(
        args.dataset, args.out, args.shards,
        zone_chunk_rows=args.zone_chunk_rows,
    )
    from repro.storage.reader import DatasetReader

    for path in paths:
        reader = DatasetReader(path, mode="mmap")
        stamp = reader.manifest.meta.get("shard", {})
        print(
            f"{path}: mentions rows [{stamp.get('row_lo', 0):,}, "
            f"{stamp.get('row_hi', 0):,}), events replicated "
            f"({reader.rows('events'):,} rows)"
        )
    logger.info(
        "split %s into %d shards in %.1fs",
        args.dataset, len(paths), time.perf_counter() - t0,
    )
    return 0


def _cmd_shard_serve(args) -> int:
    from repro.shard import ShardRouter, launch_shards

    if not args.shards and not args.backend:
        logger.error("shard-serve needs shard directories and/or --backend")
        return 2
    procs = []

    def start():
        procs.extend(launch_shards(args.shards))
        for proc in procs:
            logger.info("spawned backend %s for %s", proc.address, proc.dataset)
        router = ShardRouter(
            [p.address for p in procs] + list(args.backend),
            partial_ok=args.partial_ok,
        )
        logger.info(
            "routing %d shards (partial_ok=%s)", len(router.map), args.partial_ok
        )
        reported_dead: set[str] = set()

        def tick() -> None:
            for proc in procs:
                if not proc.alive() and proc.address not in reported_dead:
                    reported_dead.add(proc.address)
                    logger.warning(
                        "backend %s died (breaker will degrade it)",
                        proc.address,
                    )

        def stop() -> None:
            stats = router.stats()
            logger.info(
                "routed %d requests (%d ok, %d partial, %d shed, %d error)",
                stats["submitted"], stats["ok"], stats["partial"],
                stats["shed"], stats["error"],
            )

        return router, tick, stop

    try:
        return _run_front_end(args, start, 0.5)
    finally:
        for proc in procs:
            proc.kill()


def _write_metrics(path: Path) -> None:
    import repro.obs as obs

    reg = obs.registry()
    text = reg.to_json() if path.suffix == ".json" else reg.to_prometheus()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    logger.info("metrics registry (%d series) written to %s", reg.n_series(), path)


def _cmd_fuzz(args) -> int:
    from repro.qa.fuzz import run_fuzz, self_test

    if args.self_test:
        try:
            report, _ = self_test(seed=args.seed)
        except AssertionError as exc:
            logger.error("fuzzer self-test FAILED: %s", exc)
            return 1
        print(
            "self-test ok: planted kernel bug caught "
            f"({len(report.mismatches)} mismatch), shrunk, and replayed"
        )
        return 0

    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        cases_per_store=args.cases_per_store,
        heavy=not args.local_only,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
    )
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit status."""
    from repro.obs import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)
    np.seterr(all="warn")

    from repro.faults import FaultInjector, FaultPlan, install as _install_faults

    fault_plan = FaultPlan.from_env()
    if fault_plan is not None:
        _install_faults(FaultInjector(fault_plan))
        logger.warning(
            "fault injection active (REPRO_FAULTS): %d spec(s), seed %d",
            len(fault_plan.specs), fault_plan.seed,
        )

    metrics_out: Path | None = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        import repro.obs as obs

        obs.enable()
    handlers = {
        "synth": _cmd_synth,
        "convert": _cmd_convert,
        "verify": _cmd_verify,
        "stats": _cmd_stats,
        "tables": _cmd_tables,
        "scaling": _cmd_scaling,
        "profile": _cmd_profile,
        "wildfires": _cmd_wildfires,
        "cluster": _cmd_cluster,
        "explain": _cmd_explain,
        "serve": _cmd_serve,
        "split": _cmd_split,
        "shard-serve": _cmd_shard_serve,
        "view": _cmd_view,
        "fuzz": _cmd_fuzz,
    }
    from repro.storage import StorageError

    try:
        rc = handlers[args.command](args)
    except StorageError as exc:  # e.g. a DATASET that is not a dataset
        logger.error("%s", exc)
        return 2
    if metrics_out is not None and rc == 0:
        _write_metrics(metrics_out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
