#!/usr/bin/env python3
"""Materialized views end to end: register, serve, subscribe.

Walks the `repro.views` surface (docs/views.md):

1. generate a corpus, register two views in a `ViewCatalog`, and start
   a `QueryService` + socket server carrying the catalog
   (in production: ``repro-gdelt serve db/ --views db/views``),
2. watch a matching request get answered from the view
   (``stats["source"] == "view"``) byte-identically to a scan,
3. open a live `ViewSubscription` and receive the replayed current
   value plus a pushed update when new rows are folded in — the
   incremental refresh aggregates only the delta,
4. print the catalog's `/varz` snapshot (staleness, refresh source, hits).

Run:  python examples/view_subscriber.py
"""

import numpy as np

from repro import engine, ingest, synth
from repro.engine import col
from repro.serve import QueryService, ServeServer, ViewSubscription
from repro.views import ViewCatalog, ViewDefinition


def main() -> None:
    # 1. A corpus published in two stages: the view is built on the
    #    prefix, the rest arrives later as "new rows".
    print("generating synthetic GDELT corpus (small preset) ...")
    ds = synth.generate_dataset(synth.small_config())
    events, mentions, dicts = ingest.dataset_to_arrays(ds)
    n_total = len(next(iter(mentions.values())))
    n_prefix = int(n_total * 0.8)
    prefix = {c: a[:n_prefix] for c, a in mentions.items()}
    store = engine.GdeltStore.from_arrays(events, prefix, dicts)

    catalog = ViewCatalog(None)  # pass a directory to persist state
    catalog.create(ViewDefinition(
        name="delayed", table="mentions", op="count", where=("Delay > 96",),
    ))
    catalog.create(ViewDefinition(
        name="delay-by-quarter", table="mentions", op="mean",
        column="Delay", group_by="MentionQuarter",
    ))
    catalog.refresh(store)

    service = QueryService(store, workers=2, views=catalog)
    server = ServeServer(service, port=0)
    print(f"serving {n_prefix:,} mentions on {server.host}:{server.port}, "
          f"{len(catalog)} views registered\n")

    try:
        # 2. The same terminal, asked as a normal query, is recognised
        #    by its canonical signature and served from the view.
        resp = service.query("mentions", op="count", where=col("Delay") > 96)
        direct = store.query("mentions").filter(col("Delay") > 96).count()
        print(f"count(Delay > 96)  = {resp.value:,} "
              f"(source: {resp.stats['source']}, "
              f"identical to scan: {resp.value == direct.value})\n")

        # 3. Subscribe, then publish the remaining rows.  The server
        #    replays the current value immediately; the incremental
        #    refresh pushes one update per changed view.
        with ViewSubscription(server.host, server.port, ["delayed"]) as sub:
            replay = sub.get(timeout=10.0)
            print(f"subscribe replay   : seq={replay['seq']} "
                  f"value={replay['value']:,} (replay={replay.get('replay')})")

            grown = engine.GdeltStore.from_arrays(events, mentions, dicts)
            summary = catalog.refresh(grown, assume_prefix=True)
            info = summary["delayed"]
            print(f"incremental refresh: +{info['delta_rows']:,} rows "
                  f"folded in {info['elapsed_s'] * 1e3:.1f}ms "
                  f"(rebuilt: {info['rebuilt']})")

            update = sub.get(timeout=10.0)
            print(f"pushed update      : seq={update['seq']} "
                  f"value={update['value']:,}\n")

        # 4. What /varz reports about the catalog.
        snap = catalog.snapshot()
        for name, view in snap["views"].items():
            print(f"view {name:18s} rows={view['rows']:,} "
                  f"last_source={view['last_source']} "
                  f"refreshes={view['refresh_count']} "
                  f"staleness={view['staleness_s']}s")
        print(f"view hits: {service.stats()['view_hits']}")

        mean_q = np.asarray(catalog.get("delay-by-quarter").value())
        print(f"delay-by-quarter   : {np.nansum(mean_q >= 0)} quarters "
              f"materialized")
    finally:
        server.close()
        service.close(drain=False)


if __name__ == "__main__":
    main()
