#!/usr/bin/env python3
"""Quickstart: generate a corpus, load the engine, run first queries.

Covers the 90-second tour of the public API:

1. generate a calibrated synthetic GDELT 2.0 corpus,
2. stand up the in-memory columnar store,
3. run dataset statistics (the paper's Table I),
4. find the most productive publishers and most reported events,
5. run a filtered query through the expression API.

Run:  python examples/quickstart.py
"""

from repro import analysis, engine, ingest, synth


def main() -> None:
    # 1. A ~140k-article corpus; use synth.tiny_config() for a faster demo
    #    or synth.calibrated_config() for the ~1.1M-article benchmark one.
    print("generating synthetic GDELT corpus (small preset) ...")
    ds = synth.generate_dataset(synth.small_config())

    # 2. Straight to a live store (no disk round trip).  To persist:
    #    ingest.dataset_to_binary(ds, "my_dataset/") and later
    #    engine.GdeltStore.open("my_dataset/"), which maps the columns:
    #    memory_bytes() is then their logical size, not resident memory.
    events, mentions, dicts = ingest.dataset_to_arrays(ds)
    store = engine.GdeltStore.from_arrays(events, mentions, dicts)
    print(
        f"store: {store.n_events:,} events, {store.n_mentions:,} mentions, "
        f"{store.n_sources:,} sources, "
        f"{store.memory_bytes() / 1e6:.0f} MB of columns\n"
    )

    # 3. Table I.
    stats = analysis.dataset_statistics(store)
    print(analysis.render_table(["Number of", "Value"], stats.as_table(),
                                title="Dataset statistics (Table I)"))

    # 4. Who publishes the most, and what got reported the most?
    top = analysis.top_publishers(store, 5)
    counts = analysis.articles_per_source(store)
    print("Top publishers:")
    for sid in top:
        print(f"  {store.sources[int(sid)]:<28} {counts[sid]:>8,} articles")
    print("\nMost reported events:")
    for mentions_count, url in analysis.top_events(store, 5):
        print(f"  {mentions_count:>6,}  {url}")

    # 5. The query API: how many articles broke the 24-hour cycle
    #    with high extraction confidence?  ``store.query`` terminals
    #    return a QueryResult whose .plan shows what the planner did.
    q = (
        store.query("mentions")
        .filter(engine.col("Delay") > 96)
        .filter(engine.col("Confidence") >= 80)
    )
    n = q.count()
    print(
        f"\nhigh-confidence articles published >24h after their event: "
        f"{n.value:,} (mean delay {q.mean('Delay').value:.0f} intervals)"
    )
    print(f"planner: {n.plan.pruning} pruning, "
          f"{n.plan.n_chunks_pruned}/{n.plan.n_chunks_total} chunks skipped")


if __name__ == "__main__":
    main()
