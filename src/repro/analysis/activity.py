"""Activity over time: Figures 3, 4, 5 and 6.

All four figures are grouped counts over calendar quarters; the paper
aggregates to quarters "for readability" and notes the first data point
is the partial quarter starting 2015-02-18.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregate import group_count, group_count_2d
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.store import GdeltStore

__all__ = [
    "articles_per_source",
    "top_publishers",
    "sources_per_quarter",
    "events_per_quarter",
    "articles_per_quarter",
    "publisher_quarterly_series",
]


def articles_per_source(
    store: GdeltStore, executor: Executor | None = None
) -> np.ndarray:
    """Article count n_i per source id (the Section VI-A scan)."""
    executor = executor or SerialExecutor()
    sid = store.mentions["SourceId"]
    n = store.n_sources

    def kernel(sl: slice) -> np.ndarray:
        return group_count(sid[sl], n)

    parts = executor.map_chunks(kernel, store.n_mentions)
    return np.sum(parts, axis=0) if parts else np.zeros(n, dtype=np.int64)


def top_publishers(
    store: GdeltStore, k: int = 10, executor: Executor | None = None
) -> np.ndarray:
    """Source ids of the k most productive publishers, descending."""
    counts = articles_per_source(store, executor)
    k = min(k, len(counts))
    top = np.argpartition(counts, -k)[-k:]
    return top[np.argsort(counts[top])[::-1]]


def sources_per_quarter(store: GdeltStore) -> np.ndarray:
    """Distinct sources publishing in each quarter (Fig 3).

    A source is active in quarter q if it published at least one article
    captured during q.  Computed via a (source, quarter) incidence count.
    """
    nq = store.n_quarters()
    mat = group_count_2d(
        store.mentions["SourceId"], store.mention_quarter(), (store.n_sources, nq)
    )
    return (mat > 0).sum(axis=0).astype(np.int64)


def events_per_quarter(store: GdeltStore) -> np.ndarray:
    """Events observed per quarter of their event day (Fig 4)."""
    return group_count(store.event_quarter(), store.n_quarters())


def articles_per_quarter(
    store: GdeltStore, executor: Executor | None = None
) -> np.ndarray:
    """Articles captured per quarter (Fig 5)."""
    executor = executor or SerialExecutor()
    q = store.mention_quarter()
    nq = store.n_quarters()

    def kernel(sl: slice) -> np.ndarray:
        return group_count(q[sl], nq)

    parts = executor.map_chunks(kernel, store.n_mentions)
    return np.sum(parts, axis=0) if parts else np.zeros(nq, dtype=np.int64)


def publisher_quarterly_series(
    store: GdeltStore, source_ids: np.ndarray
) -> np.ndarray:
    """Quarterly article counts for chosen publishers (Fig 6).

    Returns:
        int64 array of shape (len(source_ids), n_quarters).
    """
    source_ids = np.asarray(source_ids)
    nq = store.n_quarters()
    # Remap chosen sources to 0..k-1, everything else to -1 (dropped).
    remap = np.full(store.n_sources, -1, dtype=np.int64)
    remap[source_ids] = np.arange(len(source_ids))
    keys_i = remap[store.mentions["SourceId"]]
    return group_count_2d(keys_i, store.mention_quarter(), (len(source_ids), nq))
