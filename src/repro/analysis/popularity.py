"""Dataset statistics and event popularity: Table I, Figure 2, Table III.

"Articles per event" here counts *mentions table rows per event*, which
is what the paper's Table I weighted average (3.36) and Table III
mention counts measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.store import GdeltStore
from repro.kernels import distinct

__all__ = [
    "DatasetStatistics",
    "dataset_statistics",
    "event_article_histogram",
    "fit_power_law",
    "top_events",
]


@dataclass(frozen=True, slots=True)
class DatasetStatistics:
    """The rows of Table I."""

    n_sources: int
    n_events: int
    n_capture_intervals: int
    n_articles: int
    min_articles_per_event: int
    max_articles_per_event: int
    weighted_avg_articles_per_event: float

    def as_table(self) -> list[tuple[str, object]]:
        return [
            ("Sources", self.n_sources),
            ("Events", self.n_events),
            ("Capture intervals", self.n_capture_intervals),
            ("Articles", self.n_articles),
            ("Minimum number of articles per event", self.min_articles_per_event),
            ("Maximum number of articles per event", self.max_articles_per_event),
            (
                "Articles per event (weighted average)",
                round(self.weighted_avg_articles_per_event, 2),
            ),
        ]


def _articles_per_event(store: GdeltStore) -> np.ndarray:
    """Mention count per events-table row.

    Counted over :meth:`GdeltStore.mention_event_row`, which joins each
    mention to the first row of its id; every duplicate row of an id
    takes that row's count (dangling mentions count nowhere).
    """
    eids = store.events["GlobalEventID"]
    rows = store.mention_event_row()
    counts = np.bincount(rows[rows >= 0], minlength=len(eids))
    return counts[np.searchsorted(eids, eids)]


def dataset_statistics(store: GdeltStore) -> DatasetStatistics:
    """Compute Table I over the loaded dataset.

    Sources and capture intervals are counted as *observed distinct
    values* in the mentions table, matching how the paper's numbers were
    measured from its collected data.
    """
    per_event = _articles_per_event(store)
    covered = per_event[per_event > 0]
    n_sources = int(len(distinct(store.mentions["SourceId"])))
    n_intervals = int(len(distinct(store.mentions["MentionInterval"])))
    return DatasetStatistics(
        n_sources=n_sources,
        n_events=store.n_events,
        n_capture_intervals=n_intervals,
        n_articles=store.n_mentions,
        min_articles_per_event=int(covered.min()) if len(covered) else 0,
        max_articles_per_event=int(covered.max()) if len(covered) else 0,
        weighted_avg_articles_per_event=(
            float(store.n_mentions) / store.n_events if store.n_events else 0.0
        ),
    )


def event_article_histogram(store: GdeltStore) -> tuple[np.ndarray, np.ndarray]:
    """Figure 2: number of events having exactly n articles.

    Returns:
        (n_articles_values, event_counts), n >= 1, zero-count bins
        dropped.
    """
    per_event = _articles_per_event(store)
    per_event = per_event[per_event > 0]
    counts = np.bincount(per_event)
    n = np.flatnonzero(counts)
    return n.astype(np.int64), counts[n].astype(np.int64)


def fit_power_law(
    n: np.ndarray, counts: np.ndarray, n_min: int = 1, n_max: int | None = None
) -> tuple[float, float]:
    """Least-squares slope/intercept of log(count) vs log(n).

    The paper observes a power law (Barabasi-Albert style) with a slight
    mid-curve deviation; the fitted slope should be robustly negative.

    Returns:
        (slope, intercept) of ``log10(count) = slope * log10(n) + b``.
    """
    n = np.asarray(n, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    keep = (n >= n_min) & (counts > 0)
    if n_max is not None:
        keep &= n <= n_max
    if keep.sum() < 2:
        raise ValueError("need at least two histogram points to fit")
    x = np.log10(n[keep])
    y = np.log10(counts[keep])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def top_events(store: GdeltStore, k: int = 10) -> list[tuple[int, str]]:
    """Table III: the k most-mentioned events as (mentions, source URL).

    URLs fall back to the GlobalEventID when the dataset was built
    without URL dictionaries.
    """
    per_event = _articles_per_event(store)
    k = min(k, store.n_events)
    top = np.argpartition(per_event, -k)[-k:]
    top = top[np.argsort(per_event[top])[::-1]]
    out = []
    for row in top:
        url = store.event_url(int(row))
        if url is None:
            url = f"event:{int(store.events['GlobalEventID'][row])}"
        out.append((int(per_event[row]), url))
    return out
