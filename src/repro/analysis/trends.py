"""Delay trends over time: Figures 10 and 11.

Fig 10 aggregates the delay of every article *published during a
quarter* (average and median per quarter); Fig 11 counts the articles
per quarter whose delay exceeds the 24-hour news cycle.  The paper's
finding: the average declines (especially 2019) while the median stays
flat — explained by the thinning high-delay tail that Fig 11 shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.aggregate import group_count, group_mean, group_median
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.store import GdeltStore
from repro.gdelt.time_util import INTERVALS_PER_DAY

__all__ = ["QuarterlyDelay", "quarterly_delay", "late_articles_per_quarter"]


@dataclass(slots=True)
class QuarterlyDelay:
    """Per-quarter delay aggregates (index = quarter since 2015 Q1)."""

    articles: np.ndarray
    mean: np.ndarray
    median: np.ndarray


def quarterly_delay(store: GdeltStore) -> QuarterlyDelay:
    """Figure 10: average and median delay per capture quarter."""
    q = store.mention_quarter()
    delay = store.mentions["Delay"]
    nq = store.n_quarters()
    return QuarterlyDelay(
        articles=group_count(q, nq),
        mean=group_mean(q, delay, nq),
        median=group_median(q, delay, nq),
    )


def late_articles_per_quarter(
    store: GdeltStore,
    threshold: int = INTERVALS_PER_DAY,
    executor: Executor | None = None,
) -> np.ndarray:
    """Figure 11: articles per quarter with delay > ``threshold``."""
    executor = executor or SerialExecutor()
    q = store.mention_quarter()
    delay = store.mentions["Delay"]
    nq = store.n_quarters()

    def kernel(sl: slice) -> np.ndarray:
        return group_count(q[sl], nq, delay[sl] > threshold)

    parts = executor.map_chunks(kernel, store.n_mentions)
    return np.sum(parts, axis=0) if parts else np.zeros(nq, dtype=np.int64)
