"""Country cross-reporting: Tables VI, VII and Figure 8.

Unlike co-reporting, the cross-reporting matrix is *asymmetric*: entry
(i, j) counts articles published in country j about events located in
country i.  The paper orders reported-on countries by total events
recorded and publishing countries by total articles recorded; helpers
here reproduce those orderings so benchmark output lines up with the
printed tables.  The matrix itself (Table VI) and its per-publisher
percentages (Table VII) come from
:func:`~repro.engine.query.aggregated_country_query` and
:meth:`~repro.engine.query.CountryQueryResult.percentages`.
"""

from __future__ import annotations

import numpy as np

from repro.engine.query import CountryQueryResult
from repro.engine.store import GdeltStore

__all__ = [
    "reported_country_order",
    "publishing_country_order",
]


def reported_country_order(
    store: GdeltStore, result: CountryQueryResult, k: int = 10
) -> np.ndarray:
    """Top-k reported-on countries by total events recorded (rows)."""
    ev_country = store.event_country_idx()
    counts = np.bincount(
        ev_country[ev_country >= 0].astype(np.int64), minlength=store.n_countries
    )
    order = np.argsort(counts)[::-1]
    return order[: min(k, len(order))]


def publishing_country_order(result: CountryQueryResult, k: int = 10) -> np.ndarray:
    """Top-k publishing countries by total articles recorded (columns)."""
    order = np.argsort(result.publisher_articles)[::-1]
    return order[: min(k, len(order))]
