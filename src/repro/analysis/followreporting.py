"""Follow-reporting: Table IV and Figure 7.

Follow-reporting captures who publishes *first* and who follows:

    f_ij = n_ij / n_j

where n_ij counts articles published by site j on events that site i
published on strictly earlier, and n_j is the total number of articles
site j published.  The diagonal f_jj counts repeat articles — a site
following up on its own earlier reporting (the paper reads it as either
thorough journalism or deliberate amplification).

The first-publication table holds one row per event the chosen sources
reported on, not one per event in the store, and only their articles'
capture intervals are gathered.
"""

from __future__ import annotations

import numpy as np

from repro.engine.store import GdeltStore
from repro.kernels import distinct

__all__ = ["follow_reporting"]

_NO_MENTION = np.iinfo(np.int64).max


def follow_reporting(
    store: GdeltStore, source_ids: np.ndarray
) -> np.ndarray:
    """f_ij matrix for the chosen publishers (typically top-10 or top-50).

    Algorithm: restrict mentions to the k chosen sources; compute each
    (event, source)'s *first* publication interval with a grouped min
    over a table of only the events those sources reported on; then, for
    every article by source j on event e and every leader i, count it if
    i's first article on e precedes this article strictly.  Complexity
    O(k * A_S) time and O(k * E_S) scratch for A_S articles by chosen
    sources on E_S distinct events.

    Returns:
        float64 matrix of shape (k, k); rows = first publisher i,
        columns = follow-up publisher j, exactly as Table IV is printed.
    """
    source_ids = np.asarray(source_ids)
    k = len(source_ids)
    if k == 0:
        return np.zeros((0, 0))

    sid = store.mentions["SourceId"]
    remap = np.full(store.n_sources, -1, dtype=np.int64)
    remap[source_ids] = np.arange(k)
    keys = remap[sid]
    rows = store.mention_event_row()

    sel = (keys >= 0) & (rows >= 0)
    s_sel = keys[sel]
    t_sel = store.mentions["MentionInterval"][sel].astype(np.int64)
    # Compact event index: rank among the events the chosen sources
    # reported on, so the first-publication table is E_S x k.
    ev_rows = rows[sel]
    events = distinct(ev_rows)
    e_sel = np.searchsorted(events, ev_rows)

    # n_j counts ALL articles by j (the Fig 6 totals), not only joinable
    # ones, matching the paper's use of per-source article counts.
    n_j = np.bincount(keys[keys >= 0], minlength=k).astype(np.float64)

    # First publication interval per (event, chosen source).
    first = np.full(len(events) * k, _NO_MENTION, dtype=np.int64)
    np.minimum.at(first, e_sel * k + s_sel, t_sel)
    first = first.reshape(len(events), k)

    n_ij = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        lead_t = first[e_sel, i]
        follows = lead_t < t_sel
        n_ij[i] = np.bincount(s_sel[follows], minlength=k)

    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(n_j[None, :] > 0, n_ij / n_j[None, :], 0.0)
    return f
