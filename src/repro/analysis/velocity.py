"""Reporting velocity and digital-wildfire candidates.

The paper's motivation is studying *digital wildfires* — fast-spreading
(mis)information — and its Section VI-E spells out the follow-up: "the
observed delay for the very first article from any source on a
particular topic might be relevant to reporting speediness and potential
news wildfires", with the fast near-real-time sources forming the core
monitoring pool.

This module implements that analysis on the engine:

* per-event first-reaction delay (how fast the very first article came);
* per-event early coverage (distinct sources within a time horizon);
* wildfire candidate detection — events crossing a source-count
  threshold within a short window, ranked by early velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.store import GdeltStore
from repro.kernels import distinct

__all__ = [
    "first_reaction_delays",
    "early_coverage",
    "WildfireCandidate",
    "detect_wildfires",
]


def first_reaction_delays(store: GdeltStore) -> np.ndarray:
    """Delay (intervals) of the very first article of each event.

    Returns an int64 array aligned with events-table rows; events with no
    mentions (impossible in well-formed data, possible after lossy
    ingest) hold the int64 max sentinel.
    """
    rows = store.mention_event_row()
    delay = store.mentions["Delay"]
    out = np.full(store.n_events, np.iinfo(np.int64).max, dtype=np.int64)
    ok = rows >= 0
    np.minimum.at(out, rows[ok], delay[ok])
    return out


def early_coverage(store: GdeltStore, window: int) -> np.ndarray:
    """Distinct sources covering each event within ``window`` intervals.

    Args:
        window: horizon after the event, in 15-minute intervals (8 = two
            hours — the paper's "fast" threshold).

    Returns:
        int64 array aligned with events-table rows.
    """
    if window < 1:
        raise ValueError("window must be at least one interval")
    rows = store.mention_event_row()
    delay = store.mentions["Delay"]
    sid = store.mentions["SourceId"]
    ok = (rows >= 0) & (delay <= window)
    pair = distinct(rows[ok] * np.int64(store.n_sources) + sid[ok])
    return np.bincount(
        (pair // store.n_sources).astype(np.int64), minlength=store.n_events
    ).astype(np.int64)


@dataclass(frozen=True, slots=True)
class WildfireCandidate:
    """One fast-spreading event."""

    event_row: int
    global_event_id: int
    early_sources: int
    total_sources: int
    first_delay: int
    url: str | None

    @property
    def velocity(self) -> float:
        """Early sources per interval of window (set by the detector)."""
        return float(self.early_sources)


def detect_wildfires(
    store: GdeltStore,
    window: int = 8,
    min_sources: int = 10,
    limit: int = 50,
) -> list[WildfireCandidate]:
    """Events covered by ≥ ``min_sources`` distinct sources within
    ``window`` intervals of happening, ranked by early coverage.

    The defaults encode the paper's framing: two hours (8 intervals) is
    the boundary of the "fast" reporting group, and double-digit distinct
    sources inside that horizon separates a breaking story from routine
    co-reporting.

    Returns:
        Up to ``limit`` candidates, most explosive first.
    """
    early = early_coverage(store, window)
    first = first_reaction_delays(store)
    total = store.events["NumSources"].astype(np.int64)

    hits = np.flatnonzero(early >= min_sources)
    hits = hits[np.argsort(early[hits])[::-1][:limit]]
    out = []
    for row in hits:
        out.append(
            WildfireCandidate(
                event_row=int(row),
                global_event_id=int(store.events["GlobalEventID"][row]),
                early_sources=int(early[row]),
                total_sources=int(total[row]),
                first_delay=int(first[row]),
                url=store.event_url(int(row)),
            )
        )
    return out
