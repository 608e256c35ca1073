"""Per-source publishing-delay statistics: Figure 9 and Table VIII.

Delay is the number of 15-minute capture intervals between an event and
an article mentioning it.  For each source the paper reports the
minimum, maximum, average, and median delay over all its articles, then
histograms each statistic across sources — revealing the 24 h / week /
month / year news-cycle modes and the fast/average/slow source groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.aggregate import (
    group_count,
    group_max,
    group_mean,
    group_median,
    group_min,
)
from repro.engine.store import GdeltStore
from repro.gdelt.time_util import INTERVALS_PER_DAY

__all__ = [
    "SourceDelayStats",
    "per_source_delay_stats",
    "delay_histogram",
    "speed_groups",
    "FAST_THRESHOLD",
    "SLOW_THRESHOLD",
]

#: "Fast" sources typically report in under 2 hours (8 intervals).
FAST_THRESHOLD = 8
#: "Slow" sources have a median delay beyond the 24h cycle.
SLOW_THRESHOLD = INTERVALS_PER_DAY


@dataclass(slots=True)
class SourceDelayStats:
    """Per-source delay statistics (aligned with source ids).

    Sources with no articles carry ``count == 0`` and NaN/sentinel stats;
    filter on ``count`` before ranking.
    """

    count: np.ndarray
    min: np.ndarray
    max: np.ndarray
    mean: np.ndarray
    median: np.ndarray

    def covered(self) -> np.ndarray:
        """Ids of sources that published at least one article."""
        return np.flatnonzero(self.count > 0)


def per_source_delay_stats(store: GdeltStore) -> SourceDelayStats:
    """Compute min/max/mean/median delay per source in one pass each.

    Keys and delays are read at stored width; min/max widen the delays
    because they answer in the values' dtype, and the report's is int64.
    """
    keys = store.mentions["SourceId"]
    delay = store.mentions["Delay"]
    n = store.n_sources
    return SourceDelayStats(
        count=group_count(keys, n),
        min=group_min(keys, delay.astype(np.int64), n),
        max=group_max(keys, delay.astype(np.int64), n, empty=0),
        mean=group_mean(keys, delay, n),
        median=group_median(keys, delay, n),
    )


def delay_histogram(
    values: np.ndarray,
    counts: np.ndarray | None = None,
    log_bins: int = 48,
    max_delay: int = 36_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram a per-source delay statistic on logarithmic bins (Fig 9).

    Args:
        values: one statistic per source (NaN/zero-count entries allowed).
        counts: per-source article counts; sources with zero are dropped.
        log_bins: number of log-spaced bins over [1, max_delay].
        max_delay: histogram upper bound in intervals.

    Returns:
        (bin_edges, source_counts) with ``len(edges) == len(counts) + 1``.
    """
    v = np.asarray(values, dtype=np.float64)
    keep = np.isfinite(v)
    if counts is not None:
        keep &= np.asarray(counts) > 0
    v = np.clip(v[keep], 1, max_delay)
    edges = np.logspace(0, np.log10(max_delay), log_bins + 1)
    hist, _ = np.histogram(v, bins=edges)
    return edges, hist.astype(np.int64)


def speed_groups(stats: SourceDelayStats) -> dict[str, np.ndarray]:
    """Classify covered sources into the paper's three speed groups.

    * ``fast`` — median delay under ~2 hours; the core pool for studying
      digital wildfires;
    * ``average`` — follows the 24-hour news cycle;
    * ``slow`` — median delay beyond 24 hours (weekly/monthly/yearly
      publications).
    """
    ids = stats.covered()
    med = stats.median[ids]
    fast = ids[med <= FAST_THRESHOLD]
    slow = ids[med > SLOW_THRESHOLD]
    avg = ids[(med > FAST_THRESHOLD) & (med <= SLOW_THRESHOLD)]
    return {"fast": fast, "average": avg, "slow": slow}
