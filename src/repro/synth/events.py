"""Synthetic event stream.

Events carry a capture interval (when they happened), an optional geotag
country, and a *target popularity* — the number of articles the mention
generator will aim to attach.  Popularity follows a bounded power law
with a configurable mid-curve bump (the deviation from a clean power law
the paper reports in Fig 2), boosted for high-attention countries (the
mechanism behind the US's outsized article share in Tables VI/VII).

The paper's Table III headline events are injected as *mega events* with
fixed dates and a coverage fraction of the then-active sources; their
popularity is resolved by the mention generator, which knows activity.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.gdelt.codes import COUNTRIES
from repro.gdelt.time_util import (
    datetime_to_interval,
    intervals_to_quarters,
)
from repro.kernels import stable_order
from repro.synth.config import SynthConfig

__all__ = ["EventTable", "generate_events", "sample_popularity"]



@dataclass(slots=True)
class EventTable:
    """Column-oriented synthetic events (sorted by interval).

    ``country_idx`` indexes :data:`repro.gdelt.codes.COUNTRIES`; -1 means
    the event carries no geotag (the paper notes local news is often
    untagged).  ``true_country`` is where the event actually happened —
    it drives press attention even when the geotag is missing, and is
    never exported to the GDELT tables.  ``popularity`` is the *target*
    article count; mega events have popularity 0 here (resolved later
    from coverage fractions).  ``mega_idx`` is -1 for ordinary events,
    else an index into ``cfg.mega_events``.
    """

    event_id: np.ndarray
    interval: np.ndarray
    country_idx: np.ndarray
    true_country: np.ndarray
    popularity: np.ndarray
    mega_idx: np.ndarray
    root_code: np.ndarray  # uint8, 1..20
    avg_tone: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.event_id)


def sample_popularity(
    cfg: SynthConfig, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample per-event article counts from the bump-modified power law.

    The pmf over n = 1..n_max is ``n**-alpha`` plus a lognormal-shaped
    bump centered at ``bump_center`` with relative mass ``bump_weight``.
    n_max scales with the source population; the divisor is calibrated so
    the *article-weighted* mean popularity stays near the paper's —
    that statistic, not the raw tail, controls how often two publishers
    land on the same event (Table IV's follow-reporting levels).
    """
    n_max = max(64, cfg.n_sources // 10)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    pmf = n ** (-cfg.popularity_alpha)
    if cfg.bump_weight > 0:
        bump = np.exp(
            -((np.log(n) - np.log(cfg.bump_center)) ** 2) / (2 * cfg.bump_sigma**2)
        )
        pmf = pmf / pmf.sum() + cfg.bump_weight * bump / bump.sum()
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    u = rng.random(size)
    return (np.searchsorted(cdf, u, side="right") + 1).astype(np.int32)


def _interval_weights(cfg: SynthConfig) -> np.ndarray:
    """Per-interval sampling weight from the quarterly intensity profile.

    The last interval of the window is excluded so that every event can
    receive its seed mention (minimum delay 1) inside the window.
    """
    n_intervals = cfg.end_interval - cfg.start_interval - 1
    w = np.ones(n_intervals, dtype=np.float64)
    profile = np.asarray(cfg.quarterly_intensity, dtype=np.float64)
    quarters = intervals_to_quarters(
        np.arange(cfg.start_interval, cfg.start_interval + n_intervals, dtype=np.int64)
    )
    q = np.clip(quarters, 0, len(profile) - 1)
    w *= profile[q]
    return w / w.sum()


def generate_events(cfg: SynthConfig, rng: np.random.Generator) -> EventTable:
    """Generate the full event stream for ``cfg`` (plus mega events).

    Events are sorted by interval and given ascending ids, matching
    GDELT's monotone GlobalEventID allocation.
    """
    n = cfg.n_events
    weights = _interval_weights(cfg)
    intervals = (
        rng.choice(len(weights), size=n, p=weights) + cfg.start_interval
    ).astype(np.int64)

    # Every event happens *somewhere* — the true country drives press
    # attention regardless of whether GDELT manages to geotag it.
    cm = cfg.country
    probs = np.zeros(len(COUNTRIES))
    named = set(cm.event_weights)
    n_other = sum(1 for c in COUNTRIES if c.fips not in named)
    for i, c in enumerate(COUNTRIES):
        probs[i] = cm.event_weights.get(c.fips, cm.other_event_weight / n_other)
    probs /= probs.sum()
    true_country = rng.choice(len(COUNTRIES), size=n, p=probs).astype(np.int16)

    popularity = sample_popularity(cfg, n, rng)
    # Country popularity boost with probabilistic rounding.
    boost = np.ones(len(COUNTRIES))
    for fips, b in cm.popularity_boost.items():
        for i, c in enumerate(COUNTRIES):
            if c.fips == fips:
                boost[i] = b
    scaled = popularity * boost[true_country]
    popularity = (np.floor(scaled) + (rng.random(n) < (scaled % 1.0))).astype(np.int32)
    # The boost must not push ordinary events past the structural cap —
    # only headline (mega) events approach full source coverage.
    n_max = max(64, cfg.n_sources // 10)
    popularity = np.clip(popularity, 1, n_max)

    # Popularity-dependent geotagging: one-article local news is usually
    # untagged; big stories are tagged almost surely.
    p_tag = cm.geotag_min + (cm.geotag_max - cm.geotag_min) * (
        1.0 - np.exp(-(popularity - 1) / cm.geotag_ramp)
    )
    tagged = rng.random(n) < p_tag
    country_idx = np.where(tagged, true_country, -1).astype(np.int16)

    mega_idx = np.full(n, -1, dtype=np.int16)

    # Append mega events (fixed dates; popularity resolved downstream).
    megas = [
        m
        for m in cfg.mega_events
        if cfg.start <= _dt.datetime(m.day.year, m.day.month, m.day.day) < cfg.end
    ]
    if megas:
        m_int = np.array(
            [
                datetime_to_interval(
                    _dt.datetime(m.day.year, m.day.month, m.day.day, 12, 0)
                )
                for m in megas
            ],
            dtype=np.int64,
        )
        m_ci = np.array(
            [
                next(i for i, c in enumerate(COUNTRIES) if c.fips == m.country)
                for m in megas
            ],
            dtype=np.int16,
        )
        intervals = np.concatenate([intervals, m_int])
        country_idx = np.concatenate([country_idx, m_ci])
        true_country = np.concatenate([true_country, m_ci])
        popularity = np.concatenate([popularity, np.zeros(len(megas), dtype=np.int32)])
        mega_idx = np.concatenate(
            [mega_idx, np.arange(len(megas), dtype=np.int16)]
        )

    order = stable_order(intervals)
    intervals = intervals[order]
    country_idx = country_idx[order]
    true_country = true_country[order]
    popularity = popularity[order]
    mega_idx = mega_idx[order]

    total = len(intervals)
    event_id = np.arange(410_000_000, 410_000_000 + total, dtype=np.int64)
    root_code = rng.integers(1, 21, size=total, dtype=np.int64).astype(np.uint8)
    avg_tone = rng.normal(-1.5, 3.0, size=total)

    return EventTable(
        event_id=event_id,
        interval=intervals,
        country_idx=country_idx,
        true_country=true_country.astype(np.int16),
        popularity=popularity,
        mega_idx=mega_idx,
        root_code=root_code,
        avg_tone=avg_tone,
    )
