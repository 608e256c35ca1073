"""Synthetic mention (article) stream.

For every event, articles are attached by sampling publishers from an
attention-weighted productivity distribution, conditioned on the event's
country and the publisher's quarterly activity.  Three extra processes
shape the data the way the paper's evaluation needs:

* **syndication** — once any media-group member covers an event, the
  other members republish with high probability (Table IV / Fig 7's
  heavy mutual follow-reporting block);
* **mega events** — the Table III headline events are covered by a fixed
  fraction of all *active* sources (the paper's "85 % of active sources
  reported the Orlando shooting");
* **delays** — drawn per article from the news-cycle mixture of
  :mod:`repro.synth.delays`; articles whose capture time falls past the
  observation window are dropped, except that every event keeps a seed
  mention (events exist in GDELT because an article was scraped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gdelt.codes import COUNTRIES
from repro.gdelt.time_util import intervals_to_quarters
from repro.kernels import distinct, stable_order
from repro.synth.config import SynthConfig
from repro.synth.delays import sample_delays
from repro.synth.events import EventTable
from repro.synth.sources import SourceCatalog

__all__ = ["MentionTable", "generate_mentions", "build_attention_matrix"]


@dataclass(slots=True)
class MentionTable:
    """Column-oriented synthetic mentions, sorted by capture interval.

    ``event_row`` indexes the :class:`~repro.synth.events.EventTable`
    rows (not GlobalEventIDs).  ``repeat_k`` numbers the articles a
    single source published on a single event (0 = first), used to mint
    unique article URLs.
    """

    event_row: np.ndarray
    source_idx: np.ndarray
    delay: np.ndarray
    interval: np.ndarray  # capture interval of the mention
    confidence: np.ndarray
    doc_tone: np.ndarray
    repeat_k: np.ndarray

    @property
    def n_mentions(self) -> int:
        return len(self.event_row)


def build_attention_matrix(cfg: SynthConfig) -> np.ndarray:
    """Attention weight A[publisher_country, event_country].

    Encodes: strong home bias, universal pull toward US events, the
    UK/US/AU anglosphere block with India loosely attached (and Canada
    deliberately outside it, as Table V finds), and a weak baseline for
    everything else.
    """
    cm = cfg.country
    n = len(COUNTRIES)
    fips = [c.fips for c in COUNTRIES]
    pos = {f: i for i, f in enumerate(fips)}
    A = np.full((n, n), cm.base_attention, dtype=np.float64)
    np.fill_diagonal(A, cm.home_attention)
    for f, v in cm.home_attention_overrides.items():
        A[pos[f], pos[f]] = v
    A[:, pos["US"]] = np.maximum(A[:, pos["US"]], cm.us_pull)
    for a in cm.anglo_cluster:
        for b in cm.anglo_cluster:
            if a != b:
                A[pos[a], pos[b]] = cm.anglo_attention
    for a in cm.anglo_cluster:
        A[pos["IN"], pos[a]] = max(A[pos["IN"], pos[a]], cm.india_attention)
        A[pos[a], pos["IN"]] = max(A[pos[a], pos["IN"]], cm.india_attention)
    A[pos["US"], pos["US"]] = cm.home_attention
    return A


def _sample_sources_grouped(
    catalog: SourceCatalog,
    attention: np.ndarray,
    art_country: np.ndarray,
    art_quarter: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick a publisher for every article.

    Articles are grouped by (event country, quarter); within a group the
    publisher distribution is ``productivity * attention[src_country,
    event_country]`` masked by quarterly activity, sampled via inverse
    CDF.  Each country's quarter CDFs are one ``(quarters × sources)``
    block, and the uniforms are one ``rng.random(n_art)`` consumed in
    group order (the stream a draw per group would consume).
    """
    n_art = len(art_country)
    nq = catalog.n_quarters
    group_key = art_country.astype(np.int64) * nq + np.clip(art_quarter, 0, nq - 1)
    order = stable_order(group_key)
    sorted_key = group_key[order]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    ends = np.append(starts[1:], n_art)
    u = rng.random(n_art)

    src_country = catalog.country_idx.astype(np.int64)
    prod = catalog.productivity
    active = catalog.activity.T.astype(np.float64)  # (quarters, sources)
    picked = np.empty(n_art, dtype=np.int64)
    block_country = -1
    for s, e in zip(starts.tolist(), ends.tolist()):
        c, q = divmod(int(sorted_key[s]), nq)
        if c != block_country:
            block_country = c
            base = prod * attention[src_country, c]
            weights = base * active
            totals = weights.sum(axis=1)
            idle = totals <= 0  # nobody active: fall back to ignoring activity
            weights[idle] = base
            totals[idle] = base.sum()
            cdf = np.cumsum(weights, axis=1)
        picked[s:e] = np.searchsorted(cdf[q], u[s:e] * totals[q], side="right")
    out = np.empty(n_art, dtype=np.int32)
    out[order] = picked
    return np.minimum(out, catalog.n_sources - 1)


def _syndication(
    cfg: SynthConfig,
    catalog: SourceCatalog,
    event_row: np.ndarray,
    source_idx: np.ndarray,
    ev_quarter: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Extra (event_row, source) pairs from media-group republishing."""
    members = np.flatnonzero(catalog.group_id == 0)
    if len(members) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
    member_set = np.zeros(catalog.n_sources, dtype=bool)
    member_set[members] = True
    covered = distinct(event_row[member_set[source_idx]])
    if len(covered) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
    # Each member republishes each covered event independently.
    p = cfg.media_group.syndication_prob
    take = rng.random((len(covered), len(members))) < p
    ev_r, mem_c = np.nonzero(take)
    return covered[ev_r], members[mem_c].astype(np.int32)


def _mega_mentions(
    cfg: SynthConfig,
    catalog: SourceCatalog,
    events: EventTable,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(event_row, source) pairs for the Table III headline events."""
    rows = np.flatnonzero(events.mega_idx >= 0)
    ev_out: list[np.ndarray] = []
    src_out: list[np.ndarray] = []
    quarters = intervals_to_quarters(events.interval[rows]) if len(rows) else None
    for k, row in enumerate(rows):
        mega = cfg.mega_events[int(events.mega_idx[row])]
        q = int(np.clip(quarters[k], 0, catalog.n_quarters - 1))
        active = np.flatnonzero(catalog.activity[:, q])
        take = active[rng.random(len(active)) < mega.coverage]
        ev_out.append(np.full(len(take), row, dtype=np.int64))
        src_out.append(take.astype(np.int32))
    if not ev_out:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
    return np.concatenate(ev_out), np.concatenate(src_out)


def _repeat_numbers(event_row: np.ndarray, source_idx: np.ndarray) -> np.ndarray:
    """0-based occurrence counter per (event, source) pair, in array order."""
    n = len(event_row)
    key = event_row.astype(np.int64) * (source_idx.max() + 1 if n else 1) + source_idx
    order = stable_order(key)
    sk = key[order]
    new_group = np.concatenate([[True], sk[1:] != sk[:-1]])
    # Occurrence index = position - position of group start.
    idx = np.arange(n, dtype=np.int64)
    group_start = np.maximum.accumulate(np.where(new_group, idx, 0))
    rep_sorted = idx - group_start
    out = np.empty(n, dtype=np.int32)
    out[order] = rep_sorted.astype(np.int32)
    return out


def generate_mentions(
    cfg: SynthConfig,
    catalog: SourceCatalog,
    events: EventTable,
    rng: np.random.Generator,
) -> MentionTable:
    """Attach articles to every event (the heavy step of generation)."""
    attention = build_attention_matrix(cfg)

    # Ordinary articles: expand events by target popularity.
    ordinary = events.mega_idx < 0
    pop = np.where(ordinary, events.popularity, 0).astype(np.int64)
    event_row = np.repeat(np.arange(events.n_events, dtype=np.int64), pop)

    ev_quarter_all = intervals_to_quarters(events.interval)
    ev_quarter_all = np.clip(ev_quarter_all, 0, catalog.n_quarters - 1)

    # Press attention follows where the event actually happened, whether
    # or not GDELT managed to geotag it.
    art_country = events.true_country.astype(np.int64)[event_row]
    art_quarter = ev_quarter_all[event_row]
    source_idx = _sample_sources_grouped(
        catalog, attention, art_country, art_quarter, rng
    )

    syn_ev, syn_src = _syndication(
        cfg, catalog, event_row, source_idx, art_quarter, rng
    )
    mega_ev, mega_src = _mega_mentions(cfg, catalog, events, rng)

    event_row = np.concatenate([event_row, syn_ev, mega_ev])
    source_idx = np.concatenate([source_idx, syn_src, mega_src])

    # Delays and capture intervals.
    art_quarter = ev_quarter_all[event_row]
    cycle = catalog.cycle[source_idx]
    delay = sample_delays(cfg.delay, cycle, art_quarter, rng)
    ev_interval = events.interval[event_row]
    interval = ev_interval + delay

    keep = interval < cfg.end_interval
    # Guarantee a seed mention for events whose articles all fell off the
    # window end: clamp the first (lowest-delay) article of each such event.
    lost = distinct(event_row[~keep])
    if len(lost):
        kept_events = distinct(event_row[keep])
        really_lost = np.setdiff1d(lost, kept_events, assume_unique=True)
        if len(really_lost):
            # For each lost event pick its first article and set delay 1.
            first_pos = {}
            lost_set = set(really_lost.tolist())
            for pos in np.flatnonzero(~keep):
                er = int(event_row[pos])
                if er in lost_set and er not in first_pos:
                    first_pos[er] = pos
            fix = np.fromiter(first_pos.values(), dtype=np.int64)
            delay[fix] = 1
            interval[fix] = ev_interval[fix] + 1
            keep[fix] = True

    event_row = event_row[keep]
    source_idx = source_idx[keep]
    delay = delay[keep]
    interval = interval[keep]

    order = stable_order(interval)
    event_row = event_row[order]
    source_idx = source_idx[order]
    delay = delay[order]
    interval = interval[order]

    # Enforce the per-(event, source) repeat cap: repeat articles are real
    # (Table IV's diagonal) but a single outlet re-running one story dozens
    # of times is not.
    repeat_k = _repeat_numbers(event_row, source_idx)
    under_cap = repeat_k < cfg.max_repeats
    if not under_cap.all():
        event_row = event_row[under_cap]
        source_idx = source_idx[under_cap]
        delay = delay[under_cap]
        interval = interval[under_cap]
        repeat_k = repeat_k[under_cap]

    n = len(event_row)
    confidence = rng.integers(10, 101, size=n).astype(np.int16)
    doc_tone = rng.normal(-1.2, 3.5, size=n)

    return MentionTable(
        event_row=event_row,
        source_idx=source_idx,
        delay=delay.astype(np.int32),
        interval=interval,
        confidence=confidence,
        doc_tone=doc_tone,
        repeat_k=repeat_k,
    )
