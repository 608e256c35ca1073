"""Synthetic news-source catalog.

Builds the population of publishers the generator draws from: a country
(expressed through the domain's TLD, since that is how the system
attributes countries), a Zipf productivity weight, a news-cycle class for
the delay model, quarterly activity (the paper observes only ~1/3 of
GDELT's sources are active in a given quarter — many are periodicals),
and membership in the co-owned media-group cluster that dominates the
paper's top-10 publisher list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gdelt.codes import COUNTRIES
from repro.synth.config import SynthConfig

__all__ = ["SourceCatalog", "build_source_catalog"]

_NAME_A = (
    "daily", "evening", "morning", "weekly", "sunday", "metro", "city",
    "county", "coastal", "northern", "southern", "eastern", "western",
    "central", "new", "free", "first", "united", "national", "regional",
)
_NAME_B = (
    "echo", "herald", "gazette", "times", "post", "chronicle", "courier",
    "tribune", "observer", "record", "standard", "journal", "express",
    "star", "mail", "press", "news", "argus", "telegraph", "mercury",
)

#: Fraction of non-US sources registered under a generic TLD (the
#: theguardian.com problem the paper acknowledges: those sources will be
#: attributed to the US by the TLD rule).
GENERIC_TLD_LEAK = 0.05


@dataclass(slots=True)
class SourceCatalog:
    """The generated publisher population (column-oriented).

    Attributes:
        domains: bare domain per source (``MentionSourceName`` values).
        country_idx: index into :data:`repro.gdelt.codes.COUNTRIES` of the
            source's *true* country (before TLD attribution quirks); -1
            never occurs here but readers must tolerate it.
        productivity: relative article-volume weight (unnormalized).
        cycle: per-source news-cycle bound in 15-min intervals.
        group_id: media-group id (-1 = independent).
        activity: bool matrix (n_sources, n_quarters); True = the source
            publishes during that quarter.
    """

    domains: list[str]
    country_idx: np.ndarray
    productivity: np.ndarray
    cycle: np.ndarray
    group_id: np.ndarray
    activity: np.ndarray

    @property
    def n_sources(self) -> int:
        return len(self.domains)

    @property
    def n_quarters(self) -> int:
        return self.activity.shape[1]


def _allocate_countries(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Assign a true country index to every source, per configured weights."""
    cm = cfg.country
    fips_order = [c.fips for c in COUNTRIES]
    probs = np.zeros(len(COUNTRIES))
    named = set(cm.source_weights)
    n_other = sum(1 for c in COUNTRIES if c.fips not in named)
    for i, c in enumerate(COUNTRIES):
        if c.fips in cm.source_weights:
            probs[i] = cm.source_weights[c.fips]
        else:
            probs[i] = cm.other_source_weight / n_other
    probs /= probs.sum()
    idx = rng.choice(len(fips_order), size=cfg.n_sources, p=probs)
    return idx.astype(np.int16)


def _make_domains(
    cfg: SynthConfig,
    country_idx: np.ndarray,
    group_id: np.ndarray,
    rng: np.random.Generator,
) -> list[str]:
    """Generate unique, plausible domains whose TLD encodes the country.

    Media-group members always get proper ``.co.uk`` domains (they are the
    UK regional papers).  A small fraction of other non-US sources leaks
    onto ``.com``, reproducing the paper's TLD-attribution caveat.
    """
    domains: list[str] = []
    seen: set[str] = set()
    n = len(country_idx)
    leak = rng.random(n) < GENERIC_TLD_LEAK
    # One bounded draw per name part, A then B per source, from one call:
    # the stream two scalar ``rng.integers`` calls per source consume.
    names = rng.integers(0, np.tile([len(_NAME_A), len(_NAME_B)], n)).reshape(n, 2)
    for i, (ci, a, b) in enumerate(zip(country_idx.tolist(), *names.T.tolist())):
        country = COUNTRIES[ci]
        stem = f"{_NAME_A[a]}{_NAME_B[b]}"
        if group_id[i] >= 0:
            tld = "co.uk"
        elif country.fips == "US" or (leak[i] and not country.fips == "US"):
            tld = "com"
        elif country.fips == "UK":
            tld = "co.uk"
        else:
            tld = country.tld
        domain = f"{stem}.{tld}"
        n = 1
        while domain in seen:
            n += 1
            domain = f"{stem}{n}.{tld}"
        seen.add(domain)
        domains.append(domain)
    return domains


def _activity_matrix(
    cfg: SynthConfig,
    group_id: np.ndarray,
    cycle: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Quarterly activity via a per-source two-state Markov chain.

    The stationary ON-probability equals the source's duty cycle (drawn
    around ``cfg.activity_duty``), and ``activity_persistence`` controls
    run lengths, so sources look like periodicals that come and go rather
    than white noise.  Slow-cycle sources (weeklies/monthlies/annuals)
    additionally fade over the window per ``slow_activity_decay`` — the
    thinning high-delay tail of Figs 10-11.  Media-group members are
    always active when configured so.
    """
    n, q = cfg.n_sources, cfg.n_quarters
    duty = np.clip(
        rng.beta(2.0, 2.0 * (1.0 - cfg.activity_duty) / cfg.activity_duty, size=n),
        0.02,
        0.98,
    )
    rho = cfg.activity_persistence
    slow = cycle > 96
    # Two-state chain with stationary P(on)=duty and correlation rho:
    # P(on->on) = duty + rho*(1-duty); P(off->on) = duty*(1-rho).
    state = rng.random(n) < duty
    out = np.empty((n, q), dtype=bool)
    for t in range(q):
        out[:, t] = state
        p_on = np.where(state, duty + rho * (1.0 - duty), duty * (1.0 - rho))
        fade = np.where(slow, cfg.slow_activity_decay ** (t + 1), 1.0)
        state = rng.random(n) < p_on * fade
    if cfg.media_group.always_active:
        out[group_id >= 0, :] = True
    return out


def build_source_catalog(cfg: SynthConfig, rng: np.random.Generator) -> SourceCatalog:
    """Build the full publisher population for ``cfg``.

    The media group is carved out of the UK sources (converting other
    countries' sources to the UK when too few exist) and given a
    productivity boost that places its members among the global top-10 by
    volume, as the paper observes for the Newsquest papers.
    """
    cfg.validate()
    country_idx = _allocate_countries(cfg, rng)

    uk_pos = next(i for i, c in enumerate(COUNTRIES) if c.fips == "UK")
    group_id = np.full(cfg.n_sources, -1, dtype=np.int16)
    uk_sources = np.flatnonzero(country_idx == uk_pos)
    need = cfg.media_group.n_members
    if len(uk_sources) < need:
        # Forcibly relocate enough sources to the UK.
        others = np.flatnonzero(country_idx != uk_pos)
        extra = rng.choice(others, size=need - len(uk_sources), replace=False)
        country_idx[extra] = uk_pos
        uk_sources = np.flatnonzero(country_idx == uk_pos)
    members = rng.choice(uk_sources, size=need, replace=False)
    group_id[members] = 0

    # Zipf productivity over a random permutation of ranks, then boost the
    # media group so its members rise to the global top of the volume order.
    ranks = rng.permutation(cfg.n_sources) + 1
    productivity = ranks.astype(np.float64) ** (-cfg.productivity_alpha)
    # ``productivity_boost`` is the member's intended *final* volume
    # relative to the rank-1 independent source.  Syndication multiplies a
    # member's base coverage by ~(1 + (k-1) * p_syn), so the base weight is
    # deflated by that factor; the result places the group just around the
    # top independents, as in the paper's Fig 6 (8 of the top 10).
    mg = cfg.media_group
    multiplier = 1.0 + (mg.n_members - 1) * mg.syndication_prob
    base = mg.productivity_boost / multiplier
    productivity[members] = rng.uniform(0.85 * base, 1.15 * base, size=need)

    cycles = np.asarray(cfg.delay.cycles, dtype=np.int64)
    cycle_class = rng.choice(len(cycles), size=cfg.n_sources, p=cfg.delay.cycle_probs)
    cycle = cycles[cycle_class]
    # The paper's top publishers follow the 24h news cycle (median ~4 h).
    cycle[members] = 96
    # Weeklies/monthlies/annuals publish far less than dailies.
    productivity = np.where(
        cycle > 96, productivity * cfg.slow_productivity_factor, productivity
    )

    domains = _make_domains(cfg, country_idx, group_id, rng)
    activity = _activity_matrix(cfg, group_id, cycle, rng)
    return SourceCatalog(
        domains=domains,
        country_idx=country_idx,
        productivity=productivity,
        cycle=cycle,
        group_id=group_id,
        activity=activity,
    )
