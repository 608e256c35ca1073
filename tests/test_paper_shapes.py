"""Reproduction shape tests.

These assert the qualitative findings of the paper's evaluation on the
synthetic corpus — the contract DESIGN.md calls "reproduced": who wins,
by roughly what factor, where the structure lies.  Quantities come from
the tiny corpus, so thresholds are deliberately loose.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import analysis as an
from repro.analysis.crossreporting import (
    publishing_country_order,
    reported_country_order,
)
from repro.engine import aggregated_country_query
from repro.gdelt.codes import COUNTRIES

_POS = {c.fips: i for i, c in enumerate(COUNTRIES)}


@pytest.fixture(scope="module")
def country_result(tiny_store):
    return aggregated_country_query(tiny_store)


class TestSectionVIA:
    """Articles over time (Fig 6): a co-owned UK cluster dominates."""

    def test_most_top10_publishers_are_group_members(self, tiny_store, tiny_ds):
        top = an.top_publishers(tiny_store, 10)
        gm = set(np.flatnonzero(tiny_ds.catalog.group_id == 0).tolist())
        assert sum(int(s) in gm for s in top) >= 6  # paper: 8 of 10

    def test_top_publishers_are_british(self, tiny_store):
        top = an.top_publishers(tiny_store, 10)
        uk = sum(tiny_store.sources[int(s)].endswith(".co.uk") for s in top)
        assert uk >= 6

    def test_top_publisher_series_correlate(self, tiny_store, tiny_ds):
        """Fig 6: group members' quarterly volumes move together."""
        top = an.top_publishers(tiny_store, 10)
        gm = set(np.flatnonzero(tiny_ds.catalog.group_id == 0).tolist())
        members = [s for s in top if int(s) in gm][:4]
        series = an.publisher_quarterly_series(tiny_store, np.array(members))
        corr = np.corrcoef(series)
        off = corr[~np.eye(len(members), dtype=bool)]
        assert off.mean() > 0.2


class TestSectionVIC:
    """Country co-reporting (Table V): the anglosphere cluster."""

    def test_anglo_cluster(self, country_result):
        j = country_result.jaccard()
        uk, us, au = _POS["UK"], _POS["US"], _POS["AS"]
        anglo = [j[uk, us], j[uk, au], j[us, au]]
        others = [
            j[uk, _POS["IT"]],
            j[us, _POS["SF"]],
            j[au, _POS["BG"]],
            j[uk, _POS["RP"]],
        ]
        # At tiny scale event sets are small and all Jaccards inflate;
        # the benchmark corpus asserts a 2x+ separation, here the cluster
        # must merely stand clear of the background.
        assert min(anglo) > 1.2 * max(others)

    def test_india_attached_but_weaker(self, country_result):
        j = country_result.jaccard()
        uk, us, india = _POS["UK"], _POS["US"], _POS["IN"]
        assert j[india, us] < j[uk, us]
        assert j[india, us] > j[_POS["RP"], us]

    def test_canada_outside_cluster(self, country_result):
        """The paper's surprise: Canada is not part of the UK/US/AU block."""
        j = country_result.jaccard()
        assert j[_POS["CA"], _POS["US"]] < 0.5 * j[_POS["UK"], _POS["US"]]


class TestSectionVID:
    """Cross-reporting (Tables VI/VII, Fig 8)."""

    def test_us_is_most_reported_on(self, tiny_store, country_result):
        order = reported_country_order(
            tiny_store, country_result, 10
        )
        assert order[0] == _POS["US"]

    def test_uk_is_top_publisher_country(self, country_result):
        order = publishing_country_order(country_result, 10)
        assert order[0] == _POS["UK"]
        assert _POS["US"] in order[:3]

    def test_us_share_is_dominant_and_uniform(self, country_result):
        """Table VII: every publishing country spends ~1/3+ of its articles
        on US events, far above any other target."""
        pct = country_result.percentages()
        pubs = publishing_country_order(country_result, 6)
        us_row = pct[_POS["US"], pubs]
        assert (us_row > 15).all()
        uk_row = pct[_POS["UK"], pubs]
        assert (us_row > uk_row).all()

    def test_matrix_asymmetric(self, country_result):
        c = country_result.cross_counts
        assert not np.array_equal(c, c.T)


class TestSectionVIE:
    """Publishing delay (Fig 9, Table VIII)."""

    def test_top_publishers_in_average_group(self, tiny_store):
        """Table VIII: top publishers follow the 24h cycle, median ~4h."""
        top = an.top_publishers(tiny_store, 10)
        stats = an.per_source_delay_stats(tiny_store)
        med = stats.median[top]
        assert (med >= 4).all() and (med <= 48).all()
        assert (stats.min[top] == 1).all()

    def test_fast_group_exists(self, tiny_store):
        """The paper's 'most important pool of core news sources'."""
        stats = an.per_source_delay_stats(tiny_store)
        groups = an.speed_groups(stats)
        assert len(groups["fast"]) > 0


class TestSectionVIF:
    """Delay trends (Figs 10-11): declining tail, stable median."""

    def test_average_declines_more_than_median(self, tiny_store):
        qd = an.quarterly_delay(tiny_store)
        # Compare 2016 with 2019 (skip the cold-start quarters).
        mean_drop = qd.mean[4:8].mean() - qd.mean[16:20].mean()
        med_drop = abs(qd.median[4:8].mean() - qd.median[16:20].mean())
        assert mean_drop > 0
        assert med_drop <= 4


class TestPowerLaw:
    """Fig 2: popularity histogram follows a power law with a bump."""

    def test_straight_line_in_loglog(self, tiny_store):
        n, counts = an.event_article_histogram(tiny_store)
        slope, _ = an.fit_power_law(n, counts, n_max=30)
        assert -3.5 < slope < -1.5
