"""Delay statistics (Fig 9 / Table VIII) and quarterly trends (Figs 10-11)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import analysis as an
from repro.analysis.delay import FAST_THRESHOLD, SLOW_THRESHOLD
from repro.engine import ThreadExecutor
from tests.conftest import flat_store, traced_peak


@pytest.fixture(scope="module")
def stats(tiny_store):
    return an.per_source_delay_stats(tiny_store)


class TestPerSourceStats:
    def test_against_numpy(self, tiny_store, stats):
        sid = np.asarray(tiny_store.mentions["SourceId"])
        d = np.asarray(tiny_store.mentions["Delay"])
        for s in np.unique(sid)[:25]:
            mine = d[sid == s]
            assert stats.count[s] == len(mine)
            assert stats.min[s] == mine.min()
            assert stats.max[s] == mine.max()
            assert stats.mean[s] == pytest.approx(mine.mean())
            assert stats.median[s] == pytest.approx(np.median(mine))

    def test_scratch_is_bounded(self):
        """Keys and delays read at stored width: at most 4 x 8 bytes of
        scratch per row (widening keys to int64 took ~57)."""
        store = flat_store(200_000)
        peak = traced_peak(lambda: an.per_source_delay_stats(store))
        assert peak <= 4 * 8 * store.n_mentions, peak / store.n_mentions

    def test_covered_sources(self, tiny_store, stats):
        covered = stats.covered()
        assert len(covered) == len(np.unique(tiny_store.mentions["SourceId"]))

    def test_min_le_median_le_max(self, stats):
        ids = stats.covered()
        assert (stats.min[ids] <= stats.median[ids]).all()
        assert (stats.median[ids] <= stats.max[ids]).all()

    def test_half_of_sources_have_min_delay_one(self, stats):
        """Paper: 'about half the news sites have reported on at least one
        event within 15 minutes' — busy sources almost surely draw a 1."""
        ids = stats.covered()
        frac = (stats.min[ids] == 1).mean()
        assert frac > 0.3

    def test_max_delay_modes(self, tiny_store, stats):
        """Fig 9: per-source max delays cluster at the news-cycle bounds
        (day / week / month), not uniformly."""
        ids = stats.covered()
        mx = stats.max[ids]
        near = lambda c: ((mx >= 0.8 * c) & (mx <= c)).sum()  # noqa: E731
        at_modes = near(96) + near(672) + near(2880) + (mx > 30_000).sum()
        assert at_modes / len(mx) > 0.5


class TestHistogramAndGroups:
    def test_histogram_conserves_sources(self, stats):
        ids = stats.covered()
        edges, hist = an.delay_histogram(stats.median, stats.count)
        assert hist.sum() == len(ids)
        assert len(edges) == len(hist) + 1

    def test_histogram_drops_uncovered(self, stats):
        edges, hist = an.delay_histogram(stats.mean, stats.count)
        assert hist.sum() == len(stats.covered())

    def test_speed_groups_partition(self, stats):
        groups = an.speed_groups(stats)
        total = sum(len(v) for v in groups.values())
        assert total == len(stats.covered())
        all_ids = np.concatenate(list(groups.values()))
        assert len(np.unique(all_ids)) == total

    def test_speed_group_thresholds(self, stats):
        groups = an.speed_groups(stats)
        if len(groups["fast"]):
            assert stats.median[groups["fast"]].max() <= FAST_THRESHOLD
        if len(groups["slow"]):
            assert stats.median[groups["slow"]].min() > SLOW_THRESHOLD

    def test_average_group_is_largest(self, stats):
        """The paper: most sources follow the 24h cycle with ~4-5h median."""
        groups = an.speed_groups(stats)
        assert len(groups["average"]) > len(groups["fast"])
        assert len(groups["average"]) > len(groups["slow"])


class TestQuarterlyTrends:
    def test_quarterly_delay_against_numpy(self, tiny_store):
        qd = an.quarterly_delay(tiny_store)
        q = tiny_store.mention_quarter()
        d = np.asarray(tiny_store.mentions["Delay"])
        for quarter in (0, 10, 19):
            mine = d[q == quarter]
            assert qd.articles[quarter] == len(mine)
            assert qd.mean[quarter] == pytest.approx(mine.mean())
            assert qd.median[quarter] == pytest.approx(np.median(mine))

    def test_median_stable_over_time(self, tiny_store):
        """Fig 10b: the quarterly median stays in a narrow band."""
        qd = an.quarterly_delay(tiny_store)
        assert qd.median.max() - qd.median.min() <= 8

    def test_late_articles_brute(self, tiny_store):
        late = an.late_articles_per_quarter(tiny_store)
        q = tiny_store.mention_quarter()
        d = np.asarray(tiny_store.mentions["Delay"])
        want = np.bincount(q[d > 96].astype(np.int64), minlength=20)
        assert np.array_equal(late, want)

    def test_late_articles_parallel(self, tiny_store):
        with ThreadExecutor(2) as ex:
            got = an.late_articles_per_quarter(tiny_store, executor=ex)
        assert np.array_equal(got, an.late_articles_per_quarter(tiny_store))

    def test_late_articles_decline(self, tiny_store):
        """Fig 11: the >24h article count thins over the years (compare
        2016 average to 2019 average to dodge quarter noise)."""
        late = an.late_articles_per_quarter(tiny_store)
        early = late[4:8].mean()  # 2016
        recent = late[16:20].mean()  # 2019
        assert recent < early

    def test_custom_threshold(self, tiny_store):
        a = an.late_articles_per_quarter(tiny_store, threshold=96)
        b = an.late_articles_per_quarter(tiny_store, threshold=672)
        assert b.sum() <= a.sum()
