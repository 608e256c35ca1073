"""Dataset statistics and popularity analyses (Table I, Fig 2, Table III)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analysis as an
from repro.analysis.popularity import _articles_per_event
from repro.engine import GdeltStore
from repro.storage import StringDictionary


class TestDatasetStatistics:
    def test_counts(self, tiny_store, tiny_ds):
        stats = an.dataset_statistics(tiny_store)
        assert stats.n_events == tiny_ds.n_events
        assert stats.n_articles == tiny_ds.n_articles
        assert stats.n_sources == len(np.unique(tiny_ds.mentions.source_idx))
        assert stats.n_capture_intervals == len(np.unique(tiny_ds.mentions.interval))

    def test_weighted_average(self, tiny_store):
        stats = an.dataset_statistics(tiny_store)
        assert stats.weighted_avg_articles_per_event == pytest.approx(
            tiny_store.n_mentions / tiny_store.n_events
        )

    def test_min_is_one(self, tiny_store):
        """Every GDELT event has at least its seed article."""
        assert an.dataset_statistics(tiny_store).min_articles_per_event == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 30), max_size=40),
        st.lists(st.integers(-5, 35), max_size=80),
    )
    def test_articles_per_event_counts_every_matching_mention(self, eids, mids):
        """Per-event counts equal two binary searches of the sorted
        mention ids, for duplicate event ids (each duplicate row counts
        all mentions of its id), dangling mention ids and empty tables."""
        eids = np.sort(np.array(eids, dtype=np.int64))
        mids = np.array(mids, dtype=np.int64)
        empty = StringDictionary.from_strings([""])
        store = GdeltStore.from_arrays(
            {"GlobalEventID": eids},
            {"GlobalEventID": mids},
            {"sources": empty, "countries": empty},
        )
        sorted_mids = np.sort(mids)
        want = np.searchsorted(sorted_mids, eids, "right") - np.searchsorted(
            sorted_mids, eids, "left"
        )
        got = _articles_per_event(store)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_as_table_shape(self, tiny_store):
        table = an.dataset_statistics(tiny_store).as_table()
        assert len(table) == 7  # the seven Table I rows


class TestHistogram:
    def test_mass_conservation(self, tiny_store):
        n, counts = an.event_article_histogram(tiny_store)
        assert counts.sum() == tiny_store.n_events
        assert (n * counts).sum() == tiny_store.n_mentions

    def test_support_positive(self, tiny_store):
        n, counts = an.event_article_histogram(tiny_store)
        assert n.min() >= 1
        assert (counts > 0).all()

    def test_monotone_head(self, tiny_store):
        """Power law: count(1) > count(2) > count(3)."""
        n, counts = an.event_article_histogram(tiny_store)
        c = dict(zip(n.tolist(), counts.tolist()))
        assert c[1] > c[2] > c[3]


class TestPowerLawFit:
    def test_slope_negative_on_real_histogram(self, tiny_store):
        n, counts = an.event_article_histogram(tiny_store)
        slope, _ = an.fit_power_law(n, counts, n_max=int(n.max()))
        assert -4.0 < slope < -1.2

    def test_fit_recovers_exact_law(self):
        n = np.arange(1, 100)
        counts = (1e6 * n ** -2.5).astype(np.int64)
        slope, intercept = an.fit_power_law(n, counts)
        assert slope == pytest.approx(-2.5, abs=0.05)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            an.fit_power_law(np.array([1]), np.array([10]))


class TestTopEvents:
    def test_sorted_descending(self, tiny_store):
        top = an.top_events(tiny_store, 10)
        counts = [m for m, _ in top]
        assert counts == sorted(counts, reverse=True)

    def test_top1_is_max(self, tiny_store):
        _, counts = np.unique(tiny_store.mentions["GlobalEventID"], return_counts=True)
        assert an.top_events(tiny_store, 1)[0][0] == int(counts.max())

    def test_urls_resolve(self, tiny_store):
        for _, url in an.top_events(tiny_store, 5):
            assert url.startswith("https://")

    def test_mega_events_dominate(self, tiny_store, tiny_ds):
        """The paper's Table III: headline events must top the ranking."""
        top_counts = [m for m, _ in an.top_events(tiny_store, 5)]
        mega_rows = np.flatnonzero(tiny_ds.events.mega_idx >= 0)
        mega_counts = sorted(
            tiny_ds.num_articles[mega_rows].tolist(), reverse=True
        )
        assert top_counts[0] == mega_counts[0]
