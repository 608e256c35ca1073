"""Reporting velocity and wildfire detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.velocity import (
    detect_wildfires,
    early_coverage,
    first_reaction_delays,
)


class TestFirstReactionDelays:
    def test_matches_brute_force(self, tiny_store):
        first = first_reaction_delays(tiny_store)
        rows = tiny_store.mention_event_row()
        d = np.asarray(tiny_store.mentions["Delay"])
        for row in (0, 100, tiny_store.n_events - 1):
            mine = d[rows == row]
            assert first[row] == mine.min()

    def test_every_event_has_a_first(self, tiny_store):
        first = first_reaction_delays(tiny_store)
        assert (first < np.iinfo(np.int64).max).all()
        assert first.min() >= 1

    def test_consistent_with_added_interval(self, tiny_store):
        """AddedInterval is the capture time of the first article, so the
        first-reaction delay equals AddedInterval - first EventInterval."""
        first = first_reaction_delays(tiny_store)
        # Every event's first delay is bounded by any single mention's.
        rows = tiny_store.mention_event_row()
        d = np.asarray(tiny_store.mentions["Delay"])
        assert (first[rows] <= d).all()


class TestEarlyCoverage:
    def test_monotone_in_window(self, tiny_store):
        c2 = early_coverage(tiny_store, 8)
        c24 = early_coverage(tiny_store, 96)
        assert (c24 >= c2).all()

    def test_bounded_by_total_sources(self, tiny_store):
        c = early_coverage(tiny_store, 96)
        total = np.asarray(tiny_store.events["NumSources"])
        assert (c <= total).all()

    def test_brute_force(self, tiny_store):
        window = 12
        c = early_coverage(tiny_store, window)
        rows = tiny_store.mention_event_row()
        d = np.asarray(tiny_store.mentions["Delay"])
        sid = np.asarray(tiny_store.mentions["SourceId"])
        for row in (0, 50, 500):
            sel = (rows == row) & (d <= window)
            assert c[row] == len(np.unique(sid[sel]))

    def test_invalid_window(self, tiny_store):
        with pytest.raises(ValueError):
            early_coverage(tiny_store, 0)


class TestWildfireDetection:
    def test_megas_detected(self, tiny_store, tiny_ds):
        """The planted headline events are the wildfires by construction:
        hundreds of sources react on the day."""
        fires = detect_wildfires(tiny_store, window=96, min_sources=30)
        assert fires
        mega_ids = set(
            int(tiny_ds.events.event_id[r])
            for r in np.flatnonzero(tiny_ds.events.mega_idx >= 0)
        )
        found = {f.global_event_id for f in fires}
        assert len(mega_ids & found) >= 5

    def test_sorted_by_early_coverage(self, tiny_store):
        fires = detect_wildfires(tiny_store, window=96, min_sources=5, limit=20)
        vals = [f.early_sources for f in fires]
        assert vals == sorted(vals, reverse=True)
        assert len(fires) <= 20

    def test_threshold_respected(self, tiny_store):
        fires = detect_wildfires(tiny_store, window=8, min_sources=3)
        assert all(f.early_sources >= 3 for f in fires)

    def test_fields_consistent(self, tiny_store):
        fires = detect_wildfires(tiny_store, window=96, min_sources=5, limit=5)
        for f in fires:
            assert f.early_sources <= f.total_sources
            assert f.first_delay >= 1
            assert f.url is None or f.url.startswith("https://")

    def test_high_threshold_empty(self, tiny_store):
        assert detect_wildfires(tiny_store, window=8, min_sources=10**6) == []
