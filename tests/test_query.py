"""Query builder and the aggregated country query."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    GdeltStore,
    Query,
    SerialExecutor,
    ThreadExecutor,
    aggregated_country_query,
    col,
)
from repro.engine.baseline import row_at_a_time_country_query
from repro.storage import StringDictionary


class TestQueryBuilder:
    def test_count_unfiltered(self, tiny_store):
        assert Query(tiny_store, "mentions").count().value == tiny_store.n_mentions

    def test_count_filtered(self, tiny_store):
        got = Query(tiny_store, "mentions").filter(col("Delay") > 96).count().value
        want = int((np.asarray(tiny_store.mentions["Delay"]) > 96).sum())
        assert got == want

    def test_filters_conjoin(self, tiny_store):
        q = (
            Query(tiny_store, "mentions")
            .filter(col("Delay") > 10)
            .filter(col("Confidence") >= 50)
        )
        d = np.asarray(tiny_store.mentions["Delay"])
        c = np.asarray(tiny_store.mentions["Confidence"])
        assert q.count().value == int(((d > 10) & (c >= 50)).sum())

    def test_sum_and_mean(self, tiny_store):
        q = Query(tiny_store, "mentions").filter(col("Delay") <= 96)
        d = np.asarray(tiny_store.mentions["Delay"])
        sel = d[d <= 96]
        assert q.sum("Delay").value == pytest.approx(sel.sum())
        assert q.mean("Delay").value == pytest.approx(sel.mean())

    def test_mean_of_empty_filter_is_nan(self, tiny_store):
        q = Query(tiny_store, "mentions").filter(col("Delay") > 10**9)
        assert np.isnan(q.mean("Delay").value)

    def test_groupby_count(self, tiny_store):
        keys = tiny_store.mention_quarter().astype(np.int64)
        got = Query(tiny_store, "mentions").group_by("Quarter").count().value
        n = tiny_store.n_quarters()
        assert np.array_equal(got, np.bincount(keys, minlength=n))

    def test_groupby_stats_match_numpy(self, tiny_store):
        keys = np.asarray(tiny_store.mentions["SourceId"]).astype(np.int64)
        stats = (
            Query(tiny_store, "mentions").group_by("SourceId").stats("Delay").value
        )
        d = np.asarray(tiny_store.mentions["Delay"])
        sid = 0
        mine = d[keys == sid]
        if len(mine):
            assert stats["min"][sid] == mine.min()
            assert stats["median"][sid] == pytest.approx(np.median(mine))

    def test_events_table(self, tiny_store):
        q = Query(tiny_store, "events").filter(col("NumArticles") >= 10)
        want = int((np.asarray(tiny_store.events["NumArticles"]) >= 10).sum())
        assert q.count().value == want

    def test_unknown_table(self, tiny_store):
        with pytest.raises(ValueError):
            Query(tiny_store, "gkg")

    def test_mask_concatenation(self, tiny_store):
        q = Query(tiny_store, "mentions").filter(col("Delay") > 96)
        assert q.mask().value.sum() == q.count().value

    def test_thread_executor_equivalent(self, tiny_store):
        q = Query(tiny_store, "mentions").filter(col("Delay") > 96)
        with ThreadExecutor(3) as ex:
            assert q.with_executor(ex).count().value == q.count().value


class TestAggregatedCountryQuery:
    @pytest.fixture(scope="class")
    def result(self, tiny_store):
        return aggregated_country_query(tiny_store)

    @pytest.fixture(scope="class")
    def edge_store(self, tiny_arrays):
        """The tiny corpus with every 7th source stripped of its country
        and every 11th event dropped, so some mentions join no event."""
        events, mentions, dicts = tiny_arrays
        domains = [
            d if i % 7 else f"unattributable-{i}" for i, d in enumerate(dicts["sources"])
        ]
        keep = np.arange(len(events["GlobalEventID"])) % 11 != 0
        return GdeltStore.from_arrays(
            {name: column[keep] for name, column in events.items()},
            mentions,
            {**dicts, "sources": StringDictionary.from_strings(domains)},
        )

    def test_co_events_symmetric(self, result):
        assert np.array_equal(result.co_events, result.co_events.T)

    def test_co_events_diagonal_dominates(self, result):
        e = np.diag(result.co_events)
        assert (result.co_events <= np.minimum(e[:, None], e[None, :])).all()

    def test_jaccard_range_and_symmetry(self, result):
        j = result.jaccard()
        assert (j >= 0).all() and (j <= 1).all()
        assert np.allclose(j, j.T)
        assert (np.diag(j) == 0).all()

    def test_cross_counts_bounded_by_mentions(self, tiny_store, result):
        assert result.cross_counts.sum() <= tiny_store.n_mentions

    def test_publisher_articles_cover_all_attributed(self, tiny_store, result):
        src_c = tiny_store.source_country_idx()
        attributed = int(
            (src_c[np.asarray(tiny_store.mentions["SourceId"])] >= 0).sum()
        )
        assert result.publisher_articles.sum() == attributed

    def test_percentages_columns_le_100(self, result):
        pct = result.percentages()
        assert (pct.sum(axis=0) <= 100.0 + 1e-9).all()

    def test_co_events_equal_brute_force_country_sets(self, tiny_arrays):
        """e_ij counts the events whose publishers span countries i and j:
        events without a geotag count, publishers of unknown country do not."""
        events, mentions, dicts = tiny_arrays
        domains = [  # every 7th source loses its TLD: no country
            d if i % 7 else f"unattributable-{i}" for i, d in enumerate(dicts["sources"])
        ]
        store = GdeltStore.from_arrays(
            events, mentions, {**dicts, "sources": StringDictionary.from_strings(domains)}
        )
        result = aggregated_country_query(store)
        ev_row = store.mention_event_row()
        pub = store.source_country_idx()[np.asarray(store.mentions["SourceId"])]
        assert (store.event_country_idx()[ev_row[ev_row >= 0]] < 0).any()
        assert (pub < 0).any()
        publishers: dict[int, set[int]] = {}
        for row, country in zip(ev_row.tolist(), pub.tolist()):
            if row >= 0 and country >= 0:
                publishers.setdefault(row, set()).add(country)
        n_c = store.n_countries
        want = np.zeros((n_c, n_c), dtype=np.int64)
        for countries in publishers.values():
            for i in countries:
                for j in countries:
                    want[i, j] += 1
        assert result.co_events.dtype == np.int64
        assert np.array_equal(result.co_events, want)

    def test_chunked_equals_single_chunk(self, tiny_store, result):
        small = aggregated_country_query(
            tiny_store, SerialExecutor(), chunk_rows=1000
        )
        assert np.array_equal(small.cross_counts, result.cross_counts)
        assert np.array_equal(small.co_events, result.co_events)
        assert np.array_equal(small.publisher_articles, result.publisher_articles)

    def test_threaded_equals_serial(self, tiny_store, result):
        with ThreadExecutor(4) as ex:
            par = aggregated_country_query(tiny_store, ex, chunk_rows=1500)
        assert np.array_equal(par.cross_counts, result.cross_counts)
        assert np.array_equal(par.co_events, result.co_events)
        assert np.array_equal(par.publisher_articles, result.publisher_articles)

    def test_baseline_engine_identical(self, edge_store):
        """The row-at-a-time baseline must compute the same answer, on a
        store holding untagged events, dangling joins and sources with
        no country."""
        ev_row = edge_store.mention_event_row()
        assert (ev_row < 0).any()
        assert (edge_store.event_country_idx()[ev_row[ev_row >= 0]] < 0).any()
        assert (edge_store.source_country_idx() < 0).any()
        base = row_at_a_time_country_query(edge_store)
        result = aggregated_country_query(edge_store)
        assert np.array_equal(base.cross_counts, result.cross_counts)
        assert np.array_equal(base.co_events, result.co_events)
        assert np.array_equal(base.publisher_articles, result.publisher_articles)

    def test_baseline_limit_rows(self, tiny_store):
        base = row_at_a_time_country_query(tiny_store, limit_rows=100)
        assert base.cross_counts.sum() <= 100


class TestTimeRange:
    """Time-sliced queries exploit the capture-sorted mentions table."""

    def test_equals_predicate_filter(self, tiny_store):
        from repro.gdelt.time_util import quarter_index_range

        lo, hi = quarter_index_range(5)
        sliced = Query(tiny_store, "mentions").time_range(lo, hi).count().value
        scanned = (
            Query(tiny_store, "mentions")
            .filter((col("MentionInterval") >= lo) & (col("MentionInterval") < hi))
            .count()
            .value
        )
        assert sliced == scanned > 0

    def test_composes_with_filters(self, tiny_store):
        from repro.gdelt.time_util import quarter_index_range

        lo, hi = quarter_index_range(8)
        q = Query(tiny_store, "mentions").time_range(lo, hi).filter(col("Delay") > 96)
        d = np.asarray(tiny_store.mentions["Delay"])
        mi = np.asarray(tiny_store.mentions["MentionInterval"])
        want = int(((mi >= lo) & (mi < hi) & (d > 96)).sum())
        assert q.count().value == want

    def test_sum_and_groupby_respect_range(self, tiny_store):
        from repro.gdelt.time_util import quarter_index_range

        lo, hi = quarter_index_range(3)
        q = Query(tiny_store, "mentions").time_range(lo, hi)
        mi = np.asarray(tiny_store.mentions["MentionInterval"])
        sel = (mi >= lo) & (mi < hi)
        assert q.sum("Delay").value == np.asarray(tiny_store.mentions["Delay"])[sel].sum()
        keys = np.asarray(tiny_store.mentions["SourceId"]).astype(np.int64)
        got = q.group_by("SourceId").count().value
        want = np.bincount(keys[sel], minlength=tiny_store.n_sources)
        assert np.array_equal(got, want)

    def test_groupby_stats_respect_range(self, tiny_store):
        from repro.gdelt.time_util import quarter_index_range

        lo, hi = quarter_index_range(3)
        q = Query(tiny_store, "mentions").time_range(lo, hi)
        keys = np.asarray(tiny_store.mentions["SourceId"]).astype(np.int64)
        stats = q.group_by("SourceId").stats("Delay").value
        mi = np.asarray(tiny_store.mentions["MentionInterval"])
        d = np.asarray(tiny_store.mentions["Delay"])
        sel = (mi >= lo) & (mi < hi)
        sid0 = int(keys[sel][0])
        mine = d[sel & (keys == sid0)]
        assert stats["min"][sid0] == mine.min()
        assert stats["median"][sid0] == pytest.approx(np.median(mine))

    def test_nested_ranges_intersect(self, tiny_store):
        q1 = Query(tiny_store, "mentions").time_range(0, 50_000)
        q2 = q1.time_range(40_000, 170_000)
        mi = np.asarray(tiny_store.mentions["MentionInterval"])
        want = int(((mi >= 40_000) & (mi < 50_000)).sum())
        assert q2.count().value == want

    def test_empty_range(self, tiny_store):
        q = Query(tiny_store, "mentions").time_range(10, 10)
        assert q.count().value == 0
        assert np.isnan(q.mean("Delay").value)

    def test_events_table_rejected(self, tiny_store):
        with pytest.raises(ValueError, match="mentions"):
            Query(tiny_store, "events").time_range(0, 10)

    def test_inverted_range_rejected(self, tiny_store):
        with pytest.raises(ValueError, match="inverted"):
            Query(tiny_store, "mentions").time_range(10, 5)

    def test_threaded_equals_serial(self, tiny_store):
        q = Query(tiny_store, "mentions").time_range(0, 80_000).filter(
            col("Confidence") > 50
        )
        with ThreadExecutor(3) as ex:
            assert q.with_executor(ex).count().value == q.count().value


class TestExplain:
    def test_full_table_plan(self, tiny_store):
        plan = Query(tiny_store, "mentions").explain()
        assert "scan mentions" in plan
        assert "full table" in plan
        assert "filter none" in plan
        assert "SerialExecutor" in plan

    def test_restricted_plan_mentions_range(self, tiny_store):
        plan = (
            Query(tiny_store, "mentions")
            .time_range(0, 50_000)
            .filter(col("Delay") > 96)
            .explain()
        )
        assert "sorted-range restriction" in plan
        assert "Delay" in plan

    def test_executor_shown(self, tiny_store):
        with ThreadExecutor(3) as ex:
            plan = Query(tiny_store, "mentions").with_executor(ex).explain()
        assert "ThreadExecutor x3" in plan


class TestConcurrentQueries:
    """The store's documented thread-safety contract: any number of
    threads may run ``store.query(...)`` terminals concurrently (the
    serving layer does exactly this), with results identical to a
    serial run and no derived-index corruption."""

    def test_parallel_terminals_match_serial(self, tiny_ds):
        from repro.ingest.direct import dataset_to_arrays
        import threading

        # A private store so this test exercises first-touch races on
        # the lazily built derived indices, not tiny_store's warm ones.
        events, mentions, dicts = dataset_to_arrays(tiny_ds, include_urls=True)
        store = GdeltStore.from_arrays(events, mentions, dicts)

        def work(i: int):
            q = store.query("mentions")
            if i % 4 == 0:
                return q.count().value
            if i % 4 == 1:
                return q.filter(col("Delay") > 96).count().value
            if i % 4 == 2:
                return q.group_by("SourceCountry").count().value.tobytes()
            return q.filter(col("Confidence") >= 20).sum("Delay").value

        expected = [work(i) for i in range(4)]
        results: dict[int, object] = {}
        errors: list[Exception] = []
        start = threading.Barrier(16)

        def runner(i: int) -> None:
            try:
                start.wait(timeout=10.0)
                results[i] = work(i)
            except Exception as exc:  # noqa: BLE001 - re-raised via errors
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(i,), daemon=True)
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors[:3]
        assert len(results) == 16
        for i, value in results.items():
            assert value == expected[i % 4], f"thread {i} diverged"

    def test_invalidate_races_with_queries(self, tiny_ds):
        from repro.ingest.direct import dataset_to_arrays
        import threading

        events, mentions, dicts = dataset_to_arrays(tiny_ds, include_urls=True)
        store = GdeltStore.from_arrays(events, mentions, dicts)
        expected = store.query("mentions").filter(col("Delay") > 48).count().value
        stop = threading.Event()
        errors: list[Exception] = []

        def invalidator() -> None:
            while not stop.is_set():
                store.invalidate()

        def querier() -> None:
            try:
                for _ in range(50):
                    got = (
                        store.query("mentions")
                        .filter(col("Delay") > 48)
                        .count()
                        .value
                    )
                    assert got == expected
            except Exception as exc:  # noqa: BLE001 - re-raised via errors
                errors.append(exc)

        inv = threading.Thread(target=invalidator, daemon=True)
        workers = [threading.Thread(target=querier, daemon=True) for _ in range(4)]
        inv.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60.0)
        stop.set()
        inv.join(timeout=10.0)
        assert not errors, errors[:3]
