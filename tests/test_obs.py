"""Observability layer: spans, metrics, profiles, overhead guards."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.engine.aggregate import group_count_2d
from repro.engine.executor import SerialExecutor, ThreadExecutor
from repro.engine.query import Query, aggregated_country_query
from repro.obs.metrics import MetricsRegistry, _bucket_index
from repro.obs.profile import ProfileCollector, QueryProfile


@pytest.fixture()
def obs_on():
    """Observability enabled with clean trace/metric state, torn down after."""
    obs.enable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(autouse=True)
def _obs_stays_off():
    """Default state for every test in this module: disabled and clean."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# --- tracing ------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_noop(self):
        assert not obs.enabled()
        before = len(obs.tracer().records())
        with obs.span("nothing", x=1) as sp:
            sp.set(y=2)
        assert len(obs.tracer().records()) == before

    def test_nesting_same_thread(self, obs_on):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        recs = {r.name: r for r in obs.tracer().records()}
        assert recs["inner"].parent_id == recs["outer"].span_id
        assert recs["outer"].parent_id is None
        assert recs["outer"].start_ns <= recs["inner"].start_ns
        assert recs["outer"].end_ns >= recs["inner"].end_ns

    def test_attrs_set_mid_span(self, obs_on):
        with obs.span("op", rows=10) as sp:
            sp.set(chunks=3)
        (rec,) = obs.tracer().records()
        assert rec.attrs == {"rows": 10, "chunks": 3}

    def test_span_nesting_under_thread_executor(self, tiny_store, obs_on):
        with ThreadExecutor(2) as ex:
            result = aggregated_country_query(tiny_store, ex, chunk_rows=2048)
        recs = obs.tracer().records()
        by_id = {r.span_id: r for r in recs}
        names = {r.name for r in recs}
        assert {"query.aggregated_country", "query.scan", "query.aggregate",
                "query.reduce", "executor.map_chunks", "executor.chunk"} <= names

        scan = next(r for r in recs if r.name == "query.scan")
        assert by_id[scan.parent_id].name == "query.aggregated_country"
        map_span = next(r for r in recs if r.name == "executor.map_chunks")
        assert by_id[map_span.parent_id].name == "query.scan"

        # Chunk spans execute on team worker threads but still nest under
        # the map span of the submitting thread.
        chunk_spans = [r for r in recs if r.name == "executor.chunk"]
        assert chunk_spans
        assert all(r.parent_id == map_span.span_id for r in chunk_spans)
        assert any(r.thread_name.startswith("team-") for r in chunk_spans)

        # Phase ordering: scan starts before aggregate, aggregate before
        # reduce.
        agg = next(r for r in recs if r.name == "query.aggregate")
        red = next(r for r in recs if r.name == "query.reduce")
        assert scan.start_ns <= agg.start_ns <= red.start_ns

        # The result carries the matching profile.
        assert result.profile is not None
        assert result.profile.n_chunks == len(chunk_spans)

    def test_chrome_export_shape(self, obs_on):
        with obs.span("a", rows=1):
            pass
        events = obs.tracer().to_chrome()
        assert len(events) == 1
        ev = events[0]
        assert ev["ph"] == "X"
        assert ev["name"] == "a"
        assert ev["dur"] >= 0
        json.dumps(events)  # must be serializable

    def test_json_export_sorted_by_start(self, obs_on):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        out = obs.tracer().to_json()
        assert [d["name"] for d in out] == ["first", "second"]


# --- metrics ------------------------------------------------------------------


class TestHistogramBuckets:
    @pytest.mark.parametrize(
        "value,index",
        [
            (0.0, 0),  # non-positive values collapse into the first bucket
            (-3.0, 0),
            (2.0**-21, 0),
            (2.0**-20, 0),  # exactly the smallest bound
            (0.5, 19),
            (1.0, 20),
            (1.0000001, 21),
            (2.0, 21),
            (3.0, 22),
            (2.0**20, 40),  # exactly the largest finite bound
            (2.0**20 + 1, 41),  # overflow -> +Inf bucket
            (math.inf, 41),
        ],
    )
    def test_bucket_index_edges(self, value, index):
        assert _bucket_index(value) == index

    def test_observe_tracks_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("x")
        for v in (0.5, 0.75, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(4.25)
        nonzero = [(b, c) for b, c in h.bucket_counts() if c]
        assert nonzero == [(0.5, 1), (1.0, 1), (4.0, 1)]

    def test_conflicting_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)


class TestPrometheusExposition:
    def test_golden_text(self):
        reg = MetricsRegistry()
        reg.counter("rows_scanned_total", executor="SerialExecutor").inc(5)
        reg.gauge("workers").set(3)
        h = reg.histogram("chunk_seconds")
        for v in (0.5, 0.75, 3.0):
            h.observe(v)
        expected = (
            "# HELP repro_chunk_seconds chunk seconds\n"
            "# TYPE repro_chunk_seconds histogram\n"
            'repro_chunk_seconds_bucket{le="0.5"} 1\n'
            'repro_chunk_seconds_bucket{le="1"} 2\n'
            'repro_chunk_seconds_bucket{le="4"} 3\n'
            'repro_chunk_seconds_bucket{le="+Inf"} 3\n'
            "repro_chunk_seconds_sum 4.25\n"
            "repro_chunk_seconds_count 3\n"
            "# HELP repro_rows_scanned_total rows scanned total\n"
            "# TYPE repro_rows_scanned_total counter\n"
            'repro_rows_scanned_total{executor="SerialExecutor"} 5\n'
            "# HELP repro_workers workers\n"
            "# TYPE repro_workers gauge\n"
            "repro_workers 3\n"
        )
        assert reg.to_prometheus() == expected

    def test_registered_help_text(self):
        reg = MetricsRegistry()
        reg.describe("x_total", "things processed\nsecond line \\ slash")
        reg.counter("x_total").inc()
        text = reg.to_prometheus()
        assert (
            "# HELP repro_x_total things processed\\nsecond line \\\\ slash\n"
            in text
        )

    def test_label_value_escaping(self):
        """Backslash, double-quote, and newline must be escaped per the
        Prometheus text exposition format."""
        reg = MetricsRegistry()
        reg.counter("c", path='C:\\data\n"prod"').inc(1)
        line = [
            ln for ln in reg.to_prometheus().splitlines() if ln.startswith("repro_c")
        ][0]
        assert line == 'repro_c{path="C:\\\\data\\n\\"prod\\""} 1'

    def test_escaped_labels_survive_histograms_too(self):
        reg = MetricsRegistry()
        reg.histogram("h", tag='a"b').observe(1.0)
        text = reg.to_prometheus()
        assert 'tag="a\\"b"' in text
        assert 'le="1"' in text

    def test_thread_safety_under_concurrent_inc_and_dump(self):
        """8 threads hammering counter().inc() while others render
        to_prometheus(): no exceptions, no lost increments, and every
        rendered dump parses (series lines well-formed)."""
        import threading as _threading

        reg = MetricsRegistry()
        n_threads, n_iters = 8, 500
        dumps: list[str] = []
        errors: list[BaseException] = []
        start = _threading.Barrier(n_threads)

        def worker(tid: int) -> None:
            try:
                start.wait()
                for i in range(n_iters):
                    reg.counter("hammer_total", shard=str(tid % 4)).inc()
                    reg.histogram("hammer_seconds").observe(0.001 * (i % 7))
                    if tid % 2 and i % 50 == 0:
                        dumps.append(reg.to_prometheus())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            _threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(
            m.value for m in reg.series() if m.name == "hammer_total"
        )
        assert total == n_threads * n_iters
        h = reg.histogram("hammer_seconds")
        assert h.count == n_threads * n_iters
        assert dumps and all("repro_hammer_total" in d for d in dumps)

    def test_json_dump_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc(2)
        reg.histogram("h").observe(1.0)
        doc = json.loads(reg.to_json())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["c"]["value"] == 2
        assert by_name["c"]["labels"] == {"k": "v"}
        assert by_name["h"]["count"] == 1


# --- profiles -----------------------------------------------------------------


class TestQueryProfile:
    def _profile(self) -> QueryProfile:
        c = ProfileCollector()
        # Two workers: w0 busy 0.2s over two chunks, w1 busy 0.1s.
        c.add(0, 100, 0.0, 0.1, "w0")
        c.add(100, 200, 0.1, 0.2, "w0")
        c.add(200, 300, 0.0, 0.1, "w1")
        return c.finish(
            "q", n_rows=300, n_workers=2, wall_seconds=0.2, bytes_scanned=3_000
        )

    def test_derived_measurements(self):
        p = self._profile()
        assert p.n_chunks == 3
        assert p.busy_seconds() == pytest.approx(0.3)
        assert p.utilization() == pytest.approx(0.3 / (0.2 * 2))
        assert p.imbalance() == pytest.approx(0.2 / 0.15)
        assert p.rows_per_second() == pytest.approx(1500)
        assert p.scan_gbs() == pytest.approx(3_000 / 0.2 / 1e9)

    def test_dict_export(self):
        d = self._profile().to_dict()
        assert d["workers"] == {"w0": pytest.approx(0.2), "w1": pytest.approx(0.1)}
        assert len(d["chunks"]) == 3
        json.dumps(d)

    def test_collector_records_team_workers(self):
        data = np.arange(60_000, dtype=np.int64)

        def kernel(sl: slice) -> int:
            return int(data[sl].sum())

        collector = ProfileCollector()
        with ThreadExecutor(2) as ex:
            parts = ex.map_chunks(kernel, len(data), 20_000, profile=collector)
        assert sum(parts) == int(data.sum())
        timings = collector.timings()
        assert len(timings) == 3
        assert all(t.worker.startswith("team-") for t in timings)
        assert all(t.seconds >= 0 for t in timings)

    def test_query_last_profile(self, tiny_store, obs_on):
        from repro.engine.expr import col

        q = Query(tiny_store, "mentions").filter(col("Delay") >= 0)
        assert q.last_profile is None
        q.count()
        assert q.last_profile is not None
        assert q.last_profile.n_rows == q.n_rows

    def test_result_profile_disabled_is_none(self, tiny_store):
        result = aggregated_country_query(tiny_store)
        assert result.profile is None

    def test_forced_profile_without_obs(self, tiny_store):
        result = aggregated_country_query(tiny_store, profile=True)
        assert result.profile is not None
        assert result.profile.n_rows == tiny_store.n_mentions
        # Forcing a profile must not record spans or metrics.
        assert obs.tracer().records() == []
        assert obs.registry().n_series() == 0


# --- end-to-end metrics flow --------------------------------------------------


class TestInstrumentationFlow:
    def test_aggregated_query_populates_registry(self, tiny_store, obs_on):
        aggregated_country_query(tiny_store, chunk_rows=4096)
        names = {m.name for m in obs.registry().series()}
        assert {
            "rows_scanned_total",
            "executor_chunks_total",
            "executor_map_calls_total",
            "chunk_seconds",
            "worker_busy_seconds_total",
            "queries_total",
            "query_seconds",
            "aggregate_rows_total",
        } <= names

    def test_rows_scanned_matches_table(self, tiny_store, obs_on):
        aggregated_country_query(tiny_store)
        c = obs.counter("rows_scanned_total", executor="SerialExecutor")
        assert c.value == tiny_store.n_mentions

    def test_thread_team_busy_accounting(self, obs_on):
        busy = obs.counter("worker_busy_seconds_total", executor="ThreadExecutor")
        before = busy.value
        with ThreadExecutor(2) as ex:
            ex.map_slices(
                lambda _: time.sleep(0.01), [slice(i, i + 1) for i in range(4)]
            )
        assert busy.value - before >= 0.03  # 4 sleeps of 10ms over 2 workers

    def test_group_count_2d_counts_rows(self, obs_on):
        group_count_2d(
            np.array([0, 1, -1]), np.array([1, 0, 0]), (2, 2)
        )
        assert obs.counter("aggregate_rows_total", kernel="group_count_2d").value == 3


# --- overhead guard -----------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bare_country_query(store, executor, chunk_rows):
    """The aggregated country query exactly as the un-instrumented seed
    ran it: same kernel math, dispatched straight to ``_run`` with no
    wrapping, spans, or metrics."""
    n_c = store.n_countries
    src_country = store.source_country_idx()
    ev_country = store.event_country_idx()
    ev_row = store.mention_event_row()
    source_id = store.mentions["SourceId"]
    n_events = store.n_events

    def kernel(sl):
        rows = ev_row[sl]
        pub = src_country[source_id[sl]].astype(np.int64)
        evc = np.where(rows >= 0, ev_country[np.clip(rows, 0, None)], -1).astype(
            np.int64
        )
        counts = group_count_2d(np.where(evc >= 0, evc, n_c), pub, (n_c + 1, n_c))
        ok = (rows >= 0) & (pub >= 0)
        pairs = np.unique(rows[ok] * np.int64(n_c) + pub[ok])
        return counts, pairs

    chunks = executor._plan(store.n_mentions, chunk_rows)
    partials = executor._run(kernel, chunks)
    cross = np.zeros((n_c + 1, n_c), dtype=np.int64)
    pair_parts = []
    for counts, pairs in partials:
        cross += counts
        pair_parts.append(pairs)
    all_pairs = (
        np.unique(np.concatenate(pair_parts))
        if pair_parts
        else np.empty(0, dtype=np.int64)
    )
    incidence = np.zeros((n_events, n_c), dtype=np.float32)
    incidence[all_pairs // n_c, all_pairs % n_c] = 1.0
    co_events = np.rint(incidence.T @ incidence).astype(np.int64)
    publisher_articles = cross.sum(axis=0)
    return cross[:n_c], co_events, publisher_articles


class TestDisabledOverhead:
    def test_disabled_query_within_5_percent_of_bare(self, tiny_store):
        """The acceptance bar: with observability off, the instrumented
        aggregated country query stays within 5% of the un-instrumented
        seed implementation (replicated above)."""
        assert not obs.enabled()
        ex = SerialExecutor()
        chunk_rows = 2048
        # Warm derived-column caches and code paths before timing.
        _bare_country_query(tiny_store, ex, chunk_rows)
        aggregated_country_query(tiny_store, ex, chunk_rows)

        t_bare = _best_of(lambda: _bare_country_query(tiny_store, ex, chunk_rows), 7)
        t_inst = _best_of(
            lambda: aggregated_country_query(tiny_store, ex, chunk_rows), 7
        )
        # 5% relative plus a tiny absolute epsilon for timer noise on a
        # millisecond-scale run.
        assert t_inst <= t_bare * 1.05 + 5e-4, (
            f"instrumented {t_inst * 1e3:.2f} ms vs bare {t_bare * 1e3:.2f} ms"
        )

    def test_disabled_map_chunks_near_direct_run(self):
        data = np.random.default_rng(0).integers(0, 100, 400_000)

        def kernel(sl: slice):
            return np.bincount(data[sl], minlength=100)

        assert not obs.enabled()
        ex = SerialExecutor()
        chunks = ex._plan(len(data), 25_000)
        ex._run(kernel, chunks)  # warm

        t_direct = _best_of(lambda: ex._run(kernel, chunks), 15)
        t_mapped = _best_of(lambda: ex.map_chunks(kernel, len(data), 25_000), 15)
        assert t_mapped <= t_direct * 1.05 + 2e-4, (
            f"map_chunks {t_mapped * 1e3:.3f} ms vs direct {t_direct * 1e3:.3f} ms"
        )
