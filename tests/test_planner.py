"""Query planner: zone-map pruning, plan shape, and the result cache.

The soundness tests are the load-bearing ones: for randomized columns
(including NaNs) and every predicate node type, a chunk the planner
prunes must contain no matching row, and a chunk it marks mask-free
must contain only matching rows.  Everything else — plan accounting,
cache byte-identity, refusing manifests without zone maps, explain
output — builds on that guarantee.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import (
    GdeltStore,
    GroupedQuery,
    Plan,
    Query,
    QueryCache,
    QueryResult,
    SerialExecutor,
    ThreadExecutor,
    col,
    const,
    fuse_plans,
    plan_query,
    result_cache,
)
from repro.engine.planner import CACHE_BUDGET_BYTES, ENTRY_OVERHEAD_BYTES
from repro.gdelt.time_util import quarter_index_range
from repro.ingest.direct import dataset_to_binary
from repro.storage.format import FORMAT_VERSION, StorageError, manifest_path
from repro.storage.stats import ZoneMaps, compute_zone_maps


CHUNK = 256


class _Stats:
    """Adapter exposing full zone maps the way the planner's view does."""

    def __init__(self, zm: ZoneMaps) -> None:
        self.zm = zm

    def min(self, name):
        return self.zm.mins.get(name)

    def max(self, name):
        return self.zm.maxs.get(name)

    def nulls(self, name):
        return self.zm.nulls.get(name)


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(7)
    n = 10_000
    b = rng.normal(50.0, 20.0, n)
    b[rng.random(n) < 0.05] = np.nan
    b[1024:1536] = np.nan  # two entirely-null chunks
    return {
        "a": np.sort(rng.integers(0, 500, n)).astype(np.int32),
        "b": b,
        "c": rng.integers(0, 8, n).astype(np.int16),
    }


@pytest.fixture(scope="module")
def zm(columns):
    return compute_zone_maps(columns, CHUNK)


PREDICATES = [
    col("a") > 250,
    col("a") >= 250,
    col("a") < 100,
    col("a") <= 100,
    col("a") == 42,
    col("a") != 42,
    const(250) > col("a"),  # flipped comparison
    col("b") > 60.0,
    col("b") <= 30.0,
    col("b") != 50.0,  # NaN rows must not be "proven" matches
    col("c").isin([2, 5]),
    col("c").isin([]),
    (col("a") > 200) & (col("a") < 260),
    (col("a") < 50) | (col("a") > 450),
    ~(col("a") > 250),
    ((col("a") > 100) & (col("c").isin([1, 2, 3]))) | (col("b") > 90.0),
]


class TestPruneSoundness:
    @pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: repr(p))
    def test_may_and_all_are_conservative(self, pred, columns, zm):
        n = len(columns["a"])
        with np.errstate(invalid="ignore"):
            mask = pred._eval(columns, slice(0, n))
        result = pred.prune_chunks(_Stats(zm))
        assert result is not None, "analysable predicate returned None"
        may, all_ = result
        assert may.shape == all_.shape == (zm.n_chunks,)
        for i in range(zm.n_chunks):
            part = mask[zm.chunk_slice(i)]
            if not may[i]:  # pruned -> provably no match
                assert not part.any(), f"chunk {i} pruned but has matches"
            if all_[i]:  # mask-free -> provably all match
                assert part.all(), f"chunk {i} mask-free but has misses"

    def test_pruning_actually_engages(self, columns, zm):
        may, _ = (col("a") > 450).prune_chunks(_Stats(zm))
        assert 0 < np.count_nonzero(may) < zm.n_chunks

    def test_all_null_chunks_prune_for_ranges(self, columns, zm):
        may, _ = (col("b") > -1e9).prune_chunks(_Stats(zm))
        assert not may[4] and not may[5]  # rows 1024:1536 are all-NaN

    def test_unknown_column_degrades_to_none(self, zm):
        assert (col("nope") > 1).prune_chunks(_Stats(zm)) is None

    def test_column_vs_column_degrades_to_none(self, zm):
        assert (col("a") > col("c")).prune_chunks(_Stats(zm)) is None

    def test_and_with_unanalysable_side_still_prunes(self, columns, zm):
        pred = (col("a") > 450) & (col("nope") > 1)
        result = pred.prune_chunks(_Stats(zm))
        assert result is not None
        may, all_ = result
        ref_may, _ = (col("a") > 450).prune_chunks(_Stats(zm))
        assert np.array_equal(may, ref_may)
        assert not all_.any()  # the unknown side can never be proven

    def test_or_with_unanalysable_side_keeps_everything(self, zm):
        result = ((col("a") > 450) | (col("nope") > 1)).prune_chunks(_Stats(zm))
        assert result is not None
        may, all_ = result
        assert may.all()  # any chunk might match via the unknown side
        # all_ may still hold where the known side alone proves all rows.
        ref_may, ref_all = (col("a") > 450).prune_chunks(_Stats(zm))
        assert np.array_equal(all_, ref_all)


@pytest.fixture(scope="module")
def zstore(tiny_zstore):
    """The shared fine-chunked store (session fixture in conftest)."""
    return tiny_zstore


@pytest.fixture()
def _fresh_cache():
    result_cache().invalidate()
    yield
    result_cache().invalidate()


def _interval_pred():
    lo, hi = quarter_index_range(10)
    return (col("MentionInterval") >= lo) & (col("MentionInterval") < hi)


class TestPlannedQueries:
    def test_pruned_equals_unpruned(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(_interval_pred())
        res = q.count()
        base = q.with_pruning(False).count()
        assert res.value == base.value > 0
        assert res.plan.pruning == "zone-map"
        assert res.plan.n_chunks_pruned > 0
        assert res.plan.rows_planned < res.plan.rows_total
        assert base.plan.pruning == "unavailable"

    def test_mask_reassembles_pruned_chunks(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(_interval_pred())
        pruned = q.mask().value
        full = q.with_pruning(False).mask().value
        assert pruned.shape == (zstore.n_mentions,)
        assert np.array_equal(pruned, full)

    def test_sum_mean_match_numpy(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(col("Delay") > 96)
        delay = zstore.mentions["Delay"]
        m = delay > 96
        assert q.sum("Delay").value == pytest.approx(delay[m].sum())
        assert q.mean("Delay").value == pytest.approx(delay[m].mean())

    def test_unfiltered_plan(self, zstore, _fresh_cache):
        res = zstore.query("mentions").count()
        assert res.value == zstore.n_mentions
        assert res.plan.pruning == "unfiltered"

    def test_time_range_clips_chunk_window(self, zstore, _fresh_cache):
        lo, hi = quarter_index_range(10)
        q = zstore.query("mentions").time_range(lo, hi).filter(col("Delay") > 96)
        iv = zstore.mentions["MentionInterval"]
        expect = int(((iv >= lo) & (iv < hi) & (zstore.mentions["Delay"] > 96)).sum())
        assert q.count().value == expect

    def test_threaded_executor_agrees(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(_interval_pred())
        t = q.with_executor(ThreadExecutor(3)).count()
        assert t.value == q.count().value


class TestGroupedQueries:
    def test_group_by_count_matches_bincount(self, zstore, _fresh_cache):
        res = zstore.query("mentions").group_by("Quarter").count()
        assert isinstance(res, QueryResult)
        expect = np.bincount(
            zstore.mention_quarter(), minlength=zstore.n_quarters()
        )
        assert np.array_equal(res.value, expect)

    def test_group_by_sum_filtered(self, zstore, _fresh_cache):
        res = (
            zstore.query("mentions")
            .filter(col("Delay") > 96)
            .group_by("Quarter")
            .sum("Delay")
        )
        m = zstore.mentions["Delay"] > 96
        expect = np.bincount(
            zstore.mention_quarter()[m],
            weights=zstore.mentions["Delay"][m].astype(np.float64),
            minlength=zstore.n_quarters(),
        )
        assert np.allclose(res.value, expect)

    def test_group_by_name_aliases(self, zstore, _fresh_cache):
        a = zstore.query("mentions").group_by("Quarter").count()
        b = zstore.query("mentions").group_by("MentionQuarter").count()
        assert np.array_equal(a.value, b.value)

    def test_group_by_unknown_key(self, zstore):
        with pytest.raises(KeyError, match="Quarter"):
            zstore.query("mentions").group_by("NoSuchKey")

    def test_grouped_query_type(self, zstore):
        gq = zstore.query("mentions").group_by("Quarter")
        assert isinstance(gq, GroupedQuery)

    def test_grouped_stats_match_brute(self, zstore, _fresh_cache):
        res = zstore.query("mentions").group_by("Quarter").stats("Delay")
        stats = res.value
        keys = zstore.mention_quarter()
        delay = zstore.mentions["Delay"]
        g = keys == 10
        assert stats["max"][10] == delay[g].max()
        assert stats["min"][10] == delay[g].min()
        assert stats["mean"][10] == pytest.approx(delay[g].mean())


class TestResultCache:
    def test_repeat_query_hits_byte_identical(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(_interval_pred()).group_by("Quarter")
        first = q.count()
        assert first.plan.cache_status == "miss"
        second = q.count()
        assert second.plan.cache_status == "hit"
        assert result_cache().hits > 0
        assert first.value.tobytes() == second.value.tobytes()

    def test_cached_value_is_a_copy(self, zstore, _fresh_cache):
        q = zstore.query("mentions").group_by("Quarter")
        first = q.count()
        first.value[:] = -1
        assert q.count().value.min() >= 0

    def test_store_invalidate_orphans_entries(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(col("Delay") > 96)
        q.count()
        assert q.count().plan.cache_status == "hit"
        zstore.invalidate()
        assert q.count().plan.cache_status == "miss"

    def test_distinct_terminals_do_not_collide(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(col("Delay") > 96)
        a = q.sum("Delay")
        b = q.sum("Confidence")
        assert a.value != b.value
        assert b.plan.cache_status == "miss"

    def test_unpruned_bypasses_result_cache(self, zstore, _fresh_cache):
        """The unpruned baseline executes: it neither reads the pruned
        run's entry nor fills one of its own."""
        q = zstore.query("mentions").filter(_interval_pred())
        assert q.count().plan.cache_status == "miss"
        base = q.with_pruning(False).count()
        assert base.plan.cache_status == "off"
        assert base.plan.pruning == "unavailable"
        assert base.plan.cache_key is None
        assert q.with_pruning(False).count().plan.cache_status == "off"

    def test_uncacheable_sig_stays_off(self, zstore, _fresh_cache):
        # A plan built without a terminal signature (sig=None) carries no
        # cache key — the path view delta passes and other internal scans
        # use to stay out of the result cache.
        from repro.engine.executor import SerialExecutor
        from repro.engine.planner import plan_query

        plan = plan_query(
            zstore, "mentions", None, slice(0, zstore.n_rows("mentions")),
            "count", SerialExecutor(), sig=None,
        )
        assert plan.cache_key is None
        assert plan.cache_status == "off"

    def test_lru_eviction(self):
        cache = QueryCache(budget_bytes=2 * ENTRY_OVERHEAD_BYTES)  # two scalars
        cache.put(("s", 1), 1)
        cache.put(("s", 2), 2)
        assert cache.get(("s", 1)) == (1, None)  # refresh 1 -> 2 becomes LRU
        cache.put(("s", 3), 3)
        assert cache.get(("s", 2)) is None
        assert cache.get(("s", 1)) == (1, None)
        assert cache.evictions == 1

    def test_pin_survives_capacity_plus_one_puts(self):
        cache = QueryCache(budget_bytes=2 * ENTRY_OVERHEAD_BYTES)  # two scalars
        cache.pin((("tok", 0), "view"), 7, "v")
        for i in range(2 + 1):
            cache.put((("tok", 0), i), i)
        assert cache.get((("tok", 0), "view")) == (7, "v")
        assert cache.stats()["pinned"] == 1
        assert len(cache) == cache.stats()["size"] == 2
        cache.discard((("tok", 0), "view"))
        assert cache.get((("tok", 0), "view")) is None

    def test_shared_pin_lives_while_any_holder_does(self):
        """A pin counts its holders: racing pin/discard pairs on one key
        never drop it while a holder remains, and the last discard does."""
        import sys
        import threading

        cache = QueryCache()
        key = (("tok", 0), "shared")
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def hold(seed: int) -> None:
            try:
                start.wait(timeout=10.0)
                for _ in range(1_000):
                    cache.pin(key, 1, "v")
                    assert cache.get(key) == (1, "v")
                    cache.discard(key)
            except Exception as exc:  # noqa: BLE001 - re-raised via errors
                errors.append(exc)

        threads = [
            threading.Thread(target=hold, args=(s,), daemon=True) for s in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert cache.get(key) is None and cache.stats()["pinned"] == 0

    def test_invalidation_drops_pins(self):
        cache = QueryCache()
        cache.pin((("tokA", 0), "x"), 1, "a")
        cache.pin((("tokB", 0), "y"), 2, "b")
        assert cache.invalidate("tokA") == 1
        assert cache.get((("tokA", 0), "x")) is None
        assert cache.get((("tokB", 0), "y")) == (2, "b")
        assert cache.invalidate() == 1
        assert cache.stats()["pinned"] == 0

    def test_token_scoped_invalidation(self):
        cache = QueryCache()
        cache.put((("tokA", 0), "x"), 1)
        cache.put((("tokB", 0), "y"), 2)
        assert cache.invalidate("tokA") == 1
        assert cache.get((("tokB", 0), "y")) == (2, None)

    def test_concurrent_hammering_is_safe(self):
        """Regression: the process-wide LRU is shared by every serving
        worker; unsynchronized gets/puts/evictions used to corrupt the
        OrderedDict under free-threaded access.  Pins and discards race
        the LRU too."""
        import sys
        import threading

        cache = QueryCache(budget_bytes=32 * ENTRY_OVERHEAD_BYTES)  # 32 scalars
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def hammer(seed: int) -> None:
            try:
                start.wait(timeout=10.0)
                for i in range(2_000):
                    key = ("k", (seed * 7 + i) % 64)
                    hit = cache.get(key)
                    if hit is not None:
                        assert hit == (key[1], None)
                    cache.put(key, key[1])
                    pinned = (("p", 0), seed)
                    cache.pin(pinned, seed, "v")
                    assert cache.get(pinned) in (None, (seed, "v"))
                    if i % 3 == 0:
                        cache.discard(pinned)
                    if i % 500 == seed % 500:
                        cache.invalidate()
            except Exception as exc:  # noqa: BLE001 - re-raised via errors
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(s,), daemon=True)
            for s in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        stats = cache.stats()
        assert stats["size"] <= 32 and stats["pinned"] <= 8
        assert stats["bytes"] == stats["size"] * ENTRY_OVERHEAD_BYTES
        assert stats["hits"] + stats["misses"] == 8 * 2_000 * 2

    @staticmethod
    def _stats_partial(n_pairs: int, seed: int) -> dict:
        """A ``group_by(...).stats(col)`` wire partial: every passing
        (key, value) pair, 16 B a pair."""
        rng = np.random.default_rng(seed)
        return {
            "keys": rng.integers(0, 6_000, n_pairs, dtype=np.int64),
            "values": rng.integers(0, 10_000, n_pairs, dtype=np.int64),
            "dtype": "int64",
        }

    def test_wide_partials_stay_within_the_byte_budget(self):
        """Regression: 128 distinct ``stats`` partials used to be held
        whole, ~2 MB each, however many bytes that came to."""
        cache = QueryCache()
        for i in range(128):
            cache.put((("tok", 0), "wide", i), self._stats_partial(1 << 17, i))
            assert cache.stats()["bytes"] <= CACHE_BUDGET_BYTES
        assert len(cache) == 0  # each is larger than the whole budget
        small = 1 << 12  # 64 KiB partials: the LRU evicts to fit
        for i in range(128):
            cache.put((("tok", 0), "narrow", i), self._stats_partial(small, i))
            assert cache.stats()["bytes"] <= CACHE_BUDGET_BYTES
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert stats["bytes"] == stats["size"] * (16 * small + ENTRY_OVERHEAD_BYTES)
        hit, _ = cache.get((("tok", 0), "narrow", 127))
        np.testing.assert_array_equal(hit["keys"], self._stats_partial(small, 127)["keys"])
        assert cache.get((("tok", 0), "narrow", 0)) is None

    def test_over_budget_answer_is_returned_not_cached(
        self, zstore, monkeypatch
    ):
        from repro.engine import planner

        q = zstore.query("mentions").group_by("Source")
        want = (
            zstore.query("mentions").with_pruning(False).group_by("Source")
            .stats("Delay").value
        )
        tight = QueryCache(budget_bytes=4 * ENTRY_OVERHEAD_BYTES)
        monkeypatch.setattr(planner, "_CACHE", tight)
        for _ in range(2):
            res = q.stats("Delay")
            assert res.plan.cache_status == "miss"
            assert want.keys() == res.value.keys()
            for name in want:
                np.testing.assert_array_equal(res.value[name], want[name])
        assert tight.stats()["size"] == tight.stats()["bytes"] == 0
        small = zstore.query("mentions").filter(col("Delay") > 96)
        assert small.count().plan.cache_status == "miss"  # a scalar is kept
        assert small.count().plan.cache_status == "hit"
        assert 0 < tight.stats()["bytes"] <= tight.budget_bytes

    def test_invalidate_and_discard_return_their_bytes(self):
        cache = QueryCache()
        cache.put((("tokA", 0), "x"), np.arange(1_000))
        cache.put((("tokB", 0), "y"), {"a": np.zeros(10), "b": (np.ones(3), 2)})
        assert cache.stats()["bytes"] == 8_000 + 104 + 2 * ENTRY_OVERHEAD_BYTES
        cache.pin((("tokB", 0), "z"), np.arange(50), "v")  # outside the budget
        assert cache.stats()["bytes"] == 8_000 + 104 + 2 * ENTRY_OVERHEAD_BYTES
        cache.discard((("tokA", 0), "x"))
        assert cache.stats()["bytes"] == 104 + ENTRY_OVERHEAD_BYTES
        assert cache.invalidate("tokB") == 2
        assert cache.stats()["bytes"] == 0
        cache.put((("tokA", 0), "x"), np.arange(1_000))
        assert cache.invalidate() == 1
        assert cache.stats()["bytes"] == 0


def _fixture_plans(zstore):
    """``(workers, plan)`` for every pruning shape over the fine-chunked
    store, planned for one and for three workers."""
    n = zstore.n_rows("mentions")
    lo, hi = quarter_index_range(10)
    shapes = [
        (None, slice(0, n), True),
        (_interval_pred(), slice(0, n), True),
        (_interval_pred(), slice(0, n), False),
        (col("Delay") > 96, slice(0, n), True),
        (col("Delay") > 96, zstore.interval_rows(lo, hi), True),
        (col("MentionInterval") < 0, slice(0, n), True),  # everything pruned
    ]
    for ex in (SerialExecutor(), ThreadExecutor(3)):
        with ex:
            for where, rows, prune in shapes:
                yield ex.n_workers, plan_query(
                    zstore, "mentions", where, rows, "count", ex, prune=prune
                )


class TestFusion:
    def test_batch_of_one_is_its_own_plan(self, zstore):
        """``fuse_plans([p])`` skips the boundary sweep; its units equal
        the sweep's (forced by fusing ``p`` with an empty plan)."""
        seen_pruned = False
        for workers, p in _fixture_plans(zstore):
            empty = Plan(table=p.table, rows=slice(0, 0), op=p.op,
                         where_canonical=None, units=[])
            fast = fuse_plans([p], workers)
            swept = fuse_plans([p, empty], workers)
            assert [(u.rows, u.members) for u in fast] == [
                (u.rows, u.members) for u in swept
            ]
            assert [u.rows for u in fast] == [u.rows for u in p.units]
            seen_pruned |= p.n_chunks_pruned > 0
        assert seen_pruned


class TestExplain:
    def test_explain_reports_pruning_and_cache(self, zstore, _fresh_cache):
        text = zstore.query("mentions").filter(_interval_pred()).explain()
        assert "zone-map pruning:" in text
        assert "chunks pruned" in text
        assert "rows scanned" in text
        assert "result cache:" in text

    def test_explain_is_not_cached_as_a_result(self, zstore, _fresh_cache):
        q = zstore.query("mentions").filter(col("Delay") > 96)
        q.explain()
        assert q.count().plan.cache_status == "miss"


class TestQuerySurface:
    def test_store_query_returns_results(self, zstore, _fresh_cache):
        res = zstore.query("mentions").count()
        assert isinstance(res, QueryResult)
        assert res.plan.op == "count"
        assert res.profile is None  # profiles only with observability on

    def test_profile_with_observability(self, zstore, _fresh_cache):
        import repro.obs as obs

        obs.enable()
        try:
            res = zstore.query("mentions").filter(col("Delay") > 96).count()
            assert res.profile is not None
            assert res.profile.n_rows == zstore.n_mentions
        finally:
            obs.disable()

    def test_direct_query_returns_results_too(self, zstore, _fresh_cache):
        res = Query(zstore, "mentions").count()
        assert isinstance(res, QueryResult)
        assert res.value == zstore.n_mentions

    def test_unknown_table_rejected(self, zstore):
        with pytest.raises(ValueError, match="mentions"):
            zstore.query("nope")

    def test_n_rows(self, zstore):
        assert zstore.n_rows("mentions") == zstore.n_mentions
        assert zstore.n_rows("events") == zstore.n_events


class TestManifestZoneMaps:
    @pytest.mark.parametrize("version", [3, FORMAT_VERSION], ids=["v3", "v4-null"])
    def test_manifest_without_zone_maps_is_refused(self, tmp_path, tiny_ds, version):
        """A v3 manifest (tables carry no zone maps) and a current one
        whose zone maps are null are both malformed: the store refuses
        them and writes nothing into the dataset directory."""
        db = tmp_path / "db"
        dataset_to_binary(tiny_ds, db)
        mpath = manifest_path(db)
        raw = json.loads(mpath.read_text(encoding="utf-8"))
        raw["version"] = version
        for t in raw["tables"]:
            if version == FORMAT_VERSION:
                t["zone_maps"] = None
            else:
                del t["zone_maps"]
        mpath.write_text(json.dumps(raw), encoding="utf-8")
        before = mpath.read_bytes()
        files = sorted(db.rglob("*"))

        with pytest.raises(StorageError):
            store = GdeltStore.open(db)
            store.query("mentions").filter(_interval_pred()).count()
        assert mpath.read_bytes() == before
        assert sorted(db.rglob("*")) == files

    def test_v4_roundtrip_prunes_from_disk(self, tmp_path, tiny_ds):
        db = tmp_path / "db"
        dataset_to_binary(tiny_ds, db, zone_chunk_rows=512)
        store = GdeltStore.open(db)
        res = store.query("mentions").filter(_interval_pred()).count()
        assert res.plan.pruning == "zone-map"
        assert res.plan.n_chunks_pruned > 0
        iv = store.mentions["MentionInterval"]
        lo, hi = quarter_index_range(10)
        assert res.value == int(((iv >= lo) & (iv < hi)).sum())
