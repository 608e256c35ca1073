"""GdeltStore: derived columns, the event join, navigation."""

from __future__ import annotations

import gc
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.engine import GdeltStore, col
from repro.gdelt.codes import COUNTRIES, source_country
from repro.gdelt.time_util import intervals_to_quarters
from repro.qa.reference import reference_value
from repro.serve.protocol import store_meta
from repro.storage.columns import StringDictionary
from repro.storage.format import StorageError
from repro.storage.gdelt import write_gdelt_dataset
from repro.storage.reader import DatasetReader
from tests.conftest import flat_store, traced_peak


def _store(arrays, events=slice(None), mentions=slice(None)):
    """A fresh array-backed store over row slices of ``(events,
    mentions, dicts)`` — its own derived-column cache, nothing shared,
    and no URL dictionaries parked in that cache."""
    ev, mt, dicts = arrays
    return GdeltStore.from_arrays(
        {k: v[events] for k, v in ev.items()},
        {k: v[mentions] for k, v in mt.items()},
        {k: dicts[k] for k in ("countries", "sources")},
    )


def _aliases(store):
    return [(t, a) for t, reg in store._GROUP_KEYS.items() for a in reg]


class TestDerivedColumns:
    def test_source_country_matches_tld_rule(self, tiny_store):
        idx = tiny_store.source_country_idx()
        pos = {c.fips: i for i, c in enumerate(COUNTRIES)}
        for sid in range(0, tiny_store.n_sources, 37):
            fips = source_country(tiny_store.sources[sid])
            want = pos[fips] if fips else -1
            assert idx[sid] == want

    def test_source_country_cached(self, tiny_store):
        assert tiny_store.source_country_idx() is tiny_store.source_country_idx()

    def test_event_country_roundtrip(self, tiny_store):
        """Dictionary code -> roster index -> FIPS must match the stored code."""
        roster = tiny_store.event_country_idx()
        codes = tiny_store.events["CountryCode"]
        for row in range(0, tiny_store.n_events, 503):
            fips = tiny_store.countries[int(codes[row])]
            if fips == "":
                assert roster[row] == -1
            else:
                assert COUNTRIES[int(roster[row])].fips == fips

    def test_mention_event_row_correct(self, tiny_store):
        rows = tiny_store.mention_event_row()
        eids = tiny_store.events["GlobalEventID"]
        m = tiny_store.mentions["GlobalEventID"]
        ok = rows >= 0
        assert ok.all()  # synthetic data has no dangling mentions
        assert np.array_equal(eids[rows], m)

    def test_quarters_within_window(self, tiny_store):
        assert tiny_store.mention_quarter().min() >= 0
        assert tiny_store.n_quarters() == 20

    def test_mention_event_quarter_le_mention_quarter(self, tiny_store):
        assert (
            tiny_store.mention_event_quarter() <= tiny_store.mention_quarter()
        ).all()


class TestQuarterKeys:
    """Quarter keys are built at their stored width, by boundary search."""

    def test_key_does_not_wrap_past_int16(self, tiny_arrays):
        """Interval 2e9 is quarter 228 159; as int16 it would read 31 551."""
        ev, mt, dicts = tiny_arrays
        mentions = {k: v[:3].copy() for k, v in mt.items()}
        mentions["MentionInterval"][:] = [0, 100_000, 2_000_000_000]
        store = GdeltStore.from_arrays(
            ev, mentions, {k: dicts[k] for k in ("countries", "sources")}
        )
        q = store.mention_quarter()
        assert q.dtype == np.int32
        assert q.tolist() == [0, 11, 228_159]
        assert store.n_quarters() == 228_160

    def test_mention_quarter_scratch_is_bounded(self):
        """At most 2 x 8 bytes per row, result included (the datetime64
        path took ~56: ten full-length int64 temporaries)."""
        store = flat_store(200_000)
        peak = traced_peak(store.mention_quarter)
        assert peak <= 2 * 8 * store.n_mentions, peak / store.n_mentions


class TestNavigation:
    """Event → mention navigation through the one join,
    :meth:`GdeltStore.mention_event_row`."""

    def test_mentions_of_event_complete(self, tiny_store):
        """An event's mentions via the join equal a brute-force scan."""
        m_eids = np.asarray(tiny_store.mentions["GlobalEventID"])
        rows = tiny_store.mention_event_row()
        for row in (0, 17, tiny_store.n_events - 1):
            got = np.flatnonzero(rows == row)
            eid = tiny_store.events["GlobalEventID"][row]
            want = np.flatnonzero(m_eids == eid)
            assert len(got) and np.array_equal(got, want)

    def test_mentions_for_events_batch(self, tiny_store):
        """The mentions of a batch of events via the join equal those
        whose id is one of the batch's ids."""
        batch = np.array([0, 5, 10])
        got = np.flatnonzero(np.isin(tiny_store.mention_event_row(), batch))
        ids = np.asarray(tiny_store.events["GlobalEventID"])[batch]
        want = np.flatnonzero(np.isin(tiny_store.mentions["GlobalEventID"], ids))
        assert len(got) and np.array_equal(got, want)

    def test_semi_join_mask(self, tiny_store):
        """Mentions of the events an event mask keeps: the join's gather
        equals membership of each mention's id in the kept ids."""
        ev_mask = np.zeros(tiny_store.n_events, dtype=bool)
        ev_mask[::2] = True
        m_mask = ev_mask[tiny_store.mention_event_row()]
        kept = np.asarray(tiny_store.events["GlobalEventID"])[ev_mask]
        want = np.isin(tiny_store.mentions["GlobalEventID"], kept)
        assert m_mask.any() and np.array_equal(m_mask, want)

    def test_gather_event_column(self, tiny_store):
        """A per-event column gathered per mention (the event-country key)
        equals a lookup of each mention's event id."""
        countries = tiny_store.event_country_idx()
        by_id = dict(zip(tiny_store.events["GlobalEventID"].tolist(), countries.tolist()))
        want = [by_id[e] for e in tiny_store.mentions["GlobalEventID"].tolist()]
        assert tiny_store.mention_event_country().tolist() == want


class TestSizesAndUrls:
    def test_counts(self, tiny_store, tiny_ds):
        assert tiny_store.n_events == tiny_ds.n_events
        assert tiny_store.n_mentions == tiny_ds.n_articles
        assert tiny_store.n_sources == tiny_ds.catalog.n_sources

    def test_memory_accounting_positive(self, tiny_store):
        assert tiny_store.memory_bytes() > 0

    def test_event_url_matches_generator(self, tiny_store, tiny_ds):
        assert tiny_store.event_url(3) == tiny_ds.event_urls(tiny_ds.mention_urls())[3]

    def test_mention_url_contains_domain(self, tiny_store):
        sid = int(tiny_store.mentions["SourceId"][0])
        assert tiny_store.sources[sid] in tiny_store.mention_url(0)


class TestRefcounting:
    def _store(self, tiny_ds):
        from repro.engine import GdeltStore
        from repro.ingest.direct import dataset_to_arrays

        events, mentions, dicts = dataset_to_arrays(tiny_ds, include_urls=True)
        return GdeltStore.from_arrays(events, mentions, dicts)

    def test_creator_holds_one_reference(self, tiny_ds):
        store = self._store(tiny_ds)
        assert store.refs == 1 and not store.released
        store.release()
        assert store.refs == 0 and store.released

    def test_retain_release_balance(self, tiny_ds):
        store = self._store(tiny_ds)
        assert store.retain() is store
        store.retain()
        assert store.refs == 3
        store.release()
        store.release()
        assert not store.released  # creator ref still held
        store.release()
        assert store.released

    def test_retain_after_release_raises(self, tiny_ds):
        import pytest

        store = self._store(tiny_ds)
        store.release()
        with pytest.raises(RuntimeError):
            store.retain()

    def test_release_clears_derived_cache(self, tiny_ds):
        store = self._store(tiny_ds)
        store.query("mentions").group_by("Quarter").count()  # derive a key column
        assert store._cache
        store.release()
        assert not store._cache


class TestInvalidate:
    def test_keeps_array_backed_url_dictionaries(self, tiny_ds):
        from repro.ingest.direct import dataset_to_arrays

        store = GdeltStore.from_arrays(*dataset_to_arrays(tiny_ds))
        names = sorted(store.dictionaries())
        mention_url, event_url = store.mention_url(0), store.event_url(0)
        assert mention_url is not None and event_url is not None
        assert names == ["countries", "event_urls", "mention_urls", "sources"]
        store.query("mentions").group_by("Quarter").count()  # derive a key column
        assert store._cache
        store.invalidate()
        assert not store._cache
        assert store.mention_url(0) == mention_url
        assert store.event_url(0) == event_url
        assert sorted(store.dictionaries()) == names


class TestMentionsWithoutEvents:
    """A live snapshot whose first landing brought a mentions archive
    before its export archive: every mention dangles."""

    @pytest.fixture()
    def store(self, tiny_arrays):
        return _store(tiny_arrays, events=slice(0, 0), mentions=slice(0, 2000))

    def test_join_column_all_dangling(self, store):
        rows = store.mention_event_row()
        assert len(rows) == store.n_mentions == 2000
        assert (rows == -1).all()

    def test_every_mentions_group_key_counts(self, store):
        for alias in store._GROUP_KEYS["mentions"]:
            got = store.query("mentions").group_by(alias).count().value
            want = reference_value(
                store, {"table": "mentions", "op": "count", "group_by": alias}
            )
            assert np.array_equal(got, want), alias
        got = store.query("mentions").group_by("EventCountry").count().value
        assert np.array_equal(got, np.zeros(store.n_countries, dtype=np.int64))

    def test_meta_lists_every_alias(self, store):
        meta = store_meta(store)
        for table, registry in store._GROUP_KEYS.items():
            assert sorted(meta["groups"][table]) == sorted(registry)
        assert meta["groups"]["mentions"]["EventCountry"] == {
            "canonical": "mentions.EventCountry",
            "n_groups": store.n_countries,
        }


class TestGroupWidths:
    """``group_width`` is ``group_key`` minus the key column."""

    INT_COLUMNS = {"mentions": "Confidence", "events": "RootCode"}

    def _check(self, store):
        keys = _aliases(store) + list(self.INT_COLUMNS.items())
        for table, name in keys:
            assert store.group_width(table, name) == store.group_key(table, name)[::2]

    def test_array_backed(self, tiny_arrays):
        self._check(_store(tiny_arrays))

    def test_dataset_backed(self, tiny_arrays, tmp_path):
        events, mentions, dicts = tiny_arrays
        write_gdelt_dataset(tmp_path / "db", events, mentions, dicts)
        self._check(GdeltStore.open(tmp_path / "db"))

    def test_zero_events(self, tiny_arrays):
        self._check(_store(tiny_arrays, events=slice(0, 0)))

    def test_zero_mentions(self, tiny_arrays):
        self._check(_store(tiny_arrays, mentions=slice(0, 0)))

    def test_unknown_key_raises(self, tiny_store):
        with pytest.raises(KeyError, match="unknown group key"):
            tiny_store.group_width("mentions", "NoSuchKey")
        with pytest.raises(KeyError, match="unknown group key"):
            tiny_store.group_width("mentions", "DocTone")  # float column

    def test_meta_builds_no_key_column(self, tiny_arrays):
        store = _store(tiny_arrays)
        store_meta(store)
        assert set(store._cache) == {
            "zone_maps:events", "zone_maps:mentions", "n_quarters",
        }


class TestNQuarters:
    @staticmethod
    def _brute(store):
        hi = 0
        for col in (store.mentions["MentionInterval"], store.events["DayInterval"]):
            if len(col):
                hi = max(hi, int(intervals_to_quarters(col).max()))
        return hi + 1

    def test_matches_quarter_columns(self, tiny_arrays):
        store = _store(tiny_arrays)
        assert store.n_quarters() == self._brute(store) == max(
            int(store.mention_quarter().max()), int(store.event_quarter().max())
        ) + 1

    def test_events_dated_after_last_mention(self, tiny_arrays):
        _ev, mt, _d = tiny_arrays
        # Mentions are capture-sorted: keep the first third of them.
        store = _store(tiny_arrays, mentions=slice(0, len(mt["MentionInterval"]) // 3))
        last_mention_q = int(intervals_to_quarters(store.mentions["MentionInterval"]).max())
        last_event_q = int(intervals_to_quarters(store.events["DayInterval"]).max())
        assert last_event_q > last_mention_q
        assert store.n_quarters() == self._brute(store) == last_event_q + 1

    @pytest.mark.parametrize(
        "events, mentions",
        [(slice(0, 0), slice(None)), (slice(None), slice(0, 0)),
         (slice(0, 0), slice(0, 0))],
        ids=["no-events", "no-mentions", "empty"],
    )
    def test_empty_tables(self, tiny_arrays, events, mentions):
        store = _store(tiny_arrays, events=events, mentions=mentions)
        assert store.n_quarters() == self._brute(store)

    def test_builds_no_quarter_column(self, tiny_arrays):
        store = _store(tiny_arrays)
        store.n_quarters()
        assert set(store._cache) == {"n_quarters"}


def _event_rows_by_search(eids, ids):
    """The join as one binary search of the sorted ids: the oracle."""
    if not len(eids):
        return np.full(len(ids), -1, dtype=np.int64)
    pos = np.clip(np.searchsorted(eids, ids), 0, len(eids) - 1)
    return np.where(eids[pos] == ids, pos, -1).astype(np.int64)


class TestEventJoin:
    """``mention_event_row`` equals a binary search of the events' ids,
    whichever way it addresses them."""

    I64 = np.iinfo(np.int64)

    def _check(self, eids, ids):
        eids = np.asarray(eids, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        store = GdeltStore.from_arrays(
            {"GlobalEventID": eids},
            {"GlobalEventID": ids},
            {
                "sources": StringDictionary.from_strings(["s.com"]),
                "countries": StringDictionary.from_strings([""]),
            },
        )
        got = store.mention_event_row()
        assert got.dtype == np.int64
        assert np.array_equal(got, _event_rows_by_search(eids, ids))

    def _probes(self, rng, eids):
        hits = rng.choice(eids, 200) if len(eids) else np.zeros(0, dtype=np.int64)
        lo = int(eids[0]) if len(eids) else 0
        near = rng.integers(
            max(lo - 50, self.I64.min), min(lo + 4 * len(eids) + 50, self.I64.max),
            200, dtype=np.int64,
        )
        far = rng.integers(self.I64.min, self.I64.max, 200, dtype=np.int64)
        ends = [self.I64.min, self.I64.min + 1, self.I64.max - 1, self.I64.max, -1, 0]
        return np.concatenate([hits, near, far, ends]).astype(np.int64)

    def test_dense_gappy_sparse_and_duplicate_ids(self, rng):
        for n in (1, 2, 7, 500):
            dense = 1000 + np.arange(n)
            gappy = np.sort(rng.choice(3 * n, n, replace=False)) - n
            sparse = np.sort(rng.choice(10**12, n, replace=False)) * 997
            dupes = np.sort(rng.integers(0, max(1, n // 3), n))
            for eids in (dense, gappy, sparse, dupes):
                self._check(eids, self._probes(rng, eids))

    def test_ids_at_the_int64_bounds(self, rng):
        for eids in (
            self.I64.min + np.arange(5), self.I64.max - 4 + np.arange(5),
            [self.I64.min, self.I64.max],
        ):
            eids = np.asarray(eids, dtype=np.int64)
            self._check(eids, self._probes(rng, eids))

    def test_empty_events_and_mentions(self, rng):
        self._check([], self._probes(rng, np.zeros(0, dtype=np.int64)))
        self._check(np.arange(10), [])
        self._check([], [])

    def test_dataset_backed_store_agrees(self, tiny_store):
        eids = tiny_store.events["GlobalEventID"]
        ids = tiny_store.mentions["GlobalEventID"]
        assert np.array_equal(
            tiny_store.mention_event_row(), _event_rows_by_search(eids, ids)
        )


@pytest.fixture(scope="module")
def tiny_db(tiny_arrays, tmp_path_factory):
    """The tiny corpus as a dataset directory, bulky columns compressed."""
    events, mentions, dicts = tiny_arrays
    db = tmp_path_factory.mktemp("lazy") / "db"
    write_gdelt_dataset(db, events, mentions, dicts, compress=True)
    return db


@pytest.fixture()
def loads(monkeypatch):
    """Every column load of a dataset-backed store, as ``(table, name)``."""
    seen: list[tuple[str, str]] = []
    read = DatasetReader._read

    def counted(self, f, table, name, lo, hi):
        seen.append((table, name))
        time.sleep(0.01)  # widen the window for concurrent first reads
        return read(self, f, table, name, lo, hi)

    monkeypatch.setattr(DatasetReader, "_read", counted)
    return seen


class TestLazyColumns:
    """A dataset-backed store loads each column on its first access."""

    @pytest.mark.parametrize("mode", ["memory", "mmap"])
    def test_unread_columns_are_never_loaded(self, tiny_db, tiny_arrays, loads, mode):
        store = GdeltStore.open(tiny_db, mode=mode)
        try:
            assert loads == []
            res = store.query("mentions").filter(col("Delay") > 96).count()
            assert res.value == int((tiny_arrays[1]["Delay"] > 96).sum())
            assert loads == [("mentions", "Delay")]
            store.mentions["Delay"]
            assert "DocTone" in store.mentions and "Nope" not in store.mentions
            assert sorted(store.mentions) == sorted(tiny_arrays[1])
            assert loads == [("mentions", "Delay")]
        finally:
            store.release()

    @pytest.mark.parametrize("mode", ["memory", "mmap"])
    def test_concurrent_first_reads_load_once(self, tiny_db, tiny_arrays, loads, mode):
        store = GdeltStore.open(tiny_db, mode=mode)
        barrier = threading.Barrier(8)
        got = []

        def reader(name):
            barrier.wait(timeout=30)
            got.append(store.mentions[name])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(name,))
                for name in ["Delay"] * 4 + ["SourceId"] * 4
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert sorted(loads) == [("mentions", "Delay"), ("mentions", "SourceId")]
            assert len({id(a) for a in got}) == 2
            assert np.array_equal(store.mentions["Delay"], tiny_arrays[1]["Delay"])
        finally:
            sys.setswitchinterval(switch)
            store.release()

    def test_sizes_load_nothing(self, tiny_db, tiny_arrays, loads):
        events, mentions, _ = tiny_arrays
        store = GdeltStore.open(tiny_db, mode="memory")
        try:
            assert store.n_rows("mentions") == store.n_mentions == len(mentions["Delay"])
            assert store.n_rows("events") == store.n_events == len(events["GlobalEventID"])
            assert store.memory_bytes() == sum(
                a.nbytes for t in (events, mentions) for a in t.values()
            )
            assert loads == []
            meta = store_meta(store)  # widths read the interval columns' maxima
            assert meta["tables"]["mentions"]["columns"]["DocTone"]["dtype"] == "float32"
            assert ("mentions", "DocTone") not in loads
        finally:
            store.release()

    @pytest.mark.parametrize("mode", ["memory", "mmap"])
    def test_rewrite_after_open_does_not_reach_the_store(self, tiny_arrays, tmp_path, mode):
        events, mentions, dicts = tiny_arrays
        db = tmp_path / "db"
        write_gdelt_dataset(db, events, mentions, dicts, compress=True)
        store = GdeltStore.open(db, mode=mode)
        try:
            changed = {k: v.copy() for k, v in mentions.items()}
            changed["Delay"] += 1
            changed["SourceId"][:] = 0
            write_gdelt_dataset(db, events, changed, dicts, compress=True)
            assert np.array_equal(store.mentions["Delay"], mentions["Delay"])
            assert np.array_equal(store.mentions["SourceId"], mentions["SourceId"])
        finally:
            store.release()
        assert np.array_equal(
            GdeltStore.open(db).mentions["Delay"], changed["Delay"]
        )

    def test_corrupt_column_is_an_error_response(self, tiny_arrays, tmp_path):
        from repro.serve import QueryService

        events, mentions, dicts = tiny_arrays
        db = tmp_path / "db"
        write_gdelt_dataset(db, events, mentions, dicts, compress=True)
        victim = db / "mentions" / "Delay.bin"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with QueryService(GdeltStore.open(db, mode="memory"), workers=1) as svc:
            bad = svc.query("mentions", op="mean", column="Delay")
            again = svc.query("mentions", op="sum", column="Delay")
            ok = svc.query("mentions", op="count")
            revives = svc.stats()["worker_revives"]
        assert bad.status == again.status == "error"
        assert "StorageError" in bad.error and "CRC32 mismatch" in bad.error
        assert ok.ok and ok.value == len(mentions["Delay"])
        assert revives == 0

    @pytest.mark.parametrize("mode", ["memory", "mmap"])
    def test_pinned_files_raise_no_resource_warning(self, tiny_db, mode):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            released = GdeltStore.open(tiny_db, mode=mode)
            released.mentions["Delay"]
            released.release()
            with pytest.raises(StorageError, match="closed"):
                released.mentions["DocTone"]
            dropped = GdeltStore.open(tiny_db, mode=mode)
            dropped.events["GlobalEventID"]
            del dropped
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
