"""GdeltStore: derived columns, the event join, navigation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import GdeltStore
from repro.gdelt.codes import COUNTRIES, source_country
from repro.gdelt.time_util import intervals_to_quarters
from repro.qa.reference import reference_value
from repro.serve.protocol import store_meta
from repro.storage.gdelt import write_gdelt_dataset
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
