"""The in-memory GDELT store.

Holds the two column tables, the shared string dictionaries, and
lazily computed *derived* columns that the paper's analyses use
everywhere:

* ``source_country`` — roster index per source id, computed from the
  source domain's TLD (the paper's attribution rule);
* ``mention_quarter`` / ``event_quarter`` — calendar quarter indices of
  capture and event-day intervals (int16, int32 if the span needs it);
* ``mention_event_row`` — events-table row of each mention: the one
  event↔mention join, an id → row table when the event ids are dense,
  a binary search of the id-sorted events table otherwise;
* ``mention_source_country`` / ``mention_event_country`` — roster index
  of each mention's publisher / event (the country group keys).

Group keys resolve through one registry: :meth:`GdeltStore.group_key`
builds a key column, :meth:`GdeltStore.group_width` reads only its width.

A store can be opened from a binary dataset directory (the normal path;
each column is read on its first access) or constructed directly from
arrays (the synthetic fast path).
"""

from __future__ import annotations

import itertools
import logging
import threading
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.gdelt.codes import COUNTRIES, source_country
from repro.gdelt.time_util import intervals_to_quarters
from repro.obs import metrics as _metrics
from repro.storage.columns import StringDictionary
from repro.storage.format import StorageError
from repro.storage.gdelt import DICTIONARIES
from repro.storage.reader import DatasetReader, LazyColumns
from repro.storage.stats import DEFAULT_ZONE_CHUNK_ROWS, ZoneMaps, compute_zone_maps

__all__ = ["GdeltStore"]

logger = logging.getLogger(__name__)

#: FIPS → roster index, shared by every store.
_ROSTER_POS = {c.fips: i for i, c in enumerate(COUNTRIES)}

#: Monotonic store identity tokens (part of the planner cache key).
_STORE_SEQ = itertools.count()

#: :meth:`GdeltStore.mention_event_row` addresses an id → row table when
#: the event ids span at most this many ids per event row (the table
#: costs 8 bytes per id in the span), and binary-searches them otherwise.
_DIRECT_SPAN_PER_ROW = 4


class GdeltStore:
    """Read-only in-memory (or memory-mapped) GDELT dataset.

    Thread-safety contract (see docs/query-api.md): table columns are
    immutable after construction, so any number of threads may read and
    query concurrently.  Lazily derived artifacts (derived columns,
    zone maps, group-key cardinalities) are computed once under
    :attr:`_lock` and immutable thereafter; :meth:`invalidate` bumps
    the cache generation and clears them atomically under the same
    lock, so a concurrent :meth:`fingerprint` never observes the new
    generation with stale derived state.
    """

    def __init__(
        self,
        events: Mapping[str, np.ndarray],
        mentions: Mapping[str, np.ndarray],
        sources: StringDictionary,
        countries: StringDictionary,
        reader: DatasetReader | None = None,
        zone_chunk_rows: int | None = None,
    ) -> None:
        self.events = events
        self.mentions = mentions
        self.sources = sources
        self.countries = countries
        self._reader = reader
        #: URL dictionaries: handed over by :meth:`from_arrays` or loaded
        #: from the reader on first use.  Data, not derived state, so
        #: :meth:`invalidate` keeps them.
        self._dicts: dict[str, StringDictionary] = {}
        self._cache: dict[str, object] = {}
        #: Guards lazy derivation and generation bumps; re-entrant so a
        #: derived-column factory may itself request other derived
        #: columns (e.g. mention_event_country needs mention_event_row).
        self._lock = threading.RLock()
        #: Zone-map granularity for maps computed by an array-backed
        #: store; persisted datasets keep whatever granularity the
        #: writer recorded.
        self.zone_chunk_rows = (
            DEFAULT_ZONE_CHUNK_ROWS if zone_chunk_rows is None else zone_chunk_rows
        )
        self._token = f"store{next(_STORE_SEQ)}"
        self._generation = 0
        #: Refcount for lifecycle-managed stores: the creator holds one
        #: reference; :meth:`retain`/:meth:`release` bracket pinned use
        #: (an in-flight query keeps its generation alive across a hot
        #: swap).  Dropping to zero releases derived caches, planner
        #: cache entries, and the dataset reader (mmap handles).
        self._refs = 1
        self._released = False

    # -- construction --------------------------------------------------------

    @classmethod
    def open(cls, path: Path, mode: str = "mmap") -> "GdeltStore":
        """Open a binary dataset directory.

        Each column is loaded on its first access
        (:class:`~repro.storage.reader.LazyColumns`), so a process holds
        only the columns its queries read.  ``mode="mmap"`` (default, as
        :class:`DatasetReader`) maps a raw column read-only: the OS page
        cache is the buffer pool and a process holds only the pages its
        queries touch.  ``"memory"`` copies a column into a
        process-private array once, the paper's load-once-then-query
        usage, for callers that want timings free of page faults.
        Compressed columns decode into private arrays in either mode,
        their CRC checked at that first read.  Every column file is
        opened (pinned) here, so a dataset rewritten through the writer
        (temp + rename) after the open never reaches the store.
        """
        reader = DatasetReader(Path(path), mode=mode)
        return cls(
            events=reader.lazy_table("events"),
            mentions=reader.lazy_table("mentions"),
            sources=reader.dictionary("sources"),
            countries=reader.dictionary("countries"),
            reader=reader,
        )

    @classmethod
    def from_arrays(
        cls,
        events: dict[str, np.ndarray],
        mentions: dict[str, np.ndarray],
        dictionaries: dict[str, StringDictionary],
        zone_chunk_rows: int | None = None,
    ) -> "GdeltStore":
        """Build a live store from binary-layout arrays (no disk round trip).

        Zone maps are computed lazily on first planner use
        (``zone_chunk_rows`` sets their granularity — useful for tests
        exercising pruning on small data).
        """
        store = cls(
            events=events,
            mentions=mentions,
            sources=dictionaries["sources"],
            countries=dictionaries["countries"],
            zone_chunk_rows=zone_chunk_rows,
        )
        store._dicts = {
            name: d for name, d in dictionaries.items()
            if name not in ("sources", "countries")
        }
        return store

    # -- sizes ----------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return self.n_rows("events")

    @property
    def n_mentions(self) -> int:
        return self.n_rows("mentions")

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_countries(self) -> int:
        """Roster size (not dictionary size)."""
        return len(COUNTRIES)

    def memory_bytes(self) -> int:
        """Logical bytes of all table columns (dictionaries excluded).

        Of a dataset-backed store this is the manifest's figure: only
        the columns its queries read are loaded, and of a mapped store
        only the pages they touched are resident (the OS page cache's,
        not the process's).
        """
        return sum(
            cols.nbytes if isinstance(cols, LazyColumns)
            else sum(a.nbytes for a in cols.values())
            for cols in (self.events, self.mentions)
        )

    # -- query surface -------------------------------------------------------

    def table(self, name: str) -> Mapping[str, np.ndarray]:
        """Column dict of table ``name`` (``"events"`` or ``"mentions"``)."""
        if name == "events":
            return self.events
        if name == "mentions":
            return self.mentions
        raise ValueError(f"unknown table {name!r} (expected events or mentions)")

    def n_rows(self, name: str) -> int:
        """Row count of a table, validated against every column (for a
        dataset-backed table, by the size checks at open).

        Raises:
            StorageError: on a table with no columns or ragged columns —
                either would silently corrupt chunked query results.
        """
        cols = self.table(name)
        if not cols:
            raise StorageError(f"table {name!r} has no columns")
        if isinstance(cols, LazyColumns):
            return cols.rows
        lengths = {c: len(a) for c, a in cols.items()}
        n = next(iter(lengths.values()))
        if any(v != n for v in lengths.values()):
            raise StorageError(f"table {name!r}: ragged columns {lengths}")
        return n

    def column_dtype(self, table: str, name: str) -> np.dtype | None:
        """dtype of a column (None when the table has no such column),
        without loading it."""
        cols = self.table(table)
        if name not in cols:
            return None
        if isinstance(cols, LazyColumns):
            return cols.dtype(name)
        return np.asarray(cols[name]).dtype

    def query(self, table: str):
        """The end-user query entry point.

        Returns a :class:`repro.engine.query.Query` whose terminal
        operations run through the zone-map planner and return
        :class:`repro.engine.query.QueryResult` objects (value + profile
        + plan)::

            res = store.query("mentions").filter(col("Delay") > 96).count()
            res.value, res.plan.n_chunks_pruned
        """
        from repro.engine.query import Query

        return Query(self, table)

    def run_terminal(self, query, spec):
        """Run one :class:`~repro.engine.query.Query` terminal in process:
        a batch of one through the engine runner
        (:func:`~repro.engine.query.run_batch`)."""
        from repro.engine.query import ExecutableOp, run_batch

        op = ExecutableOp(
            self, query.table_name, spec, query.where, query.rows,
            prune=query.prune,
        )
        (result,) = run_batch([op], query.executor)
        if isinstance(result, Exception):
            raise result
        return result

    def interval_rows(self, start_interval: int, end_interval: int) -> slice:
        """Mention rows captured in ``[start_interval, end_interval)``.

        The mentions table is stored sorted by capture interval, so a
        time window is two binary searches — O(log n), never a scan.
        """
        col = self.mentions["MentionInterval"]
        lo = int(np.searchsorted(col, start_interval, side="left"))
        hi = int(np.searchsorted(col, end_interval, side="left"))
        return slice(lo, max(lo, hi))

    def fingerprint(self) -> tuple[str, int]:
        """Identity token for planner cache keys.

        Stable for the store's lifetime until :meth:`invalidate` bumps
        the generation; never reused across stores in one process.
        Reads the generation under the store lock, so a concurrent
        :meth:`invalidate` is observed atomically with its cache clear.
        """
        with self._lock:
            return self._token, self._generation

    def invalidate(self) -> None:
        """Drop every derived/cached artifact after in-place data mutation.

        Stores are read-only by contract, but ingest tooling that swaps
        or appends column arrays must call this: it clears derived
        columns and zone maps and bumps the cache generation so stale
        planner results can never be served.  The bump and the clear
        happen atomically under the store lock, so server worker
        threads planning concurrently either see the old generation
        (and their results are orphaned by the new fingerprint) or the
        new generation with an empty derived cache — never a mix.
        """
        with self._lock:
            self._generation += 1
            self._cache.clear()
        from repro.engine.planner import invalidate_cache

        invalidate_cache(self._token)

    # -- refcounted lifetime -------------------------------------------------

    @property
    def refs(self) -> int:
        """Current reference count (creator + live pins)."""
        with self._lock:
            return self._refs

    @property
    def released(self) -> bool:
        """True once the refcount hit zero and resources were dropped."""
        with self._lock:
            return self._released

    def retain(self) -> "GdeltStore":
        """Pin the store: one more reference keeping its resources live.

        Raises:
            RuntimeError: when the store was already released — a pin
                after release would resurrect freed state.
        """
        with self._lock:
            if self._released:
                raise RuntimeError(f"{self._token}: retain after release")
            self._refs += 1
        return self

    def release(self) -> int:
        """Drop one reference; returns the remaining count.

        The last release frees what the store *owns* — derived-column
        caches, its planner result-cache entries, the dataset reader
        (whose memory-mapped columns close when the arrays are garbage
        collected) and the pinned files of columns never read.  Loaded
        columns are left intact, so a stray late reader of them sees
        consistent data rather than a crash (a first read raises
        :class:`StorageError`); the contract is that nobody holds the
        store past its last release.
        """
        with self._lock:
            if self._released:
                return 0
            self._refs -= 1
            remaining = self._refs
            if remaining > 0:
                return remaining
            self._released = True
            self._cache.clear()
            self._dicts.clear()
            self._reader = None
        for cols in (self.events, self.mentions):
            if isinstance(cols, LazyColumns):
                cols.close()
        from repro.engine.planner import invalidate_cache

        invalidate_cache(self._token)
        _metrics.counter("store_releases_total").inc()
        logger.debug("store %s released (generation %d)", self._token, self._generation)
        return 0

    def _cached(self, key: str, factory):
        """Get-or-compute a derived artifact, thread-safely.

        The double-checked fast path keeps the common case (already
        computed) lock-free — dict reads are atomic under the GIL and
        entries are immutable once published.
        """
        value = self._cache.get(key)
        if value is None:
            with self._lock:
                value = self._cache.get(key)
                if value is None:
                    value = factory()
                    self._cache[key] = value
        return value

    def zone_maps(self, name: str) -> ZoneMaps:
        """Zone maps for a table: decoded from the manifest of a
        dataset-backed store, computed from the arrays of an array-backed
        one (once, on first planner use)."""
        def compute() -> ZoneMaps:
            if self._reader is not None:
                return self._reader.zone_maps(name)
            return compute_zone_maps(self.table(name), self.zone_chunk_rows)

        return self._cached(f"zone_maps:{name}", compute)  # type: ignore[return-value]

    #: Named group keys per table: alias → (canonical name, key column,
    #: width).  The key column is a derived-column method or a column of
    #: the table; the width is a store attribute (called when it is a
    #: method), so :meth:`group_width` never builds the key column.
    #: Aliases share one canonical name, so they share cache entries.
    _GROUP_KEYS = {
        "mentions": {
            "Quarter": ("mentions.Quarter", "mention_quarter", "n_quarters"),
            "MentionQuarter": ("mentions.Quarter", "mention_quarter", "n_quarters"),
            "EventQuarter": (
                "mentions.EventQuarter", "mention_event_quarter", "n_quarters"
            ),
            "Source": ("mentions.SourceId", "SourceId", "n_sources"),
            "SourceId": ("mentions.SourceId", "SourceId", "n_sources"),
            "SourceCountry": (
                "mentions.SourceCountry", "mention_source_country", "n_countries"
            ),
            "EventCountry": (
                "mentions.EventCountry", "mention_event_country", "n_countries"
            ),
        },
        "events": {
            "Quarter": ("events.Quarter", "event_quarter", "n_quarters"),
            "EventQuarter": ("events.Quarter", "event_quarter", "n_quarters"),
            "Country": ("events.Country", "event_country_idx", "n_countries"),
            "CountryCode": ("events.Country", "event_country_idx", "n_countries"),
        },
    }

    def group_key(self, table: str, name: str) -> tuple[str, np.ndarray, int]:
        """Resolve a named group key to ``(canonical name, keys, n_groups)``.

        Accepts the registered derived keys above (aliases share one
        canonical name, so they share cache entries) or any integer
        column of the table (grouped by value; negative values are
        dropped by the kernels).
        """
        canonical, n = self.group_width(table, name)
        entry = self._GROUP_KEYS.get(table, {}).get(name)
        column = name if entry is None else entry[1]
        cols = self.table(table)
        keys = cols[column] if column in cols else getattr(self, column)()
        return canonical, keys, n

    def group_width(self, table: str, name: str) -> tuple[str, int]:
        """``(canonical name, n_groups)`` of a group key, without
        building its key column — what ``meta`` and
        :meth:`Query.group_by` need before any scan.

        Raises:
            KeyError: unknown group key (same registry as
                :meth:`group_key`).
        """
        cols = self.table(table)
        registry = self._GROUP_KEYS.get(table, {})
        entry = registry.get(name)
        if entry is not None:
            canonical, _column, width = entry
            n = getattr(self, width)
            return canonical, n() if callable(n) else n
        arr = cols.get(name)
        if arr is not None and np.issubdtype(np.asarray(arr).dtype, np.integer):
            n = self._cached(
                f"ngroups:{table}:{name}",
                lambda: int(arr.max()) + 1 if len(arr) else 0,
            )
            return f"{table}.{name}", n
        options = sorted(set(registry) | {c for c in cols})
        raise KeyError(
            f"unknown group key {name!r} for table {table!r}; "
            f"available: {', '.join(options)}"
        )

    # -- manifest meta and dictionaries ----------------------------------------

    @property
    def dataset_meta(self) -> dict:
        """Manifest meta of the backing dataset (empty when array-backed)."""
        return dict(self._reader.manifest.meta) if self._reader is not None else {}

    def dictionaries(self) -> dict[str, StringDictionary]:
        """Every string dictionary the store has, by name — what
        :meth:`from_arrays` takes and the dataset writer writes."""
        resident = {"countries": self.countries, "sources": self.sources}
        out = {}
        for name in DICTIONARIES:
            d = resident[name] if name in resident else self._lazy_dict(name)
            if d is not None:
                out[name] = d
        return out

    def _lazy_dict(self, name: str) -> StringDictionary | None:
        """Dictionary ``name``, loaded on first use; None when the
        dataset has none.  A corrupt dictionary file raises
        :class:`StorageError`, like any other corrupt data."""
        cached = self._dicts.get(name)
        if cached is not None:
            return cached
        if self._reader is None or all(
            d.name != name for d in self._reader.manifest.dictionaries
        ):
            return None
        with self._lock:
            cached = self._dicts.get(name)
            if cached is None:
                cached = self._reader.dictionary(name)
                self._dicts[name] = cached
        return cached

    def mention_url(self, row: int) -> str | None:
        """URL of mention ``row`` (None when URLs were not materialized)."""
        d = self._lazy_dict("mention_urls")
        code = int(self.mentions["UrlId"][row])
        if d is None or code < 0:
            return None
        return d[code]

    def event_url(self, row: int) -> str | None:
        """Seed SOURCEURL of event ``row``."""
        d = self._lazy_dict("event_urls")
        code = int(self.events["SourceURLId"][row])
        if d is None or code < 0:
            return None
        return d[code]

    # -- derived columns --------------------------------------------------------

    def source_country_idx(self) -> np.ndarray:
        """Roster index per source id via the TLD rule (-1 = unattributable).

        Cached; computed once by scanning the source dictionary.
        """
        def compute() -> np.ndarray:
            out = np.full(len(self.sources), -1, dtype=np.int16)
            for sid, domain in enumerate(self.sources):
                fips = source_country(domain)
                if fips is not None:
                    out[sid] = _ROSTER_POS[fips]
            return out

        return self._cached("source_country_idx", compute)  # type: ignore[return-value]

    def event_country_idx(self) -> np.ndarray:
        """Roster index per *event row* (-1 = untagged/unknown FIPS)."""
        def compute() -> np.ndarray:
            code_to_roster = np.full(len(self.countries), -1, dtype=np.int16)
            for code, fips in enumerate(self.countries):
                if fips and fips in _ROSTER_POS:
                    code_to_roster[code] = _ROSTER_POS[fips]
            return code_to_roster[self.events["CountryCode"]]

        return self._cached("event_country_idx", compute)  # type: ignore[return-value]

    def mention_event_row(self) -> np.ndarray:
        """Events-table row index per mention (-1 = dangling event id).

        The events table is sorted by id, so this is the first row
        holding each mention's id.  When the ids span at most
        :data:`_DIRECT_SPAN_PER_ROW` ids per event, an id → row table is
        built and gathered from (O(n)); otherwise each id is found by
        binary search.  int64, because composite keys multiply it.
        """
        def compute() -> np.ndarray:
            return _event_rows(
                self.events["GlobalEventID"], self.mentions["GlobalEventID"]
            )

        return self._cached("mention_event_row", compute)  # type: ignore[return-value]

    def mention_source_country(self) -> np.ndarray:
        """Roster index of each mention's publisher (-1 = unattributable)."""
        return self._cached(  # type: ignore[return-value]
            "mention_source_country",
            lambda: self.source_country_idx()[self.mentions["SourceId"]],
        )

    def mention_event_country(self) -> np.ndarray:
        """Roster index of each mention's event (-1 = dangling/untagged)."""
        def compute() -> np.ndarray:
            rows = self.mention_event_row()
            out = np.full(len(rows), -1, dtype=np.int16)
            ok = rows >= 0
            out[ok] = self.event_country_idx()[rows[ok]]
            return out

        return self._cached("mention_event_country", compute)  # type: ignore[return-value]

    def mention_quarter(self) -> np.ndarray:
        """Calendar quarter of each mention's capture interval."""
        return self._cached(  # type: ignore[return-value]
            "mention_quarter",
            lambda: intervals_to_quarters(self.mentions["MentionInterval"]),
        )

    def event_quarter(self) -> np.ndarray:
        """Calendar quarter of each event's day."""
        return self._cached(  # type: ignore[return-value]
            "event_quarter",
            lambda: intervals_to_quarters(self.events["DayInterval"]),
        )

    def mention_event_quarter(self) -> np.ndarray:
        """Calendar quarter of each mention's *event* interval."""
        return self._cached(  # type: ignore[return-value]
            "mention_event_quarter",
            lambda: intervals_to_quarters(self.mentions["EventInterval"]),
        )

    def n_quarters(self) -> int:
        """Number of quarters spanned by the data (max quarter + 1).

        ``intervals_to_quarters`` is monotone, so the latest quarter is
        the quarter of the latest ``MentionInterval`` / ``DayInterval``:
        two column maxima, no quarter column built.  Cached: every
        grouped terminal resolves its key's width through here.
        """

        def compute() -> int:
            hi = 0
            for col in (self.mentions["MentionInterval"], self.events["DayInterval"]):
                if len(col):
                    hi = max(hi, int(intervals_to_quarters(col.max())))
            return hi + 1

        return self._cached("n_quarters", compute)  # type: ignore[return-value]


def _event_rows(eids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """First row of sorted ``eids`` holding each of ``ids`` (int64, -1
    where none does)."""
    n = len(eids)
    if not n:  # e.g. a mentions archive landed first
        return np.full(len(ids), -1, dtype=np.int64)
    lo = int(eids[0])
    span = int(eids[-1]) - lo + 1
    if span > _DIRECT_SPAN_PER_ROW * n:
        pos = np.clip(np.searchsorted(eids, ids), 0, n - 1)
        return np.where(eids[pos] == ids, pos, -1).astype(np.int64)
    # Slot s holds the first row of id lo + s; slot span is "no event".
    # Offsets wrap modulo 2**64, so every id outside the span lands at
    # or past it, however far out of range.
    first = np.concatenate(([0], np.flatnonzero(eids[1:] != eids[:-1]) + 1))
    table = np.full(span + 1, -1, dtype=np.int64)
    table[eids[first] - lo] = first
    slot = np.asarray(ids, dtype=np.int64).view(np.uint64) - np.uint64(lo % (1 << 64))
    return table[np.minimum(slot, span, out=slot)]
