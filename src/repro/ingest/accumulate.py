"""Typed, append-only column buffers behind the live follower.

The follower hands each archive's parsed rows to an accumulator, which
validates and stages them; :meth:`flush` (at the end of every poll, or
sooner in a large one) interns their strings, casts their values to the
binary layout's dtypes (intervals and ``Delay`` included) and appends
them to one amortised-doubling NumPy buffer per column.  :meth:`freeze`
stable-sorts the rows appended since the last freeze by the table's key
and merges them behind the rows already held, so each table is a sorted
prefix of its buffers, and returns read-only views of it.  A prefix once
handed out is never written again (growth and out-of-order merges
allocate fresh buffers), so every snapshot keeps its contents while
ingest goes on, and successive snapshots share memory.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.gdelt.csv_io import EventRecord, MentionRecord, numeric_root_code
from repro.gdelt.time_util import timestamps_to_intervals
from repro.ingest.validate import ProblemReport
from repro.storage.columns import (
    DictionaryBuilder,
    StringDictionary,
    ensure_capacity,
    readonly_prefix,
)

__all__ = ["EventAccumulator", "MentionAccumulator"]

#: Staged rows are converted once at least this many are waiting, and at
#: the end of every poll.  A conversion costs a fixed ~0.1 ms of NumPy
#: calls, more than appending row by row saves on one archive of a few
#: hundred rows; the bound keeps staged records to a few MB in a bulk poll.
_BATCH_ROWS = 4096


def _column(records: list, attr: str, dtype: type) -> np.ndarray:
    return np.fromiter(map(attrgetter(attr), records), dtype, len(records))


class _Accumulator:
    """One table: staged records, then column buffers holding a sorted
    prefix of ``_sorted`` rows followed by the rows appended since."""

    __slots__ = ("_staged", "_key", "_bufs", "_sorted", "_rows")

    def __init__(self, key: str) -> None:
        self._staged: list = []
        self._key = key
        self._bufs = self._columns([])  # the layout: names, order, dtypes
        self._sorted = self._rows = 0

    def __len__(self) -> int:
        return self._rows + len(self._staged)

    def _columns(self, records: list) -> dict[str, np.ndarray]:
        """The table's columns of ``records`` in accumulation order, in
        the binary layout's order and dtypes (:mod:`repro.storage.gdelt`)."""
        raise NotImplementedError

    def _stage(self, records: list) -> None:
        self._staged += records
        if len(self._staged) >= _BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Convert the staged rows and append them to the buffers."""
        if not self._staged:
            return
        columns = self._columns(self._staged)
        self._staged = []
        start = self._rows
        end = start + len(columns[self._key])
        for name, buf in self._bufs.items():
            buf = self._bufs[name] = ensure_capacity(buf, start, end)
            buf[start:end] = columns[name]
        self._rows = end

    def _freeze_table(self) -> dict[str, np.ndarray]:
        """Read-only views of all rows, stably sorted by the key."""
        self.flush()
        lo, hi = self._sorted, self._rows
        if hi > lo:
            key = self._bufs[self._key]
            order = np.argsort(key[lo:hi], kind="stable")
            tail = {name: buf[lo:hi][order] for name, buf in self._bufs.items()}
            if lo == 0 or tail[self._key][0] >= key[lo - 1]:
                for name, buf in self._bufs.items():
                    buf[lo:hi] = tail[name]
            else:
                # The new rows interleave with published ones: merge into
                # fresh buffers, earlier rows first among equal keys.
                at = np.searchsorted(key[:lo], tail[self._key], side="right")
                at += np.arange(hi - lo)
                from_prefix = np.ones(hi, dtype=bool)
                from_prefix[at] = False
                for name, buf in self._bufs.items():
                    fresh = self._bufs[name] = np.empty_like(buf)
                    fresh[at] = tail[name]
                    fresh[:hi][from_prefix] = buf[:lo]
            self._sorted = hi
        return {name: readonly_prefix(buf, hi) for name, buf in self._bufs.items()}


class EventAccumulator(_Accumulator):
    """Validated event rows in the events layout, sorted by GlobalEventID."""

    __slots__ = ("countries", "urls")

    def __init__(self) -> None:
        self.countries = DictionaryBuilder()
        self.countries.intern_many([""])  # code 0 = untagged
        self.urls = DictionaryBuilder()
        super().__init__(key="GlobalEventID")

    def extend(self, records: list[EventRecord], report: ProblemReport) -> None:
        """Validate and take one archive's rows (never raises on content)."""
        for e in records:
            if not e.source_url:
                report.note("missing_source_urls", str(e.global_event_id))
            if e.day * 10**6 > e.date_added:  # midnight YYYYMMDD000000
                report.note("future_event_dates", str(e.global_event_id))
        self._stage(records)

    def _columns(self, records: list[EventRecord]) -> dict[str, np.ndarray]:
        roots = map(numeric_root_code, map(attrgetter("event_root_code"), records))
        return {
            "GlobalEventID": _column(records, "global_event_id", np.int64),
            "DayInterval": timestamps_to_intervals(
                _column(records, "day", np.int64) * 10**6
            ).astype(np.int32),
            "RootCode": np.fromiter(roots, np.uint8, len(records)),
            "QuadClass": _column(records, "quad_class", np.uint8),
            "NumMentions": _column(records, "num_mentions", np.int32),
            "NumSources": _column(records, "num_sources", np.int32),
            "NumArticles": _column(records, "num_articles", np.int32),
            "AvgTone": _column(records, "avg_tone", np.float32),
            "CountryCode": self.countries.intern_many(
                [e.action_geo_country for e in records]
            ).astype(np.int16),
            "AddedInterval": timestamps_to_intervals(
                _column(records, "date_added", np.int64)
            ).astype(np.int32),
            "SourceURLId": self.urls.intern_many(
                [e.source_url for e in records]
            ).astype(np.int32),
        }

    def freeze(self) -> tuple[dict[str, np.ndarray], StringDictionary, StringDictionary]:
        """Read-only events table + its dictionaries."""
        return self._freeze_table(), self.countries.build(), self.urls.build()


class MentionAccumulator(_Accumulator):
    """Mention rows in the mentions layout, sorted by capture interval."""

    __slots__ = ("sources", "urls")

    def __init__(self) -> None:
        self.sources = DictionaryBuilder()
        self.urls = DictionaryBuilder()
        super().__init__(key="MentionInterval")

    def extend(self, records: list[MentionRecord], report: ProblemReport) -> None:
        """Take one archive's rows."""
        self._stage(records)

    def _columns(self, records: list[MentionRecord]) -> dict[str, np.ndarray]:
        e_iv = timestamps_to_intervals(_column(records, "event_time", np.int64))
        m_iv = timestamps_to_intervals(_column(records, "mention_time", np.int64))
        e_iv, m_iv = e_iv.astype(np.int32), m_iv.astype(np.int32)
        return {
            "GlobalEventID": _column(records, "global_event_id", np.int64),
            "EventInterval": e_iv,
            "MentionInterval": m_iv,
            "Delay": m_iv - e_iv,
            "SourceId": self.sources.intern_many(
                [m.source_name for m in records]
            ).astype(np.int32),
            "UrlId": self.urls.intern_many(
                [m.identifier for m in records]
            ).astype(np.int32),
            "Confidence": _column(records, "confidence", np.int16),
            "DocTone": _column(records, "doc_tone", np.float32),
        }

    def freeze(self) -> tuple[dict[str, np.ndarray], StringDictionary, StringDictionary]:
        """Read-only mentions table + its dictionaries."""
        return self._freeze_table(), self.sources.build(), self.urls.build()
