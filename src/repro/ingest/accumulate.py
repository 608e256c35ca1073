"""Typed, append-only column buffers behind the live follower.

The follower hands each archive's parsed field columns
(:func:`~repro.gdelt.csv_io.event_columns`) to an accumulator, which
notes their Table II problems and stages them; :meth:`flush` (at the end
of every poll, or sooner in a large one) interns their strings, casts
their values to the binary layout's dtypes (the event day and date-added
intervals computed there; root codes, mention intervals and ``Delay``
as the parse's bound checks computed them) and appends them to one
amortised-doubling NumPy buffer per column.  :meth:`freeze`
stable-sorts the rows appended since the last freeze by the table's key
and merges them behind the rows already held, so each table is a sorted
prefix of its buffers, and returns read-only views of it.  A prefix once handed out is never written again (growth
and out-of-order merges allocate fresh buffers), so every snapshot keeps
its contents while ingest goes on, and successive snapshots share memory.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.gdelt.csv_io import event_columns, mention_columns
from repro.gdelt.time_util import timestamps_to_intervals
from repro.ingest.validate import ProblemReport
from repro.kernels import stable_order
from repro.storage.columns import (
    DictionaryBuilder,
    StringDictionary,
    ensure_capacity,
    readonly_prefix,
)

__all__ = ["EventAccumulator", "MentionAccumulator"]

#: Staged rows are converted once at least this many are waiting, and at
#: the end of every poll.  A conversion costs a fixed ~0.1 ms of NumPy
#: calls, more than appending archive by archive saves on one archive of
#: a few hundred rows; the bound keeps staged columns to a few MB in a
#: bulk poll.
_BATCH_ROWS = 4096


def _concat(parts: list[dict]) -> dict:
    """One columns dict of the staged ``parts``, in staging order."""
    return {
        name: np.concatenate([p[name] for p in parts])
        if isinstance(col, np.ndarray) else list(chain.from_iterable(p[name] for p in parts))
        for name, col in parts[0].items()
    }


class _Accumulator:
    """One table: staged field columns, then column buffers holding a
    sorted prefix of ``_sorted`` rows followed by the rows appended since."""

    __slots__ = ("_staged", "_key", "_bufs", "_sorted", "_rows")

    def __init__(self, key: str, empty: dict) -> None:
        self._staged: list[dict] = []
        self._key = key
        self._bufs = self._columns(empty)  # the layout: names, order, dtypes
        self._sorted = self._rows = 0

    def __len__(self) -> int:
        return self._rows + sum(len(f["global_event_id"]) for f in self._staged)

    def _columns(self, fields: dict) -> dict[str, np.ndarray]:
        """The table's columns of the field columns ``fields``, in the
        binary layout's order and dtypes (:mod:`repro.storage.gdelt`)."""
        raise NotImplementedError

    def _stage(self, fields: dict) -> None:
        self._staged.append(fields)
        if len(self) - self._rows >= _BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Convert the staged rows and append them to the buffers."""
        if not self._staged:
            return
        columns = self._columns(_concat(self._staged))
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
            order = stable_order(key[lo:hi])
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
        super().__init__("GlobalEventID", event_columns(b"")[0])

    def extend(self, fields: dict, report: ProblemReport) -> None:
        """Note the Table II problems of one archive's parsed rows, in
        row order, and take the rows (never raises on content)."""
        missing = np.array([not url for url in fields["source_url"]], dtype=bool)
        future = fields["day"] * 10**6 > fields["date_added"]  # midnight YYYYMMDD000000
        ids = fields["global_event_id"]
        for row in np.flatnonzero(missing | future):
            if missing[row]:
                report.note("missing_source_urls", str(ids[row]))
            if future[row]:
                report.note("future_event_dates", str(ids[row]))
        self._stage(fields)

    def _columns(self, fields: dict) -> dict[str, np.ndarray]:
        return {
            "GlobalEventID": fields["global_event_id"],
            "DayInterval": timestamps_to_intervals(fields["day"] * 10**6).astype(np.int32),
            "RootCode": fields["RootCode"].astype(np.uint8),
            "QuadClass": fields["quad_class"].astype(np.uint8),
            "NumMentions": fields["num_mentions"].astype(np.int32),
            "NumSources": fields["num_sources"].astype(np.int32),
            "NumArticles": fields["num_articles"].astype(np.int32),
            "AvgTone": fields["avg_tone"].astype(np.float32),
            "CountryCode": self.countries.intern_many(
                fields["action_geo_country"]
            ).astype(np.int16),
            "AddedInterval": timestamps_to_intervals(fields["date_added"]).astype(np.int32),
            "SourceURLId": self.urls.intern_many(fields["source_url"]).astype(np.int32),
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
        super().__init__("MentionInterval", mention_columns(b"")[0])

    def extend(self, fields: dict, report: ProblemReport) -> None:
        """Take one archive's parsed rows."""
        self._stage(fields)

    def _columns(self, fields: dict) -> dict[str, np.ndarray]:
        return {
            "GlobalEventID": fields["global_event_id"],
            "EventInterval": fields["EventInterval"].astype(np.int32),
            "MentionInterval": fields["MentionInterval"].astype(np.int32),
            "Delay": fields["Delay"].astype(np.int32),
            "SourceId": self.sources.intern_many(fields["source_name"]).astype(np.int32),
            "UrlId": self.urls.intern_many(fields["identifier"]).astype(np.int32),
            "Confidence": fields["confidence"].astype(np.int16),
            "DocTone": fields["doc_tone"].astype(np.float32),
        }

    def freeze(self) -> tuple[dict[str, np.ndarray], StringDictionary, StringDictionary]:
        """Read-only mentions table + its dictionaries."""
        return self._freeze_table(), self.sources.build(), self.urls.build()
