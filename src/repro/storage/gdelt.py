"""The GDELT dataset layout: tables + dictionaries → one dataset directory.

:class:`~repro.storage.writer.DatasetWriter` is schema-agnostic; this
module is the one place that knows what a *GDELT* dataset looks like on
disk — which columns are dictionary codes and which columns the
compression codecs apply to.
Raw conversion, the synthetic fast path and the shard splitter all end
in :func:`write_gdelt_dataset`; :meth:`GdeltStore.open` is its reader.

Tables (see ``docs/FORMAT.md``):

* ``events``: GlobalEventID i64, DayInterval i32 (midnight interval of
  the event day), RootCode u8, QuadClass u8, NumMentions/NumSources/
  NumArticles i32, AvgTone f32, CountryCode i16 (``countries`` dict,
  code 0 = untagged), AddedInterval i32, SourceURLId i32 (``event_urls``).
* ``mentions``: GlobalEventID i64, EventInterval i32, MentionInterval
  i32, Delay i32, SourceId i32 (``sources``), UrlId i32
  (``mention_urls``), Confidence i16, DocTone f32.

Events are sorted by GlobalEventID and mentions by MentionInterval;
that order is the only index (see ``docs/FORMAT.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from repro.storage.columns import StringDictionary
from repro.storage.format import Manifest
from repro.storage.reader import DatasetReader
from repro.storage.stats import DEFAULT_ZONE_CHUNK_ROWS
from repro.storage.writer import DatasetWriter

__all__ = [
    "DICTIONARIES",
    "DICTIONARY_COLUMNS",
    "COMPRESSED_CODECS",
    "write_gdelt_dataset",
]

#: The dictionaries a GDELT dataset may hold, in the order a store lists
#: them (:meth:`~repro.engine.store.GdeltStore.dictionaries`).
DICTIONARIES = ("countries", "sources", "event_urls", "mention_urls")

#: Dictionary-coded columns per table → the dictionary they index.  A
#: binding is recorded only when that dictionary is written too (URL
#: dictionaries are optional; their id columns then hold -1).
DICTIONARY_COLUMNS = {
    "events": {"CountryCode": "countries", "SourceURLId": "event_urls"},
    "mentions": {"SourceId": "sources", "UrlId": "mention_urls"},
}

#: Codec assignment used when compression is requested: delta-zlib for
#: near-sorted interval columns, plain zlib for the rest of the bulky
#: ones.  Key/id columns stay raw so the dataset remains partially
#: mmap-able and key searches stay zero-decode.
COMPRESSED_CODECS = {
    "events": {"DayInterval": "delta-zlib", "AvgTone": "zlib"},
    "mentions": {
        "MentionInterval": "delta-zlib",
        "EventInterval": "zlib",
        "Delay": "zlib",
        "DocTone": "zlib",
    },
}


def write_gdelt_dataset(
    out_dir: Path,
    events: Mapping[str, np.ndarray],
    mentions: Mapping[str, np.ndarray],
    dictionaries: Mapping[str, StringDictionary | DatasetReader],
    compress: bool = False,
    zone_chunk_rows: int | None = None,
    meta: dict | None = None,
) -> Manifest:
    """Write binary-layout tables + dictionaries as a dataset directory.

    ``mentions`` may be any row subset (a shard's slice).  The arrays
    are written as given, never copied, and taken one column at a
    time: ``events``/``mentions`` may be mappings that load each column
    (or slice) only when asked, and a dictionary may be given as the
    source dataset whose files are copied (see
    :meth:`DatasetWriter.add_dictionary`) — together that is how a shard
    split streams a dataset instead of holding it.

    Args:
        compress: write the bulky columns with :data:`COMPRESSED_CODECS`
            (same data, smaller files, those columns no longer mmap).
        zone_chunk_rows: zone-map granularity; ``None`` is the format
            default (:data:`DEFAULT_ZONE_CHUNK_ROWS`) — every dataset
            written here carries zone maps.
        meta: free-form manifest meta (``origin``, counts, shard stamp).
    """
    writer = DatasetWriter(
        out_dir,
        zone_chunk_rows=(
            DEFAULT_ZONE_CHUNK_ROWS if zone_chunk_rows is None else zone_chunk_rows
        ),
    )
    for table, columns in (("events", events), ("mentions", mentions)):
        writer.add_table(
            table,
            columns,
            dictionaries={
                col: name
                for col, name in DICTIONARY_COLUMNS[table].items()
                if name in dictionaries
            },
            codecs=COMPRESSED_CODECS[table] if compress else None,
        )
    for name, dictionary in dictionaries.items():
        writer.add_dictionary(name, dictionary)
    return writer.finish(meta=meta)
