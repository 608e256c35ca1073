"""Vectorized fast path: synthetic dataset → binary layout.

Produces exactly the same tables and dictionaries as
:func:`repro.ingest.convert.convert_raw_to_binary`, but straight from the
in-memory arrays of a :class:`~repro.synth.generator.SyntheticDataset`,
skipping TSV serialization and parsing.  Benchmarks that measure *query*
performance (not ingest) build their stores this way.

Every column is array work, the URL dictionaries included: the mention
URLs are gathered from per-site, per-event and per-repeat pieces
(:meth:`~repro.synth.generator.SyntheticDataset.article_urls`), never
formatted per article, and built once — the event URLs are gathered
from them at each event's seed mention.  ``include_urls=False`` still
chooses the data shape — no URL dictionaries, -1 id columns — for
experiments that do not display URLs.

Importing this module loads the storage writer, not the rest of
:mod:`repro.ingest` (whose names resolve lazily), so a process that
only writes a synthetic dataset pays for nothing else.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.gdelt.codes import COUNTRIES
from repro.gdelt.time_util import INTERVALS_PER_DAY
from repro.kernels import distinct
from repro.storage.columns import StringDictionary
from repro.storage.gdelt import write_gdelt_dataset

if TYPE_CHECKING:  # pragma: no cover - typing only; keeps ingest off synth
    from repro.synth.generator import SyntheticDataset

__all__ = ["dataset_to_arrays", "dataset_to_binary"]


def dataset_to_arrays(
    ds: SyntheticDataset, include_urls: bool = True
) -> tuple[dict, dict, dict]:
    """Convert a synthetic dataset to binary-layout arrays.

    Returns:
        ``(events, mentions, dictionaries)`` where the dicts follow the
        column layout documented in :mod:`repro.storage.gdelt` and
        ``dictionaries`` maps dictionary names to
        :class:`~repro.storage.columns.StringDictionary` (URL dictionaries
        are omitted when ``include_urls`` is false, and the corresponding
        id columns hold -1).
    """
    ev, mt, cat = ds.events, ds.mentions, ds.catalog

    # countries dictionary: code 0 = untagged, then roster order for
    # countries actually present.
    present = distinct(ev.country_idx[ev.country_idx >= 0])
    code_of = np.full(len(COUNTRIES), 0, dtype=np.int16)
    names = [""]
    for c in present:
        code_of[c] = len(names)
        names.append(COUNTRIES[int(c)].fips)
    countries_dict = StringDictionary.from_strings(names)
    ev_country_code = np.where(
        ev.country_idx >= 0, code_of[np.clip(ev.country_idx, 0, None)], 0
    ).astype(np.int16)

    day_interval = ((ev.interval // INTERVALS_PER_DAY) * INTERVALS_PER_DAY).astype(
        np.int32
    )

    events = {
        "GlobalEventID": ev.event_id.astype(np.int64),
        "DayInterval": day_interval,
        "RootCode": ev.root_code.astype(np.uint8),
        "QuadClass": ((ev.root_code.astype(np.int16) - 1) // 5 + 1).astype(np.uint8),
        "NumMentions": ds.num_articles.astype(np.int32),
        "NumSources": ds.num_sources.astype(np.int32),
        "NumArticles": ds.num_articles.astype(np.int32),
        "AvgTone": ev.avg_tone.astype(np.float32),
        "CountryCode": ev_country_code,
        "AddedInterval": ds.first_interval.astype(np.int32),
    }
    mentions = {
        "GlobalEventID": ev.event_id[mt.event_row].astype(np.int64),
        "EventInterval": ev.interval[mt.event_row].astype(np.int32),
        "MentionInterval": mt.interval.astype(np.int32),
        "Delay": mt.delay.astype(np.int32),
        "SourceId": mt.source_idx.astype(np.int32),
        "Confidence": mt.confidence.astype(np.int16),
        "DocTone": mt.doc_tone.astype(np.float32),
    }

    dictionaries: dict[str, StringDictionary] = {
        "countries": countries_dict,
        "sources": StringDictionary.from_strings(cat.domains),
    }

    if include_urls:
        urls = ds.mention_urls()
        dictionaries["mention_urls"] = urls
        mentions["UrlId"] = np.arange(mt.n_mentions, dtype=np.int32)
        dictionaries["event_urls"] = ds.event_urls(urls)
        events["SourceURLId"] = np.arange(ev.n_events, dtype=np.int32)
    else:
        mentions["UrlId"] = np.full(mt.n_mentions, -1, dtype=np.int32)
        events["SourceURLId"] = np.full(ev.n_events, -1, dtype=np.int32)

    return events, mentions, dictionaries


def dataset_to_binary(
    ds: SyntheticDataset,
    out_dir: Path,
    include_urls: bool = True,
    compress: bool = False,
    zone_chunk_rows: int | None = None,
) -> Path:
    """Write a synthetic dataset as a binary dataset directory.

    With ``compress=True`` the bulky interval/tone columns are written
    with the compression codecs (same data, smaller files, no mmap).
    ``zone_chunk_rows`` overrides the zone-map granularity (None keeps
    the format default).
    """
    events, mentions, dictionaries = dataset_to_arrays(ds, include_urls=include_urls)
    write_gdelt_dataset(
        out_dir,
        events,
        mentions,
        dictionaries,
        compress=compress,
        zone_chunk_rows=zone_chunk_rows,
        meta={
            "origin": "synthetic-direct",
            "n_events": int(ds.n_events),
            "n_mentions": int(ds.n_articles),
            "n_sources": int(ds.catalog.n_sources),
            "seed": int(ds.cfg.seed),
        },
    )
    return Path(out_dir)
