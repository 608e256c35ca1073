"""Top-level synthetic dataset assembly and raw-archive export.

:func:`generate_dataset` runs the full pipeline (catalog → events →
mentions) and resolves the event-table bookkeeping that GDELT itself
derives from scraping: ``DATEADDED`` (capture time of the first article),
the seed ``SOURCEURL``, and the ``NumMentions``/``NumSources``/
``NumArticles`` counters.  An event's ``SOURCEURL`` is by definition its
seed mention's URL, so the URLs are built once per export:
:meth:`SyntheticDataset.mention_urls`, which the raw export reads by
seed-mention code and the binary path gathers into
:meth:`SyntheticDataset.event_urls`.

:func:`write_raw_archives` serializes a dataset into the exact on-disk
layout the paper's preprocessing tool consumes: ``masterfilelist.txt``
plus one zipped TSV per (chunk, table).  Chunks may aggregate several
15-minute intervals (``chunk_intervals``) to keep file counts sane at
reduced scale; the naming and formats are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.gdelt.codes import COUNTRIES
from repro.gdelt.csv_io import event_lines, mention_lines, write_chunk_zip
from repro.gdelt.masterlist import (
    EXPORT_KIND,
    MENTIONS_KIND,
    MasterListEntry,
    chunk_basename,
    format_master_list,
)
from repro.gdelt.time_util import intervals_to_timestamps
from repro.kernels import distinct, stable_order
from repro.storage.columns import StringDictionary, concat_gather
from repro.synth.config import SynthConfig
from repro.synth.events import EventTable, generate_events
from repro.synth.mentions import MentionTable, generate_mentions
from repro.synth.sources import SourceCatalog, build_source_catalog

__all__ = ["SyntheticDataset", "generate_dataset", "write_raw_archives"]


@dataclass(slots=True)
class SyntheticDataset:
    """A fully generated synthetic GDELT corpus (in memory).

    ``first_interval``/``seed_mention`` give, per event row, the capture
    interval of its first article and the mention-row index of that
    article (GDELT's DATEADDED / SOURCEURL semantics).
    """

    cfg: SynthConfig
    catalog: SourceCatalog
    events: EventTable
    mentions: MentionTable
    first_interval: np.ndarray
    seed_mention: np.ndarray
    num_articles: np.ndarray
    num_sources: np.ndarray

    @property
    def n_events(self) -> int:
        return self.events.n_events

    @property
    def n_articles(self) -> int:
        return self.mentions.n_mentions

    def article_urls(
        self, source: np.ndarray, event_row: np.ndarray, repeat_k: np.ndarray
    ) -> StringDictionary:
        """The article URL rule: entry i is the URL of the
        ``repeat_k[i]``-th article source ``source[i]`` published about
        event row ``event_row[i]`` —
        ``https://{domain}/news/{stem}``, plus ``-{k}`` when k > 0.  The
        stem is the event id, behind a human-readable slug for the
        headline events (so the Table III URL column reads like the
        paper's).

        Built by gathering bytes from three small dictionaries (site
        heads, event stems, repeat suffixes), not formatted per row.
        """
        ev = self.events
        stems = list(map(str, ev.event_id.tolist()))
        for row in np.flatnonzero(ev.mega_idx >= 0).tolist():
            slug = self.cfg.mega_events[ev.mega_idx[row]].slug
            if slug:
                stems[row] = f"{slug}-{stems[row]}"
        heads = [f"https://{domain}/news/" for domain in self.catalog.domains]
        n_suffixes = int(np.max(repeat_k, initial=0)) + 1
        suffixes = [""] + [f"-{k}" for k in range(1, n_suffixes)]
        return concat_gather([
            (StringDictionary.from_strings(heads), source),
            (StringDictionary.from_strings(stems), event_row),
            (StringDictionary.from_strings(suffixes), repeat_k),
        ])

    def mention_urls(self) -> StringDictionary:
        """URL of every mention row (GDELT's ``MentionIdentifier``)."""
        mt = self.mentions
        return self.article_urls(mt.source_idx, mt.event_row, mt.repeat_k)

    def event_urls(self, mention_urls: StringDictionary) -> StringDictionary:
        """SOURCEURL of every event row: the URL of its first captured
        article, gathered from :meth:`mention_urls`' dictionary, so the
        URLs are built once."""
        return concat_gather([(mention_urls, self.seed_mention)])


def _first_mentions(
    events: EventTable, mentions: MentionTable
) -> tuple[np.ndarray, np.ndarray]:
    """(first capture interval, first mention row) per event row.

    Mentions are already sorted by capture interval, so the first hit per
    event in array order is the seed article.
    """
    n_ev = events.n_events
    first_interval = np.full(n_ev, -1, dtype=np.int64)
    seed_mention = np.full(n_ev, -1, dtype=np.int64)
    # Reverse iteration via vectorized trick: for sorted mentions, assign
    # positions back-to-front so the earliest occurrence wins.
    rows = mentions.event_row
    # Fancy-index assignment applies writes in index order, so writing in
    # reverse mention order leaves each event holding its earliest mention.
    seed_mention[rows[::-1]] = np.arange(len(rows), dtype=np.int64)[::-1]
    valid = seed_mention >= 0
    first_interval[valid] = mentions.interval[seed_mention[valid]]
    return first_interval, seed_mention


def generate_dataset(cfg: SynthConfig) -> SyntheticDataset:
    """Generate a complete synthetic corpus for ``cfg`` (deterministic)."""
    rng = np.random.default_rng(cfg.seed)
    catalog = build_source_catalog(cfg, rng)
    events = generate_events(cfg, rng)
    mentions = generate_mentions(cfg, catalog, events, rng)

    first_interval, seed_mention = _first_mentions(events, mentions)
    num_articles = np.bincount(
        mentions.event_row, minlength=events.n_events
    ).astype(np.int64)

    # Distinct sources per event via unique (event, source) pairs.
    key = mentions.event_row * np.int64(catalog.n_sources) + mentions.source_idx
    uniq = distinct(key)
    num_sources = np.bincount(
        (uniq // catalog.n_sources).astype(np.int64), minlength=events.n_events
    ).astype(np.int64)

    return SyntheticDataset(
        cfg=cfg,
        catalog=catalog,
        events=events,
        mentions=mentions,
        first_interval=first_interval,
        seed_mention=seed_mention,
        num_articles=num_articles,
        num_sources=num_sources,
    )


def _event_columns(ds: SyntheticDataset, mention_urls: StringDictionary) -> dict:
    """Every event field of :func:`~repro.gdelt.csv_io.event_lines` as a
    column over event rows; text as ``(dictionary, codes)``, so a row's
    URL is its seed mention's entry of ``mention_urls``."""
    ev = ds.events
    root = ev.root_code.astype(np.int64)
    codes = range(int(root.max(initial=0)) + 1)
    fips = [c.fips for c in COUNTRIES] + [""]  # the last: untagged (-1)
    return {
        "global_event_id": ev.event_id,
        "day": intervals_to_timestamps(ev.interval) // 10**6,
        "event_root_code": (StringDictionary.from_strings(f"{r:02d}" for r in codes), root),
        "quad_class": (root - 1) // 5 + 1,
        "num_mentions": ds.num_articles,
        "num_sources": ds.num_sources,
        "num_articles": ds.num_articles,
        "avg_tone": ev.avg_tone,
        "action_geo_country": (
            StringDictionary.from_strings(fips),
            np.where(ev.country_idx < 0, len(COUNTRIES), ev.country_idx),
        ),
        "date_added": intervals_to_timestamps(ds.first_interval),
        "source_url": (mention_urls, ds.seed_mention),
    }


def _mention_columns(ds: SyntheticDataset, mention_urls: StringDictionary) -> dict:
    """Every mention field of :func:`~repro.gdelt.csv_io.mention_lines`
    as a column over mention rows (see :func:`_event_columns`)."""
    mt, ev = ds.mentions, ds.events
    return {
        "global_event_id": ev.event_id[mt.event_row],
        "event_time": intervals_to_timestamps(ev.interval)[mt.event_row],
        "mention_time": intervals_to_timestamps(mt.interval),
        "source_name": (StringDictionary.from_strings(ds.catalog.domains), mt.source_idx),
        "identifier": (mention_urls, np.arange(ds.n_articles)),
        "confidence": mt.confidence,
        "doc_tone": mt.doc_tone,
    }


def _take(columns: dict, rows: np.ndarray) -> dict:
    """Rows ``rows`` of every column (of a text column, its codes)."""
    return {
        name: (col[0], col[1][rows]) if isinstance(col, tuple) else col[rows]
        for name, col in columns.items()
    }


#: Threads that deflate, hash and write archives while the main thread
#: renders: zlib, md5 and file writes release the GIL.
_WRITERS = 2

#: Rows rendered per buffer, in whole chunks: a table this size renders
#: as one buffer, a larger one in a few, so an export's memory follows
#: the block (~0.5 KB a row at its peak), not the table.
_RENDER_ROWS = 1 << 16


def write_raw_archives(
    ds: SyntheticDataset,
    out_dir: Path,
    chunk_intervals: int = 96,
) -> Path:
    """Export the dataset as raw GDELT archives + master file list.

    Events land in the chunk containing their DATEADDED capture interval,
    mentions in the chunk containing their capture interval — mirroring
    GDELT's publish-when-scraped behaviour.  Each table is rendered once,
    in chunk order, into one byte buffer
    (:func:`~repro.gdelt.csv_io.event_lines`; past ``_RENDER_ROWS`` rows,
    one per block of whole chunks), and each archive's text is a slice
    of it; the archives are deflated and written on a small thread pool
    while the rendering goes on, and listed in chunk order.  Returns the
    master list path.
    """
    from concurrent.futures import ThreadPoolExecutor  # lazy: only an export starts threads

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = ds.cfg.start_interval
    n_chunks = int(np.ceil((ds.cfg.end_interval - start) / chunk_intervals))

    urls = ds.mention_urls()
    written = {}  # (chunk, table) → (archive name, future of its size and md5)
    with ThreadPoolExecutor(_WRITERS) as pool:
        for table, (kind, chunk_of, fields, lines) in enumerate((
            (EXPORT_KIND, ds.first_interval, _event_columns, event_lines),
            (MENTIONS_KIND, ds.mentions.interval, _mention_columns, mention_lines),
        )):
            chunk_of = (chunk_of - start) // chunk_intervals
            order = stable_order(chunk_of)
            bounds = np.searchsorted(chunk_of[order], np.arange(n_chunks + 1))
            columns = fields(ds, urls)
            first = 0
            while first < n_chunks:  # chunks [first, last) render as one buffer
                last = int(np.searchsorted(bounds, bounds[first] + _RENDER_ROWS, side="right")) - 1
                last = min(max(last, first + 1), n_chunks)
                rows = order[bounds[first]:bounds[last]]
                offsets, text = lines(_take(columns, rows)).arrays
                at = offsets[bounds[first:last + 1] - bounds[first]].tolist()  # chunk starts
                for chunk, lo, hi in zip(range(first, last), at, at[1:]):
                    if hi > lo:
                        name = chunk_basename(start + chunk * chunk_intervals, kind)
                        future = pool.submit(write_chunk_zip, out_dir / name, name[: -len(".zip")], text[lo:hi])
                        written[chunk, table] = name, future
                first = last
        entries = [
            MasterListEntry(*future.result(), url=name)
            for _, (name, future) in sorted(written.items())
        ]

    master = out_dir / "masterfilelist.txt"
    master.write_text(format_master_list(entries), encoding="utf-8")
    return master
