"""Top-level synthetic dataset assembly and raw-archive export.

:func:`generate_dataset` runs the full pipeline (catalog → events →
mentions) and resolves the event-table bookkeeping that GDELT itself
derives from scraping: ``DATEADDED`` (capture time of the first article),
the seed ``SOURCEURL``, and the ``NumMentions``/``NumSources``/
``NumArticles`` counters.  An event's ``SOURCEURL`` is by definition its
seed mention's URL, so the URL dictionaries are built once per export:
:meth:`SyntheticDataset.mention_urls`, then
:meth:`SyntheticDataset.event_urls` gathered from it.

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
    chunk_basename,
    entry_for_file,
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
    column over event rows (the URLs as a dictionary whose code is the row)."""
    ev = ds.events
    root = ev.root_code.astype(np.int64)
    codes = range(int(root.max(initial=0)) + 1)
    two_digit = np.array([f"{r:02d}" for r in codes], dtype=object)
    fips = np.array([c.fips for c in COUNTRIES] + [""], dtype=object)
    return {
        "global_event_id": ev.event_id,
        "day": intervals_to_timestamps(ev.interval) // 10**6,
        "event_root_code": two_digit[root],
        "quad_class": (root - 1) // 5 + 1,
        "num_mentions": ds.num_articles,
        "num_sources": ds.num_sources,
        "num_articles": ds.num_articles,
        "avg_tone": ev.avg_tone,
        "action_geo_country": fips[ev.country_idx],
        "date_added": intervals_to_timestamps(ds.first_interval),
        "source_url": ds.event_urls(mention_urls),
    }


def _mention_columns(ds: SyntheticDataset, mention_urls: StringDictionary) -> dict:
    """Every mention field of :func:`~repro.gdelt.csv_io.mention_lines`
    as a column over mention rows (the URLs as a dictionary, code = row)."""
    mt, ev = ds.mentions, ds.events
    return {
        "global_event_id": ev.event_id[mt.event_row],
        "event_time": intervals_to_timestamps(ev.interval)[mt.event_row],
        "mention_time": intervals_to_timestamps(mt.interval),
        "source_name": np.array(ds.catalog.domains, dtype=object)[mt.source_idx],
        "identifier": mention_urls,
        "confidence": mt.confidence,
        "doc_tone": mt.doc_tone,
    }


def _take(columns: dict, rows: np.ndarray) -> dict[str, list]:
    """Rows ``rows`` of every column, as Python lists."""
    return {
        name: col.take(rows) if isinstance(col, StringDictionary) else col[rows].tolist()
        for name, col in columns.items()
    }


def write_raw_archives(
    ds: SyntheticDataset,
    out_dir: Path,
    chunk_intervals: int = 96,
) -> Path:
    """Export the dataset as raw GDELT archives + master file list.

    Events land in the chunk containing their DATEADDED capture interval,
    mentions in the chunk containing their capture interval — mirroring
    GDELT's publish-when-scraped behaviour.  Each archive's text is
    rendered from columns (:func:`~repro.gdelt.csv_io.event_lines`), not
    row by row.  Returns the master list path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = ds.cfg.start_interval
    end = ds.cfg.end_interval

    ev_chunk = (ds.first_interval - start) // chunk_intervals
    mt_chunk = (ds.mentions.interval - start) // chunk_intervals
    n_chunks = int(np.ceil((end - start) / chunk_intervals))

    urls = ds.mention_urls()
    tables = []
    for kind, chunk_of, columns, lines in (
        (EXPORT_KIND, ev_chunk, _event_columns(ds, urls), event_lines),
        (MENTIONS_KIND, mt_chunk, _mention_columns(ds, urls), mention_lines),
    ):
        order = stable_order(chunk_of)
        tables.append((kind, order, chunk_of[order], columns, lines))
    entries = []
    for chunk in range(n_chunks):
        interval0 = start + chunk * chunk_intervals
        for kind, order, chunk_sorted, columns, lines in tables:
            lo, hi = np.searchsorted(chunk_sorted, [chunk, chunk + 1])
            if hi > lo:
                text = "".join(lines(_take(columns, order[lo:hi])))
                name = chunk_basename(interval0, kind)
                path = out_dir / name
                write_chunk_zip(path, name[: -len(".zip")], text)
                entries.append(entry_for_file(path))

    master = out_dir / "masterfilelist.txt"
    master.write_text(format_master_list(entries), encoding="utf-8")
    return master
