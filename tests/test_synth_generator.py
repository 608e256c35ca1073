"""Dataset assembly and raw-archive export."""

from __future__ import annotations

import dataclasses
import hashlib
import zipfile

import numpy as np
import pytest

from repro.gdelt.csv_io import event_lines, mention_lines, open_chunk_text
from repro.gdelt.codes import COUNTRIES
from repro.gdelt.masterlist import parse_master_list
from repro.gdelt.time_util import interval_to_timestamp
from repro.ingest.direct import dataset_to_arrays
from repro.synth import generate_dataset, tiny_config, write_raw_archives


def scalar_url(ds, source: int, event_row: int, repeat_k: int) -> str:
    """The article URL rule spelled per row, as the reference."""
    domain = ds.catalog.domains[source]
    k = int(ds.events.mega_idx[event_row])
    slug = ds.cfg.mega_events[k].slug if k >= 0 else None
    event_id = int(ds.events.event_id[event_row])
    stem = f"{slug}-{event_id}" if slug else str(event_id)
    suffix = f"-{repeat_k}" if repeat_k else ""
    return f"https://{domain}/news/{stem}{suffix}"


class TestDatasetAssembly:
    def test_first_interval_is_min_mention(self, tiny_ds):
        mt = tiny_ds.mentions
        want = np.full(tiny_ds.n_events, np.iinfo(np.int64).max)
        np.minimum.at(want, mt.event_row, mt.interval)
        assert np.array_equal(tiny_ds.first_interval, want)

    def test_seed_mention_is_earliest(self, tiny_ds):
        mt = tiny_ds.mentions
        sm = tiny_ds.seed_mention
        assert (sm >= 0).all()
        assert np.array_equal(
            mt.interval[sm], tiny_ds.first_interval
        )
        assert np.array_equal(mt.event_row[sm], np.arange(tiny_ds.n_events))

    def test_num_articles_matches_bincount(self, tiny_ds):
        want = np.bincount(tiny_ds.mentions.event_row, minlength=tiny_ds.n_events)
        assert np.array_equal(tiny_ds.num_articles, want)

    def test_num_sources_counts_distinct(self, tiny_ds):
        mt = tiny_ds.mentions
        row = 0
        srcs = np.unique(mt.source_idx[mt.event_row == row])
        assert tiny_ds.num_sources[row] == len(srcs)

    def test_num_sources_le_num_articles(self, tiny_ds):
        assert (tiny_ds.num_sources <= tiny_ds.num_articles).all()

    def test_determinism(self):
        a = generate_dataset(tiny_config(seed=42))
        b = generate_dataset(tiny_config(seed=42))
        assert np.array_equal(a.mentions.interval, b.mentions.interval)
        assert np.array_equal(a.mentions.source_idx, b.mentions.source_idx)
        assert a.catalog.domains == b.catalog.domains

    def test_different_seeds_differ(self):
        a = generate_dataset(tiny_config(seed=1))
        b = generate_dataset(tiny_config(seed=2))
        assert not np.array_equal(a.mentions.source_idx[:100], b.mentions.source_idx[:100])

    def test_event_seed_url_well_formed(self, tiny_ds):
        url = tiny_ds.event_urls(tiny_ds.mention_urls())[0]
        assert url.startswith("https://")
        assert str(int(tiny_ds.events.event_id[0])) in url


class TestArticleUrl:
    def test_first_article(self, tiny_ds):
        domain = tiny_ds.catalog.domains[5]
        event_id = int(tiny_ds.events.event_id[0])
        assert tiny_ds.article_urls([5], [0], [0]).to_list() == [
            f"https://{domain}/news/{event_id}"
        ]

    def test_repeat_article_distinct(self, tiny_ds):
        first, again = tiny_ds.article_urls([5, 5], [0, 0], [0, 1]).to_list()
        assert again == f"{first}-1"

    def test_mention_urls_equal_per_row_rule(self, tiny_ds):
        """Covers slug events, repeat articles and a non-ASCII domain."""
        domains = list(tiny_ds.catalog.domains)
        domains[int(tiny_ds.mentions.source_idx[0])] = "nachrichten-köln.de"
        ds = dataclasses.replace(
            tiny_ds, catalog=dataclasses.replace(tiny_ds.catalog, domains=domains)
        )
        mt = ds.mentions
        assert (ds.events.mega_idx[mt.event_row] >= 0).any()
        assert (mt.repeat_k > 0).any()
        rows = zip(mt.source_idx.tolist(), mt.event_row.tolist(), mt.repeat_k.tolist())
        want = [scalar_url(ds, s, r, k) for s, r, k in rows]
        assert ds.mention_urls().to_list() == want
        assert "https://nachrichten-köln.de/news/" in want[0]

    def test_event_urls_are_seed_article_urls(self, tiny_ds):
        mt, seed = tiny_ds.mentions, tiny_ds.seed_mention
        want = [
            scalar_url(tiny_ds, int(mt.source_idx[m]), r, int(mt.repeat_k[m]))
            for r, m in enumerate(seed.tolist())
        ]
        assert tiny_ds.event_urls(tiny_ds.mention_urls()).to_list() == want

    def test_zero_rows(self, tiny_ds):
        none = np.empty(0, dtype=np.int64)
        urls = tiny_ds.article_urls(none, none, none)
        assert len(urls) == 0 and urls.to_list() == []


def _records(ds):
    """Per-row field values of every event and mention, built the way a
    row-at-a-time exporter would (the reference for the columns)."""
    ev, mt = ds.events, ds.mentions
    events = []
    for row in range(ds.n_events):
        m = int(ds.seed_mention[row])
        ci = int(ev.country_idx[row])
        events.append(dict(
            global_event_id=int(ev.event_id[row]),
            day=interval_to_timestamp(int(ev.interval[row])) // 10**6,
            event_root_code=f"{int(ev.root_code[row]):02d}",
            quad_class=(int(ev.root_code[row]) - 1) // 5 + 1,
            num_mentions=int(ds.num_articles[row]),
            num_sources=int(ds.num_sources[row]),
            num_articles=int(ds.num_articles[row]),
            avg_tone=float(ev.avg_tone[row]),
            action_geo_country=COUNTRIES[ci].fips if ci >= 0 else "",
            date_added=interval_to_timestamp(int(ds.first_interval[row])),
            source_url=scalar_url(ds, int(mt.source_idx[m]), row, int(mt.repeat_k[m])),
        ))
    mentions = []
    for m in range(ds.n_articles):
        row, source = int(mt.event_row[m]), int(mt.source_idx[m])
        mentions.append(dict(
            global_event_id=int(ev.event_id[row]),
            event_time=interval_to_timestamp(int(ev.interval[row])),
            mention_time=interval_to_timestamp(int(mt.interval[m])),
            source_name=ds.catalog.domains[source],
            identifier=scalar_url(ds, source, row, int(mt.repeat_k[m])),
            confidence=int(mt.confidence[m]),
            doc_tone=float(mt.doc_tone[m]),
        ))
    return events, mentions


class TestRawExport:
    def test_master_list_parses_clean(self, raw_dir):
        parsed = parse_master_list(
            (raw_dir / "masterfilelist.txt").read_text(encoding="utf-8")
        )
        assert parsed.chunks
        assert not parsed.malformed_lines

    def test_all_referenced_archives_exist(self, raw_dir):
        parsed = parse_master_list(
            (raw_dir / "masterfilelist.txt").read_text(encoding="utf-8")
        )
        for c in parsed.chunks:
            assert (raw_dir / c.entry.url.rsplit("/", 1)[-1]).exists()

    def test_row_counts_roundtrip(self, raw_ds, raw_dir):
        """Total rows across chunks must equal the generated tables."""
        parsed = parse_master_list(
            (raw_dir / "masterfilelist.txt").read_text(encoding="utf-8")
        )
        n_events = n_mentions = 0
        for c in parsed.chunks:
            path = raw_dir / c.entry.url.rsplit("/", 1)[-1]
            with open_chunk_text(path) as fh:
                rows = sum(1 for line in fh if line.strip())
            if c.kind == "export":
                n_events += rows
            else:
                n_mentions += rows
        assert n_events == raw_ds.n_events
        assert n_mentions == raw_ds.n_articles

    def test_md5s_match_files(self, raw_dir):
        import hashlib

        parsed = parse_master_list(
            (raw_dir / "masterfilelist.txt").read_text(encoding="utf-8")
        )
        c = parsed.chunks[0]
        path = raw_dir / c.entry.url.rsplit("/", 1)[-1]
        assert hashlib.md5(path.read_bytes()).hexdigest() == c.entry.md5
        assert path.stat().st_size == c.entry.size

    def test_archive_text_equals_per_row_records(self, raw_ds, raw_dir):
        """Every archive line is that row's values rendered alone, in
        the order the master list lands them."""
        events, mentions = _records(raw_ds)
        start = raw_ds.cfg.start_interval
        ev_chunk = (raw_ds.first_interval - start) // 96
        mt_chunk = (raw_ds.mentions.interval - start) // 96
        parsed = parse_master_list(
            (raw_dir / "masterfilelist.txt").read_text(encoding="utf-8")
        )
        for c in parsed.chunks:
            chunk = (c.interval - start) // 96
            if c.kind == "export":
                rows = [events[r] for r in np.flatnonzero(ev_chunk == chunk)]
                render = event_lines
            else:
                rows = [mentions[m] for m in np.flatnonzero(mt_chunk == chunk)]
                render = mention_lines
            # Each row rendered alone, as a one-row column each.
            want = [render({k: [v] for k, v in row.items()})[0] for row in rows]
            with open_chunk_text(raw_dir / c.entry.url.rsplit("/", 1)[-1]) as fh:
                assert fh.read() == "".join(want)

    def test_exports_are_file_identical(self, raw_ds, raw_dir, tmp_path):
        write_raw_archives(raw_ds, tmp_path, chunk_intervals=96)
        names = sorted(p.name for p in raw_dir.iterdir())
        assert names == sorted(p.name for p in tmp_path.iterdir())
        for name in names:
            assert (raw_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
        with zipfile.ZipFile(tmp_path / names[0]) as zf:
            assert zf.infolist()[0].date_time == (1980, 1, 1, 0, 0, 0)


#: SHA-256 of ``dataset_to_arrays(generate_dataset(tiny_config(seed)))``
#: (:func:`_arrays_digest`) per seed, and of the files
#: ``write_raw_archives`` leaves for the tiny corpus at weekly chunks
#: (:func:`_dir_digest`).  A rewrite of the publisher sampler, the URL
#: builder or the string packer must reproduce these bytes exactly: the
#: benchmark corpora, and every number measured on them, depend on it.
ARRAY_DIGESTS = {
    0: "c002d3e3b74be2ce0e2a8387ee08ffc66b63bde4a5bdd68c0b987ea15fd80f8d",
    1: "8aad5d114f1c51c93ddcde715e47e172c1a2efc932739c76d153a85032611f0a",
    2: "666c18e8c681df1e1b0896f0e2e4b0f8869cd702e91d6eb864d14582438a129b",
}
RAW_DIGEST_WEEKLY = "f7fcb52db378d104b7fa258adc3e41e6aac6268019a7f5cedb03b6266a259b5a"


def _arrays_digest(ds) -> str:
    """Every column (name, dtype, length, bytes) and dictionary (offsets,
    blob) ``dataset_to_arrays`` returns, hashed in name order."""
    h = hashlib.sha256()
    events, mentions, dicts = dataset_to_arrays(ds)
    for table in (events, mentions):
        for name in sorted(table):
            col = np.ascontiguousarray(table[name])
            h.update(f"{name}:{col.dtype.str}:{len(col)};".encode())
            h.update(col.tobytes())
    for name in sorted(dicts):
        offsets, blob = dicts[name].arrays
        h.update(f"{name};".encode())
        h.update(offsets.astype("<i8").tobytes())
        h.update(blob.tobytes())
    return h.hexdigest()


def _dir_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode() + b";")
        h.update(path.read_bytes())
    return h.hexdigest()


class TestGoldenOutput:
    @pytest.mark.parametrize("seed", sorted(ARRAY_DIGESTS))
    def test_arrays_are_pinned(self, seed):
        ds = generate_dataset(tiny_config(seed=seed))
        assert _arrays_digest(ds) == ARRAY_DIGESTS[seed]

    def test_raw_archives_are_pinned(self, tiny_ds, tmp_path):
        write_raw_archives(tiny_ds, tmp_path, chunk_intervals=672)
        assert _dir_digest(tmp_path) == RAW_DIGEST_WEEKLY
