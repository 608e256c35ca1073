"""How a mirror archive becomes accumulated rows (batch and real-time).

GDELT publishes two new archives every 15 minutes; the paper's system is
"capable of reading the entire GDELT database and extracting information
in real time".  :class:`LiveFollower` is that mode *and* the batch
converter's scan: it re-reads the master file list, ingests only chunks
it has not seen (fetch with retry/quarantine → open → parse → validate
→ accumulate, in ``(interval, kind)`` order so dictionary codes are
reproducible), and serves consistent point-in-time snapshots as fully
functional :class:`~repro.engine.store.GdeltStore` objects.
:func:`~repro.ingest.convert.convert_raw_to_binary` is one
:meth:`~LiveFollower.poll` plus :meth:`~LiveFollower.finalize_missing`
with a checkpoint journal attached.

Rows land in typed, append-only column buffers
(:mod:`repro.ingest.accumulate`) that stay sorted as they grow, so a
snapshot sorts only the rows that arrived since the previous one and
hands :meth:`GdeltStore.from_arrays` read-only views of the shared
sorted prefix, with nothing further to build.  Nothing is ever
dropped or rewritten, so each snapshot strictly extends the previous one
and older snapshots keep their contents.  A poll re-parses the master
list only when its text changed, and lists the mirror once.
"""

from __future__ import annotations

import logging
import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.engine.store import GdeltStore
from repro.faults.injector import fault_point
from repro.gdelt.csv_io import event_columns, mention_columns, open_chunk_text
from repro.gdelt.masterlist import EXPORT_KIND, ChunkRef, parse_master_list
from repro.ingest.accumulate import EventAccumulator, MentionAccumulator
from repro.ingest.checkpoint import CheckpointJournal
from repro.ingest.fetch import LocalFetcher, RetryingFetcher, RetryPolicy
from repro.ingest.validate import ProblemReport
from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs.trace import span as _span

__all__ = ["PollResult", "LiveFollower"]

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class PollResult:
    """What one poll of the master list brought in."""

    new_chunks: int
    new_events: int
    new_mentions: int

    @property
    def idle(self) -> bool:
        return self.new_chunks == 0


class LiveFollower:
    """Incrementally ingests a growing raw GDELT mirror.

    Usage::

        follower = LiveFollower(raw_dir)
        while True:
            result = follower.poll()
            if not result.idle:
                store = follower.snapshot()
                ...  # run queries on the fresh snapshot

    Archives are fetched through a :class:`RetryingFetcher`
    (``retry_policy``; backoff sleeps on the polling thread), so flaky
    reads are retried and archives that keep failing are quarantined in
    :attr:`report` instead of stopping the feed.  With a ``journal``,
    every parsed chunk is committed to it and chunks it already holds
    are replayed instead of fetched (crash-resume for batch conversion).
    """

    def __init__(
        self,
        raw_dir: Path,
        verify_checksums: bool = False,
        retry_policy: RetryPolicy | None = None,
        journal: CheckpointJournal | None = None,
    ) -> None:
        self.raw_dir = Path(raw_dir)
        self.report = ProblemReport()
        self._fetcher = RetryingFetcher(
            LocalFetcher(self.raw_dir, verify_checksums=verify_checksums),
            policy=retry_policy,
        )
        self._journal = journal
        self._seen_urls: set[str] = set()
        self._seen_malformed: set[str] = set()
        self._master_text: str | None = None
        self._listed: list[tuple[ChunkRef, str]] = []
        self._events = EventAccumulator()
        self._mentions = MentionAccumulator()

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def n_mentions(self) -> int:
        return len(self._mentions)

    def _unseen(self) -> list[tuple[ChunkRef, str]]:
        """``(ref, archive name)`` of every listed chunk not yet handled,
        in ``(interval, kind)`` order; new malformed lines are recorded."""
        master_path = self.raw_dir / "masterfilelist.txt"
        if not master_path.exists():
            return []
        text = master_path.read_text(encoding="utf-8")
        if text != self._master_text:  # the same text parses the same
            with _span("ingest.parse_master"):
                parsed = parse_master_list(text)
            fresh = [m for m in parsed.malformed_lines if m not in self._seen_malformed]
            self._seen_malformed.update(fresh)
            for line in fresh:
                self.report.note("malformed_master_entries", line[:120])
            self._master_text = text
            self._listed = [
                (ref, ref.entry.url.rsplit("/", 1)[-1])
                for ref in sorted(parsed.chunks, key=lambda c: (c.interval, c.kind))
            ]
        return [
            (ref, name) for ref, name in self._listed
            if ref.entry.url not in self._seen_urls
        ]

    def _present(self) -> set[str]:
        """Names of the files in the mirror right now."""
        return set(os.listdir(self.raw_dir))

    def _parse_chunk_lines(self, kind: str, lines: list[str], name: str) -> int:
        """Parse and accumulate one chunk's lines; returns the rows kept.

        Fetched archives and checkpoint replay both come through here, so
        they leave identical accumulator, dictionary, and problem-report
        state.
        """
        if kind == EXPORT_KIND:
            parse, acc, bad_kind = event_columns, self._events, "bad_event_rows"
        else:
            parse, acc, bad_kind = mention_columns, self._mentions, "bad_mention_rows"
        columns, bad = parse(lines)
        for _, message in bad:
            self.report.note(bad_kind, f"{name}: {message}")
        acc.extend(columns, self.report)
        return len(columns["global_event_id"])

    def _ingest_archive(self, ref: ChunkRef, name: str) -> None:
        """Fetch, open, parse and (with a journal) commit one archive."""
        res = self._fetcher.fetch(ref, self.report)
        if res.path is None:
            return  # quarantined (or vanished since the exists() check)
        if res.checksum_ok is False:
            # A truncated upload or on-disk corruption, recorded by the
            # fetcher: skipped *before* parsing so bad rows can never
            # reach the accumulators (and therefore never a snapshot).
            _metrics.counter("live_checksum_skips_total").inc()
            return
        t0 = time.perf_counter()
        try:
            with open_chunk_text(res.path) as fh:
                text = fh.read()  # one 15-minute file; the journal needs it whole
        except (zipfile.BadZipFile, zlib.error, EOFError, ValueError, OSError) as exc:
            # ValueError covers a member that is not UTF-8 and a zip that
            # holds more than one member.
            self.report.note("corrupt_archives", f"{name}: {exc}")
            return
        rows = self._parse_chunk_lines(ref.kind, text.split("\n"), name)
        if self._journal is not None:
            self._journal.commit(name, text)
            # Crash-resume test hook: the chunk is committed, the run may
            # "die" here and must resume from the next chunk.
            fault_point("convert.commit", key=name)
        dt = time.perf_counter() - t0
        if _obs._enabled:
            _metrics.counter("ingest_archives_total", kind=ref.kind).inc()
            _metrics.counter("ingest_rows_total", kind=ref.kind).inc(rows)
            _metrics.histogram("ingest_archive_seconds").observe(dt)
        logger.debug(
            "%s: %d rows in %.3fs (%.0f rows/s)",
            name, rows, dt, rows / dt if dt > 0 else 0.0,
        )

    def poll(self) -> PollResult:
        """Ingest chunks that appeared since the last poll.

        Corrupt, checksum-failing and quarantined archives and malformed
        master lines are recorded in :attr:`report`; a missing archive
        is retried on every poll until it appears (GDELT uploads can lag
        the master list) and only :meth:`finalize_missing` records it.
        """
        pending = self._unseen()
        present = self._present() if pending else set()
        ev_before, mt_before = len(self._events), len(self._mentions)
        new_chunks = resumed = 0
        with _span("ingest.poll") as sp:
            for ref, name in pending:
                cached = (
                    self._journal.get_text(name)
                    if self._journal is not None
                    else None
                )
                if cached is None and name not in present:
                    continue  # not marked seen: retried next poll
                self._seen_urls.add(ref.entry.url)
                new_chunks += 1
                if cached is not None:
                    self._parse_chunk_lines(ref.kind, cached.split("\n"), name)
                    resumed += 1
                else:
                    self._ingest_archive(ref, name)
            self._events.flush()
            self._mentions.flush()
            sp.set(chunks=new_chunks)
        if resumed:
            _metrics.counter("ingest_chunks_resumed_total").inc(resumed)
            logger.info("resumed %d chunks from the checkpoint journal", resumed)

        result = PollResult(
            new_chunks=new_chunks,
            new_events=len(self._events) - ev_before,
            new_mentions=len(self._mentions) - mt_before,
        )
        if _obs._enabled:
            _metrics.counter("live_polls_total").inc()
            _metrics.counter("live_chunks_total").inc(result.new_chunks)
            _metrics.counter("live_rows_total", table="events").inc(result.new_events)
            _metrics.counter("live_rows_total", table="mentions").inc(
                result.new_mentions
            )
        if not result.idle:
            logger.info(
                "poll: +%d chunks, +%d events, +%d mentions",
                result.new_chunks, result.new_events, result.new_mentions,
            )
        return result

    def finalize_missing(self) -> int:
        """Record still-missing referenced archives (end-of-run audit).

        Returns the number recorded.
        """
        n = 0
        pending = self._unseen()
        present = self._present() if pending else set()
        for ref, name in pending:
            if name not in present:
                self.report.note("missing_archives", name)
                self._seen_urls.add(ref.entry.url)
                n += 1
        return n

    def freeze(self) -> tuple[dict, dict, dict]:
        """Sorted ``(events, mentions, dictionaries)`` of everything
        ingested, in the layout :meth:`GdeltStore.from_arrays` and the
        dataset writer take: read-only views that later polls never
        change."""
        events, countries, event_urls = self._events.freeze()
        mentions, sources, mention_urls = self._mentions.freeze()
        return events, mentions, {
            "countries": countries,
            "sources": sources,
            "event_urls": event_urls,
            "mention_urls": mention_urls,
        }

    def snapshot(self) -> GdeltStore:
        """A consistent point-in-time store over everything ingested."""
        return GdeltStore.from_arrays(*self.freeze())
