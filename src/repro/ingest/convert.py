"""Raw archives → indexed binary dataset (the preprocessing tool).

Batch conversion is the live follower run once: one
:meth:`~repro.ingest.stream.LiveFollower.poll` walks every chunk the
master file list references (fetch with retry/quarantine, validate rows,
dictionary-encode strings), ``finalize_missing`` audits the archives
that never showed up, the accumulated rows are frozen into sorted
tables, and :func:`repro.storage.gdelt.write_gdelt_dataset` (which owns
the on-disk layout) writes one binary dataset directory.  What batch
mode adds is the checkpoint journal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ingest.checkpoint import CheckpointJournal
from repro.ingest.fetch import RetryPolicy
from repro.ingest.stream import LiveFollower
from repro.ingest.validate import ProblemReport
from repro.kernels import distinct
from repro.obs.trace import span as _span
from repro.storage.gdelt import write_gdelt_dataset

__all__ = ["ConversionResult", "convert_raw_to_binary"]

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class ConversionResult:
    """What the converter produced."""

    dataset_dir: Path
    report: ProblemReport
    n_events: int
    n_mentions: int
    n_sources: int
    n_intervals: int


def convert_raw_to_binary(
    raw_dir: Path,
    out_dir: Path,
    verify_checksums: bool = False,
    compress: bool = False,
    checkpoint: bool = True,
    retry_policy: RetryPolicy | None = None,
) -> ConversionResult:
    """Run the full preprocessing pipeline.

    Args:
        raw_dir: mirror directory holding ``masterfilelist.txt`` and chunk
            archives.
        out_dir: destination dataset directory.
        verify_checksums: md5-verify each archive against the master list.
        compress: write bulky columns with the compression codecs (the
            dataset loads identically; it just cannot be fully mmap-ed).
        checkpoint: journal each parsed chunk so a killed conversion
            resumes from the last committed chunk (see
            :mod:`repro.ingest.checkpoint`).  The journal lives inside
            ``out_dir`` and is removed once the dataset is written.
        retry_policy: fetch retry/backoff policy (default
            :class:`RetryPolicy`); archives that keep failing are
            quarantined, not fatal.

    Returns:
        :class:`ConversionResult` with the Table II problem report.
    """
    raw_dir = Path(raw_dir)
    out_dir = Path(out_dir)
    master_path = raw_dir / "masterfilelist.txt"
    if not master_path.exists():  # a live mirror may not have one yet; a batch must
        raise FileNotFoundError(master_path)

    journal = CheckpointJournal(out_dir) if checkpoint else None
    follower = LiveFollower(
        raw_dir,
        verify_checksums=verify_checksums,
        retry_policy=retry_policy,
        journal=journal,
    )
    logger.info("converting chunk archives from %s", raw_dir)
    with _span("ingest.scan_chunks") as scan_sp:
        polled = follower.poll()
        follower.finalize_missing()
        scan_sp.set(
            chunks=polled.new_chunks,
            events=follower.n_events,
            mentions=follower.n_mentions,
        )
    report = follower.report
    logger.info(
        "scanned %d events / %d mentions, %d problems",
        follower.n_events, follower.n_mentions, report.total(),
    )

    with _span("ingest.sort_index"):
        events, mentions, dictionaries = follower.freeze()
    n_sources = len(dictionaries["sources"])
    n_intervals = int(len(distinct(mentions["MentionInterval"])))
    with _span("ingest.write", compress=compress):
        write_gdelt_dataset(
            out_dir,
            events,
            mentions,
            dictionaries,
            compress=compress,
            meta={
                "origin": "raw-conversion",
                "n_events": follower.n_events,
                "n_mentions": follower.n_mentions,
                "n_sources": n_sources,
                "n_intervals": n_intervals,
                "problems_total": report.total(),
            },
        )
    if journal is not None:
        journal.discard()
    logger.info("wrote binary dataset %s", out_dir)
    return ConversionResult(
        dataset_dir=out_dir,
        report=report,
        n_events=follower.n_events,
        n_mentions=follower.n_mentions,
        n_sources=n_sources,
        n_intervals=n_intervals,
    )
