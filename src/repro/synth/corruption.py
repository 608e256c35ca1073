"""Defect injection for raw GDELT archives.

The paper's Table II reports four defect classes found while converting
the real dump: 53 malformed master-list entries, 8 missing chunk
archives, 1 event with an empty source URL, and 4 events whose recorded
date lies *after* their first article's publication date.  This module
plants a configurable number of each defect into an exported raw-archive
directory, so the preprocessing validator has real work to do and the
Table II benchmark can compare found-vs-planted counts exactly.  A
rewritten archive goes through the exporter's own writer and its
master-list entry gets the new size and md5, so a checksum-verified
conversion still reaches the planted rows, and one plan always gives
the same bytes.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.gdelt.csv_io import chunk_member, write_chunk_zip
from repro.gdelt.masterlist import MasterListEntry, parse_master_list
from repro.gdelt.schema import EVENTS_SCHEMA, field_index
from repro.gdelt.time_util import timestamp_to_datetime

__all__ = ["CorruptionPlan", "CorruptionReceipt", "inject_corruption"]

_SRC_URL = field_index(EVENTS_SCHEMA, "SOURCEURL")
_DATEADDED = field_index(EVENTS_SCHEMA, "DATEADDED")
_DAY = field_index(EVENTS_SCHEMA, "Day")


@dataclass(frozen=True, slots=True)
class CorruptionPlan:
    """How many defects of each Table II class to plant."""

    malformed_master_entries: int = 53
    missing_archives: int = 8
    missing_source_urls: int = 1
    future_event_dates: int = 4
    seed: int = 13


@dataclass(slots=True)
class CorruptionReceipt:
    """Ground truth of what was actually planted (for verification)."""

    malformed_lines: list[str] = field(default_factory=list)
    deleted_archives: list[str] = field(default_factory=list)
    blanked_event_ids: list[int] = field(default_factory=list)
    future_dated_event_ids: list[int] = field(default_factory=list)


def _rewrite_events_chunk(path: Path, mutate) -> tuple[int, str] | None:
    """Apply ``mutate(rows) -> n_changed`` to the rows of one events chunk.

    The archive is only rewritten (by
    :func:`~repro.gdelt.csv_io.write_chunk_zip`) when ``mutate`` actually
    changed something; returns its new size and md5 if it was.
    """
    text = chunk_member(path.read_bytes()).decode("utf-8")
    rows = [line.split("\t") for line in text.splitlines() if line]
    if not mutate(rows):
        return None
    out = "\n".join("\t".join(r) for r in rows) + "\n"
    return write_chunk_zip(path, path.name.removesuffix(".zip"), out.encode("utf-8"))


def inject_corruption(raw_dir: Path, plan: CorruptionPlan) -> CorruptionReceipt:
    """Plant the plan's defects into ``raw_dir``; returns ground truth.

    Master-list malformations are *inserted* lines (truncated fields / bad
    md5s), so no valid chunk reference is destroyed.  Missing archives are
    deleted from disk but kept in the master list — exactly the situation
    the paper's downloader hit.  URL blanking and future-dating mutate
    event rows inside surviving chunks.
    """
    raw_dir = Path(raw_dir)
    rng = random.Random(plan.seed)
    receipt = CorruptionReceipt()

    master_path = raw_dir / "masterfilelist.txt"
    text = master_path.read_text(encoding="utf-8")
    lines = text.splitlines()

    # 1. Malformed master entries.
    styles = (
        lambda i: f"{rng.randint(1, 9_999_999)} deadbeef http://bad/{i}",  # short md5
        lambda i: f"notasize {'ab' * 16} http://bad/{i}",  # non-int size
        lambda i: f"{rng.randint(1, 9_999_999)} {'ab' * 16}",  # missing url
        lambda i: f"{rng.randint(1, 9_999_999)} {'zz' * 16} http://bad/{i}",  # non-hex
    )
    for i in range(plan.malformed_master_entries):
        bad = styles[i % len(styles)](i)
        pos = rng.randint(0, len(lines))
        lines.insert(pos, bad)
        receipt.malformed_lines.append(bad)

    master_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # 2. Missing archives: delete chunk files still referenced by the list.
    parsed = parse_master_list(master_path.read_text(encoding="utf-8"))
    candidates = [
        raw_dir / c.entry.url.rsplit("/", 1)[-1]
        for c in parsed.chunks
        if (raw_dir / c.entry.url.rsplit("/", 1)[-1]).exists()
    ]
    rng.shuffle(candidates)
    for path in candidates[: plan.missing_archives]:
        path.unlink()
        receipt.deleted_archives.append(path.name)

    # 3 & 4. Event-row mutations inside surviving export chunks.
    event_chunks = sorted(raw_dir.glob("*.export.CSV.zip"))
    rng.shuffle(event_chunks)

    need_blank = plan.missing_source_urls
    need_future = plan.future_event_dates
    rewritten: dict[str, tuple[int, str]] = {}  # archive name → its new size and md5
    for path in event_chunks:
        if need_blank == 0 and need_future == 0:
            break

        def mutate(rows: list[list[str]]) -> int:
            nonlocal need_blank, need_future
            changed = 0
            idx = list(range(len(rows)))
            rng.shuffle(idx)
            for i in idx:
                row = rows[i]
                if need_blank > 0 and row[_SRC_URL]:
                    row[_SRC_URL] = ""
                    receipt.blanked_event_ids.append(int(row[0]))
                    need_blank -= 1
                    changed += 1
                elif need_future > 0:
                    # Recorded event date moved past the first-article date.
                    added = timestamp_to_datetime(int(row[_DATEADDED]))
                    future = added + datetime.timedelta(days=10)
                    row[_DAY] = f"{future.year:04d}{future.month:02d}{future.day:02d}"
                    receipt.future_dated_event_ids.append(int(row[0]))
                    need_future -= 1
                    changed += 1
                else:
                    break
            return changed

        if (entry := _rewrite_events_chunk(path, mutate)) is not None:
            rewritten[path.name] = entry

    if rewritten:  # the list names the archives as they now are
        for i, line in enumerate(lines):
            parts = line.split(" ")
            name = parts[-1].rsplit("/", 1)[-1]
            if len(parts) == 3 and name in rewritten:
                lines[i] = MasterListEntry(*rewritten[name], url=parts[2]).to_line()
        master_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return receipt
