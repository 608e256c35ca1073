"""The GDELT master file list.

GDELT publishes ``masterfilelist.txt``: one line per uploaded file,
``<size-in-bytes> <md5-hex> <url>``.  Every 15-minute interval
contributes an ``.export.CSV.zip`` (Events) and a ``.mentions.CSV.zip``
(Mentions) entry, named by the interval-start timestamp.  The paper's
downloader walks this list; its validator reported 53 malformed list
entries and 8 missing archives (Table II), so parsing here is deliberately
forgiving: malformed lines are returned separately, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.gdelt.time_util import interval_to_timestamp

__all__ = [
    "MasterListEntry",
    "ChunkRef",
    "chunk_basename",
    "format_master_list",
    "parse_master_list",
    "MasterListParse",
]

#: Table kinds as they appear in chunk file names.
EXPORT_KIND = "export"
MENTIONS_KIND = "mentions"


@dataclass(frozen=True, slots=True)
class MasterListEntry:
    """One well-formed line of the master file list."""

    size: int
    md5: str
    url: str

    def to_line(self) -> str:
        return f"{self.size} {self.md5} {self.url}"


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """A (capture interval, table kind) pair resolved from a master entry."""

    interval: int
    kind: str  # EXPORT_KIND or MENTIONS_KIND
    entry: MasterListEntry


@dataclass(slots=True)
class MasterListParse:
    """Result of parsing a master list: chunks plus recorded problems."""

    chunks: list[ChunkRef]
    malformed_lines: list[str]
    unrecognized_urls: list[MasterListEntry]


def chunk_basename(interval: int, kind: str) -> str:
    """Archive file name for a chunk, e.g. ``20150218000000.export.CSV.zip``."""
    if kind not in (EXPORT_KIND, MENTIONS_KIND):
        raise ValueError(f"unknown chunk kind {kind!r}")
    return f"{interval_to_timestamp(interval):014d}.{kind}.CSV.zip"


def entry_for_file(path: Path, url_prefix: str = "") -> MasterListEntry:
    """Build a list entry (size + md5) for an archive on disk."""
    import hashlib  # lazy: loads OpenSSL, which only ingest needs

    data = path.read_bytes()
    return MasterListEntry(
        size=len(data),
        md5=hashlib.md5(data).hexdigest(),
        url=url_prefix + path.name,
    )


def format_master_list(entries: Iterable[MasterListEntry]) -> str:
    """Render entries into master-file-list text."""
    return "".join(e.to_line() + "\n" for e in entries)


def _parse_chunk_name(url: str) -> tuple[int, str] | None:
    """Extract (timestamp, kind) from a chunk URL, or None if unrecognized."""
    name = url.rsplit("/", 1)[-1]
    parts = name.split(".")
    if len(parts) != 4 or parts[2] != "CSV" or parts[3] != "zip":
        return None
    if parts[1] not in (EXPORT_KIND, MENTIONS_KIND):
        return None
    if not (parts[0].isdigit() and len(parts[0]) == 14):
        return None
    return int(parts[0]), parts[1]


def parse_master_list(text: str) -> MasterListParse:
    """Parse master-file-list text, tolerating malformed lines.

    A line is *malformed* if it does not split into exactly
    ``size md5 url`` with an integer size and hex md5 — these are counted
    for the Table II problem report.  Entries whose URL is not a
    recognizable chunk archive are kept in ``unrecognized_urls`` (GDELT's
    real list also carries GKG files, which this system ignores).
    """
    from repro.gdelt.time_util import timestamp_to_interval

    out = MasterListParse(chunks=[], malformed_lines=[], unrecognized_urls=[])
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 3:
            out.malformed_lines.append(line)
            continue
        size_s, md5_s, url = parts
        if not size_s.isdigit() or len(md5_s) != 32 or not _is_hex(md5_s):
            out.malformed_lines.append(line)
            continue
        entry = MasterListEntry(size=int(size_s), md5=md5_s, url=url)
        parsed = _parse_chunk_name(url)
        if parsed is None:
            out.unrecognized_urls.append(entry)
            continue
        ts, kind = parsed
        try:
            interval = timestamp_to_interval(ts)
        except ValueError:
            out.malformed_lines.append(line)
            continue
        out.chunks.append(ChunkRef(interval=interval, kind=kind, entry=entry))
    return out


def _is_hex(s: str) -> bool:
    try:
        int(s, 16)
    except ValueError:
        return False
    return True
