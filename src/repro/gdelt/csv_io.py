"""Reading and writing raw GDELT 2.0 TSV chunks.

The raw export format is tab-separated values with no header and no
quoting, one file per table per 15-minute interval, each wrapped in a zip
archive.  This module provides typed record views over the *core* columns
(the ones the system materializes) while preserving full 61/16-column
row-width on disk, so that the preprocessing tool exercises the same
parse-and-project work the paper's converter does.
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.gdelt.schema import (
    EVENTS_SCHEMA,
    MENTIONS_SCHEMA,
    field_index,
)

__all__ = [
    "EventRecord",
    "MentionRecord",
    "event_to_row",
    "event_from_row",
    "mention_to_row",
    "mention_from_row",
    "numeric_root_code",
    "write_events_tsv",
    "write_mentions_tsv",
    "read_events_tsv",
    "read_mentions_tsv",
    "open_chunk_text",
    "write_chunk_zip",
]

_E = {f.name: field_index(EVENTS_SCHEMA, f.name) for f in EVENTS_SCHEMA}
_M = {f.name: field_index(MENTIONS_SCHEMA, f.name) for f in MENTIONS_SCHEMA}

_EVENTS_WIDTH = len(EVENTS_SCHEMA)
_MENTIONS_WIDTH = len(MENTIONS_SCHEMA)

# Inclusive bounds of every integer field, from the binary column it
# ends up in (``Day`` becomes the int64 timestamp ``Day * 10**6``).  A
# row outside them is a bad row here, not an OverflowError at freeze.
_I64_LO, _I64_HI = -(2**63), 2**63 - 1
_I32_LO, _I32_HI = -(2**31), 2**31 - 1
_I16_LO, _I16_HI = -(2**15), 2**15 - 1
_DAY_LO, _DAY_HI = -(_I64_HI // 10**6), _I64_HI // 10**6
_U8_HI = 2**8 - 1


def numeric_root_code(code: str) -> int:
    """A CAMEO root code as the ``RootCode`` column stores it
    (non-numeric codes become 0)."""
    try:
        return int(code)
    except ValueError:
        return 0


def _out_of_range(fields: dict[str, tuple[int, int, int]]) -> ValueError:
    """The error naming the first of ``fields`` (name → value, lo, hi)
    whose value lies outside its bounds."""
    for name, (value, lo, hi) in fields.items():
        if not lo <= value <= hi:
            return ValueError(f"{name} {value} out of range for its column [{lo}, {hi}]")
    raise AssertionError("every field is in range")


@dataclass(slots=True)
class EventRecord:
    """Core view of one Events-table row."""

    global_event_id: int
    day: int  # YYYYMMDD
    event_root_code: str
    quad_class: int
    num_mentions: int
    num_sources: int
    num_articles: int
    avg_tone: float
    action_geo_country: str  # FIPS, may be "" (not geotagged)
    date_added: int  # YYYYMMDDHHMMSS capture timestamp
    source_url: str  # seed article URL, may be "" (a data problem)


@dataclass(slots=True)
class MentionRecord:
    """Core view of one Mentions-table row."""

    global_event_id: int
    event_time: int  # YYYYMMDDHHMMSS
    mention_time: int  # YYYYMMDDHHMMSS (the 15-min capture instant)
    source_name: str  # bare domain of the publisher
    identifier: str  # article URL
    confidence: int
    doc_tone: float


def event_to_row(e: EventRecord) -> list[str]:
    """Render a full-width 61-column raw row for an event."""
    row = [""] * _EVENTS_WIDTH
    row[_E["GlobalEventID"]] = str(e.global_event_id)
    row[_E["Day"]] = str(e.day)
    row[_E["MonthYear"]] = str(e.day // 100)
    row[_E["Year"]] = str(e.day // 10000)
    row[_E["FractionDate"]] = f"{e.day // 10000}.{(e.day // 100) % 100:02d}"
    row[_E["IsRootEvent"]] = "1"
    row[_E["EventCode"]] = e.event_root_code + "0"
    row[_E["EventBaseCode"]] = e.event_root_code + "0"
    row[_E["EventRootCode"]] = e.event_root_code
    row[_E["QuadClass"]] = str(e.quad_class)
    row[_E["GoldsteinScale"]] = "0.0"
    row[_E["NumMentions"]] = str(e.num_mentions)
    row[_E["NumSources"]] = str(e.num_sources)
    row[_E["NumArticles"]] = str(e.num_articles)
    row[_E["AvgTone"]] = f"{e.avg_tone:.4f}"
    row[_E["ActionGeo_Type"]] = "1" if e.action_geo_country else "0"
    row[_E["ActionGeo_CountryCode"]] = e.action_geo_country
    row[_E["DATEADDED"]] = str(e.date_added)
    row[_E["SOURCEURL"]] = e.source_url
    return row


def event_from_row(row: list[str]) -> EventRecord:
    """Parse a raw 61-column row into an :class:`EventRecord`.

    Raises:
        ValueError: on a row of the wrong width, with unparseable core
            numeric fields, or with an integer out of range for its
            binary column (the validator turns these into problem-report
            entries rather than crashes).
    """
    if len(row) != _EVENTS_WIDTH:
        raise ValueError(
            f"events row has {len(row)} columns, expected {_EVENTS_WIDTH}"
        )
    e = EventRecord(
        global_event_id=int(row[_E["GlobalEventID"]]),
        day=int(row[_E["Day"]]),
        event_root_code=row[_E["EventRootCode"]],
        quad_class=int(row[_E["QuadClass"]]),
        num_mentions=int(row[_E["NumMentions"]]),
        num_sources=int(row[_E["NumSources"]]),
        num_articles=int(row[_E["NumArticles"]]),
        avg_tone=float(row[_E["AvgTone"]] or "0"),
        action_geo_country=row[_E["ActionGeo_CountryCode"]],
        date_added=int(row[_E["DATEADDED"]]),
        source_url=row[_E["SOURCEURL"]],
    )
    root = numeric_root_code(e.event_root_code)
    if not (
        _I64_LO <= e.global_event_id <= _I64_HI
        and _DAY_LO <= e.day <= _DAY_HI
        and 0 <= root <= _U8_HI
        and 0 <= e.quad_class <= _U8_HI
        and _I32_LO <= e.num_mentions <= _I32_HI
        and _I32_LO <= e.num_sources <= _I32_HI
        and _I32_LO <= e.num_articles <= _I32_HI
        and _I64_LO <= e.date_added <= _I64_HI
    ):
        raise _out_of_range({
            "GlobalEventID": (e.global_event_id, _I64_LO, _I64_HI),
            "Day": (e.day, _DAY_LO, _DAY_HI),
            "EventRootCode": (root, 0, _U8_HI),
            "QuadClass": (e.quad_class, 0, _U8_HI),
            "NumMentions": (e.num_mentions, _I32_LO, _I32_HI),
            "NumSources": (e.num_sources, _I32_LO, _I32_HI),
            "NumArticles": (e.num_articles, _I32_LO, _I32_HI),
            "DATEADDED": (e.date_added, _I64_LO, _I64_HI),
        })
    return e


def mention_to_row(m: MentionRecord) -> list[str]:
    """Render a full-width 16-column raw row for a mention."""
    row = [""] * _MENTIONS_WIDTH
    row[_M["GlobalEventID"]] = str(m.global_event_id)
    row[_M["EventTimeDate"]] = str(m.event_time)
    row[_M["MentionTimeDate"]] = str(m.mention_time)
    row[_M["MentionType"]] = "1"  # 1 = WEB in the GDELT codebook
    row[_M["MentionSourceName"]] = m.source_name
    row[_M["MentionIdentifier"]] = m.identifier
    row[_M["SentenceID"]] = "1"
    row[_M["Confidence"]] = str(m.confidence)
    row[_M["MentionDocTone"]] = f"{m.doc_tone:.4f}"
    return row


def mention_from_row(row: list[str]) -> MentionRecord:
    """Parse a raw 16-column row into a :class:`MentionRecord`.

    Raises:
        ValueError: as :func:`event_from_row` does.
    """
    if len(row) != _MENTIONS_WIDTH:
        raise ValueError(
            f"mentions row has {len(row)} columns, expected {_MENTIONS_WIDTH}"
        )
    m = MentionRecord(
        global_event_id=int(row[_M["GlobalEventID"]]),
        event_time=int(row[_M["EventTimeDate"]]),
        mention_time=int(row[_M["MentionTimeDate"]]),
        source_name=row[_M["MentionSourceName"]],
        identifier=row[_M["MentionIdentifier"]],
        confidence=int(row[_M["Confidence"]] or "0"),
        doc_tone=float(row[_M["MentionDocTone"]] or "0"),
    )
    if not (
        _I64_LO <= m.global_event_id <= _I64_HI
        and _I64_LO <= m.event_time <= _I64_HI
        and _I64_LO <= m.mention_time <= _I64_HI
        and _I16_LO <= m.confidence <= _I16_HI
    ):
        raise _out_of_range({
            "GlobalEventID": (m.global_event_id, _I64_LO, _I64_HI),
            "EventTimeDate": (m.event_time, _I64_LO, _I64_HI),
            "MentionTimeDate": (m.mention_time, _I64_LO, _I64_HI),
            "Confidence": (m.confidence, _I16_LO, _I16_HI),
        })
    return m


def _write_rows(fh: io.TextIOBase, rows: Iterable[list[str]]) -> int:
    n = 0
    for row in rows:
        fh.write("\t".join(row))
        fh.write("\n")
        n += 1
    return n


def write_events_tsv(fh: io.TextIOBase, events: Iterable[EventRecord]) -> int:
    """Write events as raw TSV; returns the row count."""
    return _write_rows(fh, (event_to_row(e) for e in events))


def write_mentions_tsv(fh: io.TextIOBase, mentions: Iterable[MentionRecord]) -> int:
    """Write mentions as raw TSV; returns the row count."""
    return _write_rows(fh, (mention_to_row(m) for m in mentions))


def read_events_tsv(fh: io.TextIOBase) -> Iterator[EventRecord]:
    """Yield parsed events from a raw TSV stream (strict: raises on bad rows)."""
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        yield event_from_row(line.split("\t"))


def read_mentions_tsv(fh: io.TextIOBase) -> Iterator[MentionRecord]:
    """Yield parsed mentions from a raw TSV stream (strict)."""
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        yield mention_from_row(line.split("\t"))


def write_chunk_zip(path: Path, inner_name: str, text: str) -> None:
    """Write one GDELT chunk archive: a zip holding a single TSV member."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr(inner_name, text)


def open_chunk_text(path: Path) -> io.TextIOBase:
    """Open the single TSV member of a GDELT chunk zip as a text stream.

    Raises:
        FileNotFoundError: if the archive is missing (a Table II problem
            class the validator records).
        zipfile.BadZipFile: if the archive is corrupt.
    """
    zf = zipfile.ZipFile(path, "r")
    names = zf.namelist()
    if len(names) != 1:
        zf.close()
        raise ValueError(f"chunk archive {path} has {len(names)} members, expected 1")
    raw = zf.open(names[0], "r")
    return io.TextIOWrapper(raw, encoding="utf-8", newline="")
