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
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.gdelt.schema import (
    EVENTS_SCHEMA,
    MENTIONS_SCHEMA,
    field_index,
)

__all__ = [
    "EventRecord",
    "MentionRecord",
    "event_to_row",
    "event_lines",
    "event_from_row",
    "mention_to_row",
    "mention_lines",
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


# The raw row layouts, the one place they are spelled: schema column →
# the text it carries, with ``{placeholders}`` naming record fields (or
# the derived event fields of :func:`_event_values`).  Columns not
# listed stay empty.  :func:`event_to_row` renders one record through
# them, :func:`event_lines` whole columns at once.
_EVENT_LAYOUT = {
    "GlobalEventID": "{global_event_id}",
    "Day": "{day}",
    "MonthYear": "{month_year}",
    "Year": "{year}",
    "FractionDate": "{year}.{month:02d}",
    "IsRootEvent": "1",
    "EventCode": "{event_root_code}0",
    "EventBaseCode": "{event_root_code}0",
    "EventRootCode": "{event_root_code}",
    "QuadClass": "{quad_class}",
    "GoldsteinScale": "0.0",
    "NumMentions": "{num_mentions}",
    "NumSources": "{num_sources}",
    "NumArticles": "{num_articles}",
    "AvgTone": "{avg_tone:.4f}",
    "ActionGeo_Type": "{geo_type}",
    "ActionGeo_CountryCode": "{action_geo_country}",
    "DATEADDED": "{date_added}",
    "SOURCEURL": "{source_url}",
}
_MENTION_LAYOUT = {
    "GlobalEventID": "{global_event_id}",
    "EventTimeDate": "{event_time}",
    "MentionTimeDate": "{mention_time}",
    "MentionType": "1",  # 1 = WEB in the GDELT codebook
    "MentionSourceName": "{source_name}",
    "MentionIdentifier": "{identifier}",
    "SentenceID": "1",
    "Confidence": "{confidence}",
    "MentionDocTone": "{doc_tone:.4f}",
}


def _event_values(columns: Mapping[str, list]) -> dict[str, list]:
    """The event layout's placeholders, one list each: the record
    fields plus the calendar fields and geo type derived from them."""
    day = columns["day"]
    return {
        **columns,
        "month_year": [d // 100 for d in day],
        "year": [d // 10000 for d in day],
        "month": [d // 100 % 100 for d in day],
        "geo_type": ["1" if c else "0" for c in columns["action_geo_country"]],
    }


def _one_row(schema, layout: dict[str, str], values: dict[str, list]) -> list[str]:
    """The full-width row of one record (``values`` holds one-item lists)."""
    scalars = {name: v[0] for name, v in values.items()}
    return [layout.get(f.name, "").format_map(scalars) for f in schema]


def _line(schema, layout: dict[str, str]) -> str:
    """One newline-terminated raw line with named placeholders."""
    return "\t".join(layout.get(f.name, "") for f in schema) + "\n"


_EVENT_LINE = _line(EVENTS_SCHEMA, _EVENT_LAYOUT)
_MENTION_LINE = _line(MENTIONS_SCHEMA, _MENTION_LAYOUT)


def _lines(line: str, values: dict[str, Sequence]) -> list[str]:
    """``line`` rendered once per row of the columns ``values``: its
    named placeholders become positional, so ``str.format`` takes one
    value from each column per call."""
    names = list(values)
    positional = re.sub(r"\{(\w+)", lambda m: "{%d" % names.index(m[1]), line)
    return list(map(positional.format, *values.values()))


def event_to_row(e: EventRecord) -> list[str]:
    """Render a full-width 61-column raw row for an event."""
    columns = {name: [getattr(e, name)] for name in EventRecord.__slots__}
    return _one_row(EVENTS_SCHEMA, _EVENT_LAYOUT, _event_values(columns))


def event_lines(columns: Mapping[str, list]) -> list[str]:
    """Newline-terminated raw lines of many events at once.

    ``columns`` maps every :class:`EventRecord` field to one list of
    values per row; line i is record i's :func:`event_to_row`, tab-joined,
    rendered by one ``str.format`` call instead of a record, a row list
    and a join.
    """
    return _lines(_EVENT_LINE, _event_values(columns))


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
    columns = {name: [getattr(m, name)] for name in MentionRecord.__slots__}
    return _one_row(MENTIONS_SCHEMA, _MENTION_LAYOUT, columns)


def mention_lines(columns: Mapping[str, list]) -> list[str]:
    """Raw lines of many mentions at once (see :func:`event_lines`)."""
    return _lines(_MENTION_LINE, columns)


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


#: Timestamp stamped on every chunk member (the zip format's epoch), so
#: one dataset always exports to the same bytes and the master list's
#: md5s do not depend on the wall clock.
CHUNK_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def write_chunk_zip(path: Path, inner_name: str, text: str) -> None:
    """Write one GDELT chunk archive: a zip holding a single TSV member."""
    path.parent.mkdir(parents=True, exist_ok=True)
    member = zipfile.ZipInfo(inner_name, date_time=CHUNK_MEMBER_DATE_TIME)
    member.compress_type = zipfile.ZIP_DEFLATED
    member.external_attr = 0o600 << 16  # what writestr gives a named member
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(member, text)


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
