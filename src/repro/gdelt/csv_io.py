"""Reading and writing raw GDELT 2.0 TSV chunks, a column at a time.

The raw export format is tab-separated values with no header and no
quoting, one file per table per 15-minute interval, each wrapped in a zip
archive.  One layout table per raw table says which schema column carries
which *field* (the core values the system materializes), and it is read
both ways: :func:`event_lines` renders whole columns of fields into
full-width 61/16-column rows, and :func:`event_columns` parses a whole
archive's rows back into those columns, so the preprocessing tool does
the same parse-and-project work the paper's converter does.
"""

from __future__ import annotations

import io
import re
import zipfile
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.gdelt.schema import EVENTS_SCHEMA, MENTIONS_SCHEMA, Field, FieldKind
from repro.gdelt.time_util import timestamps_to_intervals

__all__ = [
    "event_lines",
    "event_columns",
    "mention_lines",
    "mention_columns",
    "numeric_root_codes",
    "open_chunk_text",
    "write_chunk_zip",
]

_I64 = (-(2**63), 2**63 - 1)
_I32 = (-(2**31), 2**31 - 1)
_I16 = (-(2**15), 2**15 - 1)
_U8 = (0, 2**8 - 1)

#: Timestamps are bounded to whole years: every ``YYYYMMDDHHMMSS`` of
#: the years -59230 … 63252, month, day, hour, minute and second
#: anywhere in 00–99 included, becomes an interval inside int32, and
#: some stamp of the next year out on either side does not.
_YEARS = (-59_230, 63_252)
_STAMP = (_YEARS[0] * 10**10, _YEARS[1] * 10**10 + 9_999_999_999)
_DAY = (_YEARS[0] * 10**4, _YEARS[1] * 10**4 + 9_999)  # Day * 10**6 is a stamp

#: Inclusive bounds of every checked value, from the binary column it
#: lands in (:mod:`repro.storage.gdelt`).  A row outside them is a bad
#: row, never a wrapped or overflowing column value.  Fields are checked
#: in schema order, then ``Delay`` (``MentionInterval - EventInterval``).
_BOUNDS = {
    "GlobalEventID": _I64,
    "Day": _DAY,  # DayInterval
    "EventRootCode": _U8,  # RootCode, see numeric_root_codes
    "QuadClass": _U8,
    "NumMentions": _I32,
    "NumSources": _I32,
    "NumArticles": _I32,
    "DATEADDED": _STAMP,  # AddedInterval
    "EventTimeDate": _STAMP,  # EventInterval
    "MentionTimeDate": _STAMP,  # MentionInterval
    "Confidence": _I16,
    "Delay": _I32,
}


def numeric_root_codes(codes: Sequence[str]) -> list[int]:
    """CAMEO root codes as the ``RootCode`` column stores them (a code
    ``int()`` cannot parse becomes 0); each distinct code is parsed once."""
    numeric = {}
    for code in set(codes):
        try:
            numeric[code] = int(code)
        except ValueError:
            numeric[code] = 0
    return list(map(numeric.__getitem__, codes))


# The raw row layouts, the one place they are spelled: schema column →
# the text it carries, with ``{placeholders}`` naming fields (or the
# derived values of ``_EVENT_DERIVED``).  Columns not listed stay empty.
# The writers render whole columns through them; a column whose text is
# exactly one field placeholder is where the parsers read that field.
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


#: The event layout's derived placeholders, each computed from the field
#: columns: rendered into every row, never parsed back from one.
_EVENT_DERIVED: dict[str, Callable[[Mapping[str, Sequence]], list]] = {
    "month_year": lambda c: [d // 100 for d in c["day"]],
    "year": lambda c: [d // 10000 for d in c["day"]],
    "month": lambda c: [d // 100 % 100 for d in c["day"]],
    "geo_type": lambda c: ["1" if g else "0" for g in c["action_geo_country"]],
}


def _line(schema, layout: dict[str, str]) -> str:
    """One newline-terminated raw line with named placeholders."""
    return "\t".join(layout.get(f.name, "") for f in schema) + "\n"


_EVENT_LINE = _line(EVENTS_SCHEMA, _EVENT_LAYOUT)
_MENTION_LINE = _line(MENTIONS_SCHEMA, _MENTION_LAYOUT)


def _lines(line: str, values: Mapping[str, Sequence]) -> list[str]:
    """``line`` rendered once per row of the columns ``values``: its
    named placeholders become positional, so ``str.format`` takes one
    value from each column per call."""
    names = list(values)
    positional = re.sub(r"\{(\w+)", lambda m: "{%d" % names.index(m[1]), line)
    return list(map(positional.format, *values.values()))


def event_lines(columns: Mapping[str, Sequence]) -> list[str]:
    """Newline-terminated raw lines of many events at once.

    ``columns`` maps every event field (the keys :func:`event_columns`
    returns) to one sequence of values per row; line i is row i rendered
    through the layout by one ``str.format`` call.
    """
    derived = {name: f(columns) for name, f in _EVENT_DERIVED.items()}
    return _lines(_EVENT_LINE, {**columns, **derived})


def mention_lines(columns: Mapping[str, Sequence]) -> list[str]:
    """Raw lines of many mentions at once (see :func:`event_lines`)."""
    return _lines(_MENTION_LINE, columns)


def _fields(schema, layout: dict[str, str], derived=()) -> list[tuple[str, int, Field]]:
    """``(field, column index, schema column)`` of every column whose
    text is exactly one field placeholder, in schema order."""
    one = re.compile(r"\{(\w+)(?::[^{}]*)?\}")
    return [
        (m[1], i, f)
        for i, f in enumerate(schema)
        if (m := one.fullmatch(layout.get(f.name, ""))) and m[1] not in derived
    ]


_EVENT_FIELDS = _fields(EVENTS_SCHEMA, _EVENT_LAYOUT, _EVENT_DERIVED)
_MENTION_FIELDS = _fields(MENTIONS_SCHEMA, _MENTION_LAYOUT)


def _parse(texts: Sequence[str], f: Field, errors: dict[int, str]) -> list:
    """Numeric column ``f``'s cells parsed by Python's ``int()`` or
    ``float()`` (an empty cell of a nullable column is 0).  A cell that
    does not parse becomes 0 and gives its row an error, unless the row
    already has one."""
    cast = float if f.kind is FieldKind.FLOAT else int
    if f.nullable:
        texts = [s or "0" for s in texts]
    try:
        return list(map(cast, texts))
    except ValueError:
        values = []
        for row, text in enumerate(texts):
            try:
                values.append(cast(text))
            except ValueError as exc:
                errors.setdefault(row, str(exc))
                values.append(0)
        return values


def _check(name: str, values: list[int], errors: dict[int, str]) -> None:
    """Give every row whose value lies outside ``_BOUNDS[name]`` an
    error naming the value, unless the row already has one."""
    lo, hi = _BOUNDS[name]
    if not values or (lo <= min(values) and max(values) <= hi):
        return
    for row, value in enumerate(values):
        if not lo <= value <= hi:
            errors.setdefault(row, f"{name} {value} out of range for its column [{lo}, {hi}]")


def _array(values: list, errors: dict[int, str], dtype) -> np.ndarray:
    """``values`` as an array, 0 in every row with an error: only
    in-bounds values go into an array."""
    for row in errors:
        values[row] = 0
    return np.array(values, dtype)


#: Text fields whose bound check parses them, and the binary column the
#: parsed numbers are kept as.
_NUMBERED = {"EventRootCode": "RootCode"}


def _columns(lines, table, schema, fields, derive) -> tuple[dict, list[tuple[int, str]]]:
    """The field columns of ``lines``' good rows, plus the binary columns
    ``derive`` and the bound checks compute, and the bad rows' ``(line
    number, message)``, in line order (see :func:`event_columns`)."""
    width = len(schema)
    rows = [line.split("\t") for line in lines]
    widths = list(map(len, rows))
    line_nos, bad = range(1, len(rows) + 1), []
    if widths.count(width) < len(rows):  # empty lines are skipped
        bad = [
            (no, f"{table} row has {w} columns, expected {width}")
            for no, w, line in zip(line_nos, widths, lines)
            if w != width and line
        ]
        line_nos = [no for no, w in zip(line_nos, widths) if w == width]
        rows = [rows[no - 1] for no in line_nos]
    cells = [()] * len(fields)  # one tuple of texts per field
    if rows:
        cells = zip(*map(itemgetter(*(i for _, i, _ in fields)), rows))
    errors: dict[int, str] = {}  # row → its first error
    values = {
        name: list(texts) if f.kind is FieldKind.STR else _parse(texts, f, errors)
        for (name, _, f), texts in zip(fields, cells)
    }
    numbers = {}  # binary column → a text field's numbers, as checked
    for name, _, f in fields:
        if f.name in _BOUNDS:
            v = values[name]
            if f.kind is FieldKind.STR:
                v = numbers[_NUMBERED[f.name]] = numeric_root_codes(v)
            _check(f.name, v, errors)
    columns = {}
    for name, _, f in fields:
        v = values[name]
        if f.kind is not FieldKind.STR:
            v = _array(v, errors, np.float64 if f.kind is FieldKind.FLOAT else np.int64)
        columns[name] = v
    columns.update((name, _array(v, errors, np.int64)) for name, v in numbers.items())
    for name, value in derive(columns).items():
        if name in _BOUNDS:
            _check(name, value.tolist(), errors)
        columns[name] = value
    if errors:
        keep = np.ones(len(rows), dtype=bool)
        keep[list(errors)] = False
        columns = {
            name: c[keep] if isinstance(c, np.ndarray) else list(compress(c, keep))
            for name, c in columns.items()
        }
        bad += [(line_nos[row], message) for row, message in errors.items()]
        bad.sort()
    return columns, bad


def event_columns(lines: Sequence[str]) -> tuple[dict, list[tuple[int, str]]]:
    """Parse raw events lines into field columns: the inverse of
    :func:`event_lines`, one archive at a time.

    Returns ``(columns, bad)``.  ``columns`` maps each event field to its
    good rows' values, in line order: int64 and float64 arrays for the
    numbers, lists of ``str`` for the text.  It also holds, as int64
    arrays named after the binary columns they become (capitalised, so
    never a field's name), the values the bound checks computed, so no
    caller converts them again: ``RootCode`` here, and ``EventInterval``,
    ``MentionInterval`` and ``Delay`` for mentions.  Empty lines are
    skipped.
    ``bad`` lists ``(line number, message)`` (1-based) of every other
    row, in line order: a row of the wrong width, a number Python's
    ``int()``/``float()`` refuses (the first such field's error), or a
    value outside the bounds of the binary column it lands in (the first
    such field, named with its value).
    """
    return _columns(lines, "events", EVENTS_SCHEMA, _EVENT_FIELDS, lambda c: {})


def _intervals(columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``EventInterval``, ``MentionInterval`` and their difference
    ``Delay``: one conversion call for both stamps, as a call costs more
    than an archive's few hundred rows."""
    mention, event = columns["mention_time"], columns["event_time"]
    intervals = timestamps_to_intervals(np.concatenate([mention, event]))
    mention, event = intervals[: len(mention)], intervals[len(mention):]
    return {"EventInterval": event, "MentionInterval": mention, "Delay": mention - event}


def mention_columns(lines: Sequence[str]) -> tuple[dict, list[tuple[int, str]]]:
    """Parse raw mentions lines into field columns (see
    :func:`event_columns`); a row whose capture delay in intervals does
    not fit the ``Delay`` column is bad too."""
    return _columns(lines, "mentions", MENTIONS_SCHEMA, _MENTION_FIELDS, _intervals)


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
