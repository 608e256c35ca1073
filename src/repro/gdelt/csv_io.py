"""Reading and writing raw GDELT 2.0 TSV chunks as bytes, a table at a time.

The raw export format is tab-separated values with no header and no
quoting, one file per table per 15-minute interval, each wrapped in a zip
archive.  One layout table per raw table says which schema column carries
which *field* (the core values the system materializes), and it is the
only spelling of a row, read both ways:

* :func:`event_lines` renders a whole table into one UTF-8 byte buffer
  of full-width 61/16-column lines with row offsets (a
  :class:`~repro.storage.columns.StringDictionary`, entry i = line i).
  The layout's literal runs, integers as ASCII digits computed in NumPy,
  text straight from dictionaries and the two tones through Python's
  ``.4f`` are assembled by one
  :func:`~repro.storage.columns.concat_gather`, so an archive's text is
  a slice of the buffer.
* :func:`event_columns` parses an archive member's bytes back into those
  columns: NumPy finds the tabs and newlines and checks each row's
  width, plain digit cells (``-?d+``, at most 18 digits) become int64
  and plain decimals (a sign, at most 15 digits, at most one point) one
  correctly rounded division ``m / 10**k`` of exact float64 values,
  which is what ``float()`` gives.
  Every other cell goes to Python's ``int()``/``float()``, so values,
  bad rows and their messages are exactly those of a per-cell parse.

:func:`write_chunk_zip` and :func:`chunk_member` are the one place a
chunk archive is built or opened.
"""

from __future__ import annotations

import functools
import io
import re
import zipfile
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.gdelt.schema import EVENTS_SCHEMA, MENTIONS_SCHEMA, Field, FieldKind
from repro.gdelt.time_util import timestamps_to_intervals
from repro.storage.columns import StringDictionary, concat_gather, gather_runs

__all__ = [
    "event_lines",
    "event_columns",
    "mention_lines",
    "mention_columns",
    "numeric_root_codes",
    "chunk_member",
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

#: A placeholder: the field (or derived value) it names and its format
#: spec (none, ``0Nd`` or ``.4f``).
_PLACEHOLDER = re.compile(r"\{(\w+)(?::([^{}]*))?\}")


def _line(schema, layout: dict[str, str]) -> str:
    """One newline-terminated raw line with named placeholders."""
    return "\t".join(layout.get(f.name, "") for f in schema) + "\n"


_EVENT_LINE = _line(EVENTS_SCHEMA, _EVENT_LAYOUT)
_MENTION_LINE = _line(MENTIONS_SCHEMA, _MENTION_LAYOUT)

#: A text column to render: entry ``codes[i]`` of the dictionary is row i.
_Text = tuple[StringDictionary, np.ndarray]


def _day(c: Mapping) -> np.ndarray:
    return np.asarray(c["day"], dtype=np.int64)


#: The event layout's derived placeholders, each computed from the field
#: columns: rendered into every row, never parsed back from one.
_EVENT_DERIVED: dict[str, Callable[[Mapping], np.ndarray | _Text]] = {
    "month_year": lambda c: _day(c) // 100,
    "year": lambda c: _day(c) // 10_000,
    "month": lambda c: _day(c) // 100 % 100,
    "geo_type": lambda c: (
        StringDictionary.from_strings(["0", "1"]),
        c["action_geo_country"][0].lengths()[c["action_geo_country"][1]] > 0,
    ),
}

#: ``10**j`` for j = 0 … 19 in uint64: digit-count thresholds and the
#: place of each 4-digit group.
_TENS = np.array([10**j for j in range(20)], dtype=np.uint64)


@functools.cache
def _groups() -> np.ndarray:
    """The ASCII of every 4-digit group "0000" … "9999", one little-endian
    uint32 each (built on a process's first render)."""
    return np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype="<u4")


def _digits(values, width: int) -> StringDictionary:
    """Entry i is ``values[i]`` (int64) in decimal ASCII, zero-padded to
    ``width`` characters sign included, as ``format(v, f"0{width}d")``.

    Magnitudes are taken in uint64, so -2**63 needs no special case.
    Each row's digits are written as 4-digit groups behind a sign slot,
    and the row keeps its last ``length`` bytes.
    """
    values = np.asarray(values, dtype=np.int64)
    neg = values < 0
    mag = values.view(np.uint64).copy()
    np.negative(mag, out=mag, where=neg)
    n_digits = np.maximum(np.searchsorted(_TENS[1:], mag, side="right") + 1, width - neg)
    groups = -(-int(n_digits.max(initial=1)) // 4)
    words = np.empty((len(values), groups + 1), dtype="<u4")
    words[:, 1:] = _groups()[mag[:, None] // _TENS[4 * groups - 4::-4] % 10_000]
    matrix = words.view(np.uint8)
    lengths = n_digits + neg
    first = matrix.shape[1] - lengths
    matrix[np.flatnonzero(neg), first[neg]] = ord("-")
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return StringDictionary(offsets, matrix[np.arange(matrix.shape[1]) >= first[:, None]])


def _render(line: str, columns: Mapping, n: int) -> StringDictionary:
    """``line`` rendered once per row of ``columns``: entry i is line i.

    Each placeholder's column becomes one dictionary per table (digits,
    ``.4f`` texts, or the text column's own dictionary), each literal run
    a one-entry dictionary, and one :func:`concat_gather` lays the rows
    out byte by byte.
    """
    rows = np.arange(n)
    pieces: dict[tuple[str, str], _Text] = {}

    def piece(name: str, spec: str) -> _Text:
        value = columns[name]
        if isinstance(value, tuple):
            return value
        if spec.endswith("f"):  # the tones: Python's own rounding, per value
            floats = np.asarray(value, dtype=np.float64).tolist()
            return StringDictionary.from_strings(map(format, floats, repeat(spec))), rows
        return _digits(value, int(spec[:-1] or 0) if spec else 0), rows

    zeros = np.zeros(n, dtype=np.int64)
    parts: list[_Text] = []
    at = 0
    for m in [*_PLACEHOLDER.finditer(line), None]:
        literal = line[at:m.start() if m else None]
        if literal:
            parts.append((StringDictionary.from_strings([literal]), zeros))
        if m:
            key = (m[1], m[2] or "")
            if key not in pieces:
                pieces[key] = piece(*key)
            parts.append(pieces[key])
            at = m.end()
    return concat_gather(parts)


def event_lines(columns: Mapping[str, np.ndarray | _Text]) -> StringDictionary:
    """Newline-terminated raw lines of many events at once, as one
    buffer: entry i is row i rendered through the layout.

    ``columns`` maps every event field (the keys :func:`event_columns`
    returns) to one value per row: an int64 array for an integer, a
    float array for a tone, and a ``(StringDictionary, codes)`` pair for
    a text field.
    """
    derived = {name: f(columns) for name, f in _EVENT_DERIVED.items()}
    n = len(columns["global_event_id"])
    return _render(_EVENT_LINE, {**columns, **derived}, n)


def mention_lines(columns: Mapping[str, np.ndarray | _Text]) -> StringDictionary:
    """Raw lines of many mentions at once (see :func:`event_lines`)."""
    return _render(_MENTION_LINE, columns, len(columns["global_event_id"]))


def _fields(schema, layout: dict[str, str], derived=()) -> list[tuple[str, int, Field]]:
    """``(field, column index, schema column)`` of every column whose
    text is exactly one field placeholder, in schema order."""
    return [
        (m[1], i, f)
        for i, f in enumerate(schema)
        if (m := _PLACEHOLDER.fullmatch(layout.get(f.name, ""))) and m[1] not in derived
    ]


#: Text fields whose bound check parses them, and the binary column the
#: parsed numbers are kept as.
_NUMBERED = {"EventRootCode": "RootCode"}


class _Table:
    """What the parser needs of one raw table, worked out once."""

    def __init__(self, name: str, schema, layout, derived, derive) -> None:
        self.name, self.width, self.derive = name, len(schema), derive
        self.fields = _fields(schema, layout, derived)
        # The parse's numeric rows (numbers, and the text a bound check
        # parses), then its text rows: indices into self.fields.
        self.numeric = [
            k for k, (_, _, f) in enumerate(self.fields)
            if f.kind is not FieldKind.STR or f.name in _NUMBERED
        ]
        self.text = [k for k, (_, _, f) in enumerate(self.fields) if f.kind is FieldKind.STR]
        numeric = [self.fields[k][2] for k in self.numeric]
        self.cells = np.array([self.fields[k][1] for k in self.numeric + self.text])[:, None]
        self.float_rows = [j for j, f in enumerate(numeric) if f.kind is FieldKind.FLOAT]
        self.nullable = np.array([f.nullable for f in numeric])[:, None]
        bounds = [_BOUNDS.get(f.name, _I64) for f in numeric]  # a tone's: int64's own
        self.lo = np.array([lo for lo, _ in bounds], dtype=np.int64)[:, None]
        self.hi = np.array([hi for _, hi in bounds], dtype=np.int64)[:, None]


#: A plain cell is read from the last 8, 16 or 24 bytes before its
#: separator, as little-endian words: a sign and 18 digits (the most
#: that always fit int64), or a sign, 15 digits and a point (the most
#: whose digits m are exact in float64, so ``m / 10**k`` is one
#: correctly rounded division, which is what ``float()`` gives).
_WORDS = 3
_PAD = b"\0" * 8 * _WORDS  # before a member's first cell, so every window fits
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_POW10_F = _POW10.astype(np.float64)  # exact: every 10**k below 2**53
_BYTE = np.uint64(0x0101010101010101)  # one in every byte of a word
_POINT = np.uint8((ord(".") - ord("0")) % 256)  # a point, as ``byte - "0"`` wraps


def _keep_masks(words: int) -> np.ndarray:
    """Row L: the words that keep a window's last L bytes (L ≤ 8 * words):
    word q drops its low ``8 * words - L - 8 * q`` bytes, 0 to 8 of them."""
    width = 8 * words
    drop = [[min(max(width - keep - 8 * q, 0), 8) for q in range(words)] for keep in range(width + 1)]
    return np.array([[(2**64 - 1) << 8 * d & (2**64 - 1) for d in row] for row in drop], dtype=np.uint64)


_KEEP = [None] + [_keep_masks(words) for words in range(1, _WORDS + 1)]


def _plain(buf: np.ndarray, start: np.ndarray, end: np.ndarray, float_rows: list[int]):
    """The (parse row, row) cells ``buf[start:end]`` parsed by word
    arithmetic: ``(ints, floats, ok)``.  ``ok`` marks the plain integers
    ``-?d{1,18}``, and in ``float_rows`` the plain decimals: a sign, 1 to
    15 digits and at most one point (``float()`` reads ``1.`` and ``.5``
    too); ``floats`` holds those rows' values.  Other cells' values are
    meaningless."""
    m, n = start.shape
    neg = buf[start] == ord("-")  # an empty cell's start is its separator
    length = end - start - neg  # of the digits (and point)
    words = min(_WORDS, -(-int((end - start).max(initial=1)) // 8))
    width = 8 * words
    windows = np.ndarray((len(buf) - width + 1,), np.dtype((np.void, width)), buf, strides=(1,))
    v = windows[end - width].view(np.uint8).reshape(m, n, width)
    v -= np.uint8(ord("0"))
    w = v.view("<u8")
    # Only the digits count: every byte before them (a sign, the cells
    # before) becomes a 0 digit.
    w &= _KEEP[words].take(np.minimum(length, width), axis=0)
    points = {}  # float row → (points per cell, digits after its last point)
    for j in float_rows:
        at = np.flatnonzero(v[j] == _POINT)
        cell, byte = np.divmod(at, width)
        places = np.zeros(n, dtype=np.int64)
        places[cell] = (width - 1) - byte
        points[j] = np.bincount(cell, minlength=n), places
        v[j].reshape(-1)[at] = 0  # a point counts as a 0 digit
    # Any byte above 9: ``byte + 118`` or the byte itself sets its top bit.
    flags = ((w + 118 * _BYTE) | w) & (128 * _BYTE)
    w = (w * 10 + (w >> 8)) & np.uint64(0x00FF00FF00FF00FF)
    w = (w * 100 + (w >> 16)) & np.uint64(0x0000FFFF0000FFFF)
    w = (w * 10_000 + (w >> 32)) & np.uint64(0xFFFFFFFF)
    other, whole = flags[..., 0], w[..., 0]
    for i in range(1, words):
        other = other | flags[..., i]
        whole = whole * 10**8 + w[..., i]
    whole = whole.view(np.int64)
    ints = np.where(neg, -whole, whole)
    ok = (other == 0) & (length >= 1) & (length <= 18)
    floats = np.empty((len(float_rows), n))
    for f, j in enumerate(float_rows):
        count, places = points[j]
        point = count == 1
        places = np.where(point, places, 0)
        scale = _POW10.take(places, mode="clip")
        high, low = np.divmod(whole[j], scale)  # high ends in the point's 0
        digits = np.where(point, high // 10 * scale + low, whole[j])
        floats[f] = np.where(neg[j], -1.0, 1.0) * (digits / _POW10_F.take(places, mode="clip"))
        ok[j] = (other[j] == 0) & (count <= 1) & (length[j] - count >= 1) & (length[j] - count <= 15)
    return ints, floats, ok


def _cell_texts(buf: np.ndarray, starts: np.ndarray, codes: np.ndarray) -> list[str]:
    """The text of cells ``codes``: each cell is gathered with its tab or
    newline, which becomes a newline, then one decode and one split."""
    if not len(codes):
        return []
    start = starts[codes]
    lengths = starts[codes + 1] - start
    text = gather_runs(buf, start, lengths)
    text[np.cumsum(lengths) - 1] = ord("\n")
    return text.tobytes().decode("utf-8").split("\n")[:-1]


def _columns(data: bytes, table: _Table) -> tuple[dict, list[tuple[int, str]]]:
    """The field columns of the good rows of ``data``, plus the binary
    columns ``derive`` and the bound checks compute, and the bad rows'
    ``(line number, message)``, in line order (see :func:`event_columns`)."""
    width, fields = table.width, table.fields
    data = _PAD + data if data.endswith(b"\n") else _PAD + data + b"\n"  # every line ends
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero(buf <= ord("\n"))
    sep = sep[buf[sep] >= ord("\t")]  # tabs and newlines
    starts = np.concatenate(([len(_PAD)], sep + 1))  # cell c is data[starts[c]:starts[c + 1] - 1]
    newline = buf[sep] == ord("\n")
    last = np.flatnonzero(newline)  # each line's last cell
    bad: list[tuple[int, str]] = []
    line_nos = None  # row i is line i + 1 while every line is a row
    if len(last) * width == len(sep) and newline[width - 1::width].all():
        first = last - (width - 1)
    else:
        widths = np.diff(last, prepend=-1)
        firsts = last - widths + 1
        good = widths == width
        wrong = ~good & (starts[firsts] != sep[last])  # empty lines are skipped
        bad = [
            (no, f"{table.name} row has {w} columns, expected {width}")
            for no, w in zip((np.flatnonzero(wrong) + 1).tolist(), widths[wrong].tolist())
        ]
        line_nos = np.flatnonzero(good) + 1
        first = firsts[good]
    n, m = len(first), len(table.numeric)
    code = first + table.cells  # (parse row, row) → cell
    start, end = starts[code[:m]], starts[code[:m] + 1] - 1
    ints, floats, ok = _plain(buf, start, end, table.float_rows)
    ok |= table.nullable & (start == end)  # an empty cell is 0
    errors: dict[int, str] = {}  # row → its first error
    outside: dict[int, dict[int, int]] = {}  # parse row → {row: value out of bounds}
    if not ok.all():
        for j in np.flatnonzero(~ok.all(axis=1)).tolist():
            f = fields[table.numeric[j]][2]
            rows = np.flatnonzero(~ok[j]).tolist()
            texts = [data[start[j, row]:end[j, row]].decode("utf-8") for row in rows]
            if f.kind is FieldKind.STR:  # a root code: never an error
                values = dict(zip(rows, numeric_root_codes(texts)))
            else:
                values = _parse(texts, rows, f, errors)
            lo, hi = _BOUNDS.get(f.name, _I64)
            for row, value in values.items():
                if f.kind is FieldKind.FLOAT:
                    floats[table.float_rows.index(j), row] = value
                elif lo <= value <= hi:
                    ints[j, row] = value
                else:
                    ints[j, row] = 0
                    outside.setdefault(j, {})[row] = value
    beyond = (ints < table.lo) | (ints > table.hi)
    if outside or beyond.any():
        for j, k in enumerate(table.numeric):
            f = fields[k][2]
            found = {row: int(ints[j, row]) for row in np.flatnonzero(beyond[j]).tolist()}
            found.update(outside.get(j, {}))
            lo, hi = _BOUNDS.get(f.name, _I64)
            for row, value in found.items():
                errors.setdefault(row, f"{f.name} {value} out of range for its column [{lo}, {hi}]")
    if errors:
        ints[:, list(errors)] = floats[:, list(errors)] = 0
    texts = _cell_texts(buf, starts, code[m:].ravel())
    columns: dict = {}
    for k, (name, _, f) in enumerate(fields):
        if f.kind is FieldKind.STR:
            t = table.text.index(k)
            columns[name] = texts[t * n:(t + 1) * n]
        if k in table.numeric:
            j = table.numeric.index(k)
            if f.kind is FieldKind.FLOAT:
                columns[name] = floats[table.float_rows.index(j)]
            else:  # a text field's numbers are kept as its binary column
                columns[_NUMBERED.get(f.name, name)] = ints[j]
    for name, value in table.derive(columns).items():
        lo, hi = _BOUNDS.get(name, _I64)
        for row in np.flatnonzero((value < lo) | (value > hi)).tolist():
            errors.setdefault(row, f"{name} {int(value[row])} out of range for its column [{lo}, {hi}]")
        columns[name] = value
    if errors:
        keep = np.ones(n, dtype=bool)
        keep[list(errors)] = False
        columns = {
            name: c[keep] if isinstance(c, np.ndarray) else list(compress(c, keep))
            for name, c in columns.items()
        }
        bad += [
            (row + 1 if line_nos is None else int(line_nos[row]), message)
            for row, message in errors.items()
        ]
        bad.sort()
    return columns, bad


def _parse(texts: list[str], rows: list[int], f: Field, errors: dict[int, str]) -> dict:
    """Cells ``texts`` of rows ``rows`` of numeric column ``f``, parsed by
    Python's ``int()`` or ``float()`` (an empty cell of a nullable column
    is 0).  A cell that does not parse becomes 0 and gives its row an
    error, unless the row already has one."""
    cast = float if f.kind is FieldKind.FLOAT else int
    values = {}
    for row, text in zip(rows, texts):
        try:
            values[row] = cast(text or "0" if f.nullable else text)
        except ValueError as exc:
            errors.setdefault(row, str(exc))
            values[row] = 0
    return values


_EVENTS = _Table("events", EVENTS_SCHEMA, _EVENT_LAYOUT, _EVENT_DERIVED, lambda c: {})


def event_columns(data: bytes) -> tuple[dict, list[tuple[int, str]]]:
    """Parse the UTF-8 bytes of a raw events member into field columns:
    the inverse of :func:`event_lines`, one archive at a time.

    Returns ``(columns, bad)``.  ``columns`` maps each event field to its
    good rows' values, in line order: int64 and float64 arrays for the
    numbers, lists of ``str`` for the text.  It also holds, as int64
    arrays named after the binary columns they become (capitalised, so
    never a field's name), the values the bound checks computed, so no
    caller converts them again: ``RootCode`` here, and ``EventInterval``,
    ``MentionInterval`` and ``Delay`` for mentions.  Lines end at ``\\n``
    (a ``\\r`` before it stays in the last cell); empty lines are skipped.
    ``bad`` lists ``(line number, message)`` (1-based) of every other
    row, in line order: a row of the wrong width, a number Python's
    ``int()``/``float()`` refuses (the first such field's error), or a
    value outside the bounds of the binary column it lands in (the first
    such field, named with its value).
    """
    return _columns(data, _EVENTS)


def _intervals(columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``EventInterval``, ``MentionInterval`` and their difference
    ``Delay``: one conversion call for both stamps, as a call costs more
    than an archive's few hundred rows."""
    mention, event = columns["mention_time"], columns["event_time"]
    intervals = timestamps_to_intervals(np.concatenate([mention, event]))
    mention, event = intervals[: len(mention)], intervals[len(mention):]
    return {"EventInterval": event, "MentionInterval": mention, "Delay": mention - event}


_MENTIONS = _Table("mentions", MENTIONS_SCHEMA, _MENTION_LAYOUT, (), _intervals)


def mention_columns(data: bytes) -> tuple[dict, list[tuple[int, str]]]:
    """Parse a raw mentions member into field columns (see
    :func:`event_columns`); a row whose capture delay in intervals does
    not fit the ``Delay`` column is bad too."""
    return _columns(data, _MENTIONS)


#: Timestamp stamped on every chunk member (the zip format's epoch), so
#: one dataset always exports to the same bytes and the master list's
#: md5s do not depend on the wall clock.
CHUNK_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def write_chunk_zip(path: Path, inner_name: str, data) -> tuple[int, str]:
    """Write one GDELT chunk archive, a zip holding the single TSV member
    ``data`` (bytes-like), and return the archive's size and md5.

    The archive is built in memory and written once, so its master-list
    entry needs no second read.  Deflate, hash and write release the GIL.
    """
    import hashlib  # lazy: loads OpenSSL, which only ingest needs

    member = zipfile.ZipInfo(inner_name, date_time=CHUNK_MEMBER_DATE_TIME)
    member.compress_type = zipfile.ZIP_DEFLATED
    member.external_attr = 0o600 << 16  # what writestr gives a named member
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr(member, memoryview(data))
    body = archive.getbuffer()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body)
    return len(body), hashlib.md5(body).hexdigest()


def chunk_member(archive: bytes) -> bytes:
    """The bytes of the single TSV member of a GDELT chunk zip.

    Raises:
        zipfile.BadZipFile: if the archive is not a zip, or the member
            fails its CRC-32.
        zlib.error, EOFError: if the member's deflate stream is broken
            or truncated.
        ValueError: if the archive does not hold exactly one member.
    """
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        names = zf.namelist()
        if len(names) != 1:
            raise ValueError(f"chunk archive has {len(names)} members, expected 1")
        return zf.read(names[0])
