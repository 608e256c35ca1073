"""Raw TSV rendering and column parsing round trips.

Both directions of ``repro.gdelt.csv_io`` are checked against per-row
oracles kept here: the ``str.format`` renderer and the per-cell parser
the byte-level ones replaced."""

from __future__ import annotations

import hashlib
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdelt import csv_io
from repro.gdelt.csv_io import (
    chunk_member,
    event_columns,
    event_lines,
    mention_columns,
    mention_lines,
    numeric_root_codes,
    write_chunk_zip,
)
from repro.gdelt.schema import EVENTS_SCHEMA, MENTIONS_SCHEMA, field_index
from repro.gdelt.time_util import timestamps_to_intervals
from repro.storage.columns import StringDictionary
from tests.conftest import column_rows


# The per-row renderer the byte renderer replaced, kept as its oracle:
# the layout's named placeholders become positional, and ``str.format``
# renders one row per call from Python values (integers of any size).
_ORACLE_DERIVED = {
    "month_year": lambda c: [d // 100 for d in c["day"]],
    "year": lambda c: [d // 10000 for d in c["day"]],
    "month": lambda c: [d // 100 % 100 for d in c["day"]],
    "geo_type": lambda c: ["1" if g else "0" for g in c["action_geo_country"]],
}


def _oracle_lines(line: str, values: dict) -> list[str]:
    names = list(values)
    positional = re.sub(r"\{(\w+)", lambda m: "{%d" % names.index(m[1]), line)
    return list(map(positional.format, *values.values()))


def oracle_event_lines(columns: dict) -> list[str]:
    """Raw event lines of ``columns`` (field → list of Python values)."""
    derived = {name: f(columns) for name, f in _ORACLE_DERIVED.items()}
    return _oracle_lines(csv_io._EVENT_LINE, {**columns, **derived})


def oracle_mention_lines(columns: dict) -> list[str]:
    return _oracle_lines(csv_io._MENTION_LINE, columns)


def make_event(**kw) -> dict:
    base = dict(
        global_event_id=410000001,
        day=20160612,
        event_root_code="14",
        quad_class=3,
        num_mentions=17,
        num_sources=9,
        num_articles=17,
        avg_tone=-3.25,
        action_geo_country="US",
        date_added=20160612021500,
        source_url="https://example.com/news/410000001",
    )
    base.update(kw)
    return base


def make_mention(**kw) -> dict:
    base = dict(
        global_event_id=410000001,
        event_time=20160612020000,
        mention_time=20160612024500,
        source_name="example.co.uk",
        identifier="https://example.co.uk/news/410000001",
        confidence=80,
        doc_tone=-2.5,
    )
    base.update(kw)
    return base


def _columns(rows: list[dict]) -> dict[str, list]:
    """Rows as columns, the input of the oracle renderers."""
    return {name: [row[name] for row in rows] for name in rows[0]} if rows else {}


def _arrays(rows: list[dict], like: dict) -> dict:
    """Rows as the byte renderer's columns: int64 and float64 arrays, and
    a ``(dictionary, codes)`` pair per text field."""
    columns = {}
    for name, sample in like.items():
        values = [row[name] for row in rows]
        if isinstance(sample, str):
            columns[name] = (StringDictionary.from_strings(values), np.arange(len(values)))
        else:
            columns[name] = np.array(values, dtype=np.float64 if isinstance(sample, float) else np.int64)
    return columns


def _one(parsed) -> dict:
    """The one row of a parse, or its bad-row message raised."""
    columns, bad = parsed
    if bad:
        raise ValueError(bad[0][1])
    (row,) = column_rows(columns)
    return row


def render_event(e: dict) -> list[str]:
    """One event's full-width raw row, as the oracle renders it."""
    (line,) = oracle_event_lines(_columns([e]))
    return line.removesuffix("\n").split("\t")


def parse_event(row: list[str]) -> dict:
    """One raw row through ``event_columns``."""
    return _one(event_columns("\t".join(row).encode("utf-8")))


def render_mention(m: dict) -> list[str]:
    (line,) = oracle_mention_lines(_columns([m]))
    return line.removesuffix("\n").split("\t")


def parse_mention(row: list[str]) -> dict:
    return _one(mention_columns("\t".join(row).encode("utf-8")))


I64 = (-(2**63), 2**63 - 1)
I32 = (-(2**31), 2**31 - 1)
#: Day and the timestamps become int32 intervals: they are bounded to
#: the whole years every spelling of which does (TestTimestampBounds).
STAMP = (-59_230 * 10**10, 63_252 * 10**10 + 9_999_999_999)
DAY = (-59_230 * 10**4, 63_252 * 10**4 + 9_999)

#: Integer fields with the bounds of the binary column each lands in.
EVENT_INT_FIELDS = [
    ("GlobalEventID", "global_event_id", *I64),
    ("Day", "day", *DAY),  # DayInterval
    ("QuadClass", "quad_class", 0, 255),
    ("NumMentions", "num_mentions", *I32),
    ("NumSources", "num_sources", *I32),
    ("NumArticles", "num_articles", *I32),
    ("DATEADDED", "date_added", *STAMP),  # AddedInterval
]
MENTION_INT_FIELDS = [
    ("GlobalEventID", "global_event_id", *I64),
    ("EventTimeDate", "event_time", *STAMP),  # EventInterval
    ("MentionTimeDate", "mention_time", *STAMP),  # MentionInterval
    ("Confidence", "confidence", -(2**15), 2**15 - 1),
]


def _ids(fields) -> list[str]:
    return [f[0] for f in fields]


class TestEventRows:
    def test_roundtrip(self):
        e = make_event()
        assert parse_event(render_event(e)) == e

    def test_row_width(self):
        assert len(render_event(make_event())) == 61

    def test_empty_url_roundtrips(self):
        e = make_event(source_url="")
        assert parse_event(render_event(e))["source_url"] == ""

    def test_untagged_geo(self):
        e = make_event(action_geo_country="")
        assert parse_event(render_event(e))["action_geo_country"] == ""

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError, match="columns"):
            parse_event(["1", "2", "3"])

    def test_non_numeric_id_raises(self):
        row = render_event(make_event())
        row[0] = "not-a-number"
        with pytest.raises(ValueError):
            parse_event(row)

    @settings(max_examples=50, deadline=None)
    @given(
        eid=st.integers(min_value=1, max_value=10**12),
        day=st.just(20170304),
        tone=st.floats(min_value=-10, max_value=10, allow_nan=False),
        nm=st.integers(min_value=1, max_value=10_000),
    )
    def test_roundtrip_property(self, eid, day, tone, nm):
        e = make_event(global_event_id=eid, day=day, avg_tone=tone, num_mentions=nm)
        back = parse_event(render_event(e))
        assert back["global_event_id"] == eid
        assert back["num_mentions"] == nm
        assert abs(back["avg_tone"] - tone) < 1e-3  # %.4f formatting

    def test_non_numeric_root_code_accepted(self):
        e = make_event(event_root_code="x")
        assert parse_event(render_event(e))["event_root_code"] == "x"

    @pytest.mark.parametrize(
        "field,attr,lo,hi", EVENT_INT_FIELDS, ids=_ids(EVENT_INT_FIELDS)
    )
    def test_integer_bounds_follow_the_column(self, field, attr, lo, hi):
        """An integer that does not fit its binary column makes a bad row
        naming the field; the column's own extremes are accepted."""
        for ok in (lo, hi):
            assert parse_event(render_event(make_event(**{attr: ok})))[attr] == ok
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match=f"{field} {bad} out of range"):
                parse_event(render_event(make_event(**{attr: bad})))

    def test_root_code_bounds(self):
        for ok in ("0", "255", "07"):
            assert parse_event(render_event(make_event(event_root_code=ok)))
        for bad in ("256", "300", "-1"):
            with pytest.raises(ValueError, match=f"EventRootCode {int(bad)} out of range"):
                parse_event(render_event(make_event(event_root_code=bad)))


EVENT_GOLDEN = (
    "410000001\t20160612\t201606\t2016\t2016.06" + "\t" * 21
    + "1\t140\t140\t14\t3\t0.0\t17\t9\t17\t-3.2500" + "\t" * 17
    + "1\t\tUS" + "\t" * 6
    + "20160612021500\thttps://example.com/news/410000001"
)
MENTION_GOLDEN = (
    "410000001\t20160612020000\t20160612024500\t1\texample.co.uk\t"
    "https://example.co.uk/news/410000001\t1\t\t\t\t\t80\t\t-2.5000\t\t"
)

event_records = st.builds(
    make_event,
    global_event_id=st.integers(-(2**70), 2**70),
    day=st.integers(0, 99_999_999),
    event_root_code=st.sampled_from(["01", "14", "20", "x", ""]),
    avg_tone=st.floats(allow_nan=False, allow_infinity=False, width=32),
    action_geo_country=st.sampled_from(["", "US", "UK"]),
    source_url=st.text(max_size=20),
)
mention_records = st.builds(
    make_mention,
    global_event_id=st.integers(-(2**70), 2**70),
    source_name=st.text(max_size=12),
    identifier=st.text(max_size=20),
    confidence=st.integers(-100, 100),
    doc_tone=st.floats(allow_nan=True, allow_infinity=True),
)

#: What the byte renderer is held to: every int64, its extremes,
#: negatives and zero; tones at ±0, at half-way ties of the fourth
#: decimal, and NaN/±inf; empty and non-ASCII text.
int64s = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, 1, -1, 9, 10, -10, 99, 100, 10**18, -(10**18), 2**63 - 1, -(2**63)]),
)
tones = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, 0.00005, -0.00005, 0.00015, 0.00025, 1.00005, 0.03125, -0.03125]),
    st.integers(-(10**6), 10**6).map(lambda i: (2 * i + 1) / 20_000),  # ties in decimal
)
texts = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["", "nachrichten-köln.de", "https://例え.jp/news/1", "ελ"]),
)
int64_events = st.builds(
    make_event,
    global_event_id=int64s, day=int64s, event_root_code=texts, quad_class=int64s,
    num_mentions=int64s, num_sources=int64s, num_articles=int64s, avg_tone=tones,
    action_geo_country=texts, date_added=int64s, source_url=texts,
)
int64_mentions = st.builds(
    make_mention,
    global_event_id=int64s, event_time=int64s, mention_time=int64s, source_name=texts,
    identifier=texts, confidence=int64s, doc_tone=tones,
)


def byte_event_lines(records: list[dict]) -> StringDictionary:
    return event_lines(_arrays(records, make_event()))


def byte_mention_lines(records: list[dict]) -> StringDictionary:
    return mention_lines(_arrays(records, make_mention()))


class TestColumnarLines:
    """``event_lines``/``mention_lines`` render a whole table into one
    buffer whose line i is the per-row oracle's row i, byte for byte,
    through the layout that ``event_columns``/``mention_columns`` parse
    them back by."""

    def test_event_golden(self):
        assert byte_event_lines([make_event()]).to_list() == [EVENT_GOLDEN + "\n"]
        assert oracle_event_lines(_columns([make_event()])) == [EVENT_GOLDEN + "\n"]
        assert parse_event(EVENT_GOLDEN.split("\t")) == make_event()

    def test_mention_golden(self):
        assert byte_mention_lines([make_mention()]).to_list() == [MENTION_GOLDEN + "\n"]
        assert oracle_mention_lines(_columns([make_mention()])) == [MENTION_GOLDEN + "\n"]
        assert parse_mention(MENTION_GOLDEN.split("\t")) == make_mention()

    def test_untagged_event_has_geo_type_zero(self):
        e = make_event(action_geo_country="")
        (line,) = byte_event_lines([e]).to_list()
        assert line.split("\t")[field_index(EVENTS_SCHEMA, "ActionGeo_Type")] == "0"
        assert parse_event(line.removesuffix("\n").split("\t")) == e

    @settings(max_examples=150, deadline=None)
    @given(st.lists(int64_events, max_size=8))
    def test_event_lines_equal_rows(self, records):
        """Line i of the buffer is row i rendered alone by the oracle."""
        want = [oracle_event_lines(_columns([e]))[0] for e in records]
        lines = byte_event_lines(records)
        assert lines.to_list() == want
        assert lines.arrays[1].tobytes() == "".join(want).encode("utf-8")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(int64_mentions, max_size=8))
    def test_mention_lines_equal_rows(self, records):
        want = [oracle_mention_lines(_columns([m]))[0] for m in records]
        lines = byte_mention_lines(records)
        assert lines.to_list() == want
        assert lines.arrays[1].tobytes() == "".join(want).encode("utf-8")

    def test_rows_are_gathered_by_code(self):
        """A text field is a dictionary and one code per row, as the
        exporter passes its URL and domain dictionaries."""
        urls = StringDictionary.from_strings(["https://a/1", "", "https://ü/3"])
        m = make_mention()
        columns = {
            **_arrays([m] * 4, m),
            "identifier": (urls, np.array([2, 0, 0, 1])),
        }
        want = [
            oracle_mention_lines(_columns([make_mention(identifier=u)]))[0]
            for u in ["https://ü/3", "https://a/1", "https://a/1", ""]
        ]
        assert mention_lines(columns).to_list() == want


class TestMentionRows:
    def test_roundtrip(self):
        m = make_mention()
        assert parse_mention(render_mention(m)) == m

    def test_row_width(self):
        assert len(render_mention(make_mention())) == 16

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError, match="columns"):
            parse_mention(["1"] * 15)

    @pytest.mark.parametrize(
        "field,attr,lo,hi", MENTION_INT_FIELDS, ids=_ids(MENTION_INT_FIELDS)
    )
    def test_integer_bounds_follow_the_column(self, field, attr, lo, hi):
        def mention(value):
            # A timestamp's partner stamp sits at the nearest bound, so
            # the capture delay between them still fits its column.
            partner = {"event_time": "mention_time", "mention_time": "event_time"}
            near = {partner[attr]: min(max(value, lo), hi)} if attr in partner else {}
            return make_mention(**{attr: value, **near})

        for ok in (lo, hi):
            assert parse_mention(render_mention(mention(ok)))[attr] == ok
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match=f"{field} {bad} out of range"):
                parse_mention(render_mention(mention(bad)))

    def test_delay_bounds_follow_the_column(self):
        """Two stamps that each fit their interval column can still be
        further apart than the int32 ``Delay`` column holds."""
        m = make_mention(event_time=STAMP[0], mention_time=STAMP[1])
        with pytest.raises(ValueError, match=r"Delay \d+ out of range for its column"):
            parse_mention(render_mention(m))


class TestTimestampBounds:
    def test_bound_years_land_in_int32_intervals(self):
        """Within a year a stamp's interval grows with each field, so the
        year's extremes are all-zero and all-99 fields: those of the bound
        years are int32 intervals, those of the years just outside not."""
        def interval(stamp):
            return int(timestamps_to_intervals(np.array([stamp]))[0])

        lo, hi = STAMP
        assert I32[0] <= interval(lo) and interval(hi) <= I32[1]
        assert interval(lo - 10**10) < I32[0]
        assert interval(hi + 10**10) > I32[1]
        assert (DAY[0] * 10**6, DAY[1] * 10**6) == (lo, hi - 999_999)


class TestStreams:
    def test_events_stream_roundtrip(self):
        events = [make_event(global_event_id=i) for i in range(1, 6)]
        member = byte_event_lines(events).arrays[1].tobytes()
        assert member.count(b"\n") == 5
        columns, bad = event_columns(member)
        assert bad == []
        assert column_rows(columns) == events

    def test_mentions_stream_roundtrip(self):
        mentions = [make_mention(global_event_id=i) for i in range(1, 4)]
        member = byte_mention_lines(mentions).arrays[1].tobytes()
        assert member.count(b"\n") == 3
        columns, bad = mention_columns(member)
        assert bad == []
        assert column_rows(columns) == mentions

    def test_blank_lines_skipped(self):
        columns, bad = event_columns(b"\n\n")
        assert bad == []
        assert column_rows(columns) == []

    def test_last_line_needs_no_newline(self):
        member = byte_mention_lines([make_mention(), make_mention(confidence=7)]).arrays[1]
        columns, bad = mention_columns(member.tobytes().removesuffix(b"\n"))
        assert bad == [] and columns["confidence"].tolist() == [80, 7]


# The per-row parser the column parser replaced, kept as its oracle: one
# row → its field values, or ValueError with the message of the row's
# bad-row entry.  Its one change is the interval bound: Day and the
# timestamps are bounded by the int32 interval each becomes, and the
# capture delay by the int32 Delay column (they used to be bounded by
# int64 only, and wrapped).
_E = {f.name: field_index(EVENTS_SCHEMA, f.name) for f in EVENTS_SCHEMA}
_M = {f.name: field_index(MENTIONS_SCHEMA, f.name) for f in MENTIONS_SCHEMA}


def _out_of_range(fields: dict[str, tuple[int, tuple[int, int]]]) -> None:
    for name, (value, (lo, hi)) in fields.items():
        if not lo <= value <= hi:
            raise ValueError(f"{name} {value} out of range for its column [{lo}, {hi}]")


def oracle_event(row: list[str]) -> dict:
    if len(row) != 61:
        raise ValueError(f"events row has {len(row)} columns, expected 61")
    e = dict(
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
    try:
        root = int(e["event_root_code"])
    except ValueError:
        root = 0
    _out_of_range({
        "GlobalEventID": (e["global_event_id"], I64),
        "Day": (e["day"], DAY),
        "EventRootCode": (root, (0, 255)),
        "QuadClass": (e["quad_class"], (0, 255)),
        "NumMentions": (e["num_mentions"], I32),
        "NumSources": (e["num_sources"], I32),
        "NumArticles": (e["num_articles"], I32),
        "DATEADDED": (e["date_added"], STAMP),
    })
    return e


def oracle_mention(row: list[str]) -> dict:
    if len(row) != 16:
        raise ValueError(f"mentions row has {len(row)} columns, expected 16")
    m = dict(
        global_event_id=int(row[_M["GlobalEventID"]]),
        event_time=int(row[_M["EventTimeDate"]]),
        mention_time=int(row[_M["MentionTimeDate"]]),
        source_name=row[_M["MentionSourceName"]],
        identifier=row[_M["MentionIdentifier"]],
        confidence=int(row[_M["Confidence"]] or "0"),
        doc_tone=float(row[_M["MentionDocTone"]] or "0"),
    )
    _out_of_range({
        "GlobalEventID": (m["global_event_id"], I64),
        "EventTimeDate": (m["event_time"], STAMP),
        "MentionTimeDate": (m["mention_time"], STAMP),
        "Confidence": (m["confidence"], (-(2**15), 2**15 - 1)),
    })
    e_iv, m_iv = timestamps_to_intervals(np.array([m["event_time"], m["mention_time"]]))
    _out_of_range({"Delay": (int(m_iv - e_iv), I32)})
    return m


def oracle_columns(oracle, lines: list[str]) -> tuple[list[dict], list[tuple[int, str]]]:
    rows, bad = [], []
    for no, line in enumerate(lines, 1):
        if line:
            try:
                rows.append(oracle(line.split("\t")))
            except ValueError as exc:
                bad.append((no, str(exc)))
    return rows, bad


#: What a corrupted cell holds: Python's int()/float() accept some of
#: these, NumPy's string casts treat several differently, and the plain
#: cells the parser converts by arithmetic sit at the edges of its rule
#: (leading zeros, 18 and 19 digits around the int64 bounds, a sign
#: alone, a point at either end, 15 and 17 significant digits).
corrupt_cells = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([
        " 12", "+5", "1_0", "12 ", "", "-0", "1e3", "0x10", "nan", "inf", "x", "٣",
        "007", "-007", "00", "0000000000000000000000012", "-", "12\r",
        "999999999999999999", "-999999999999999999", "1000000000000000000",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "9999999999999999999", "00000000000000000001",
        "-0.0000", "0.0000", "1.", ".5", "-.5", "1e5", "1.5", "-1.25", ".", "1..2", "1.2.3",
        "123456789012345.6", "1234567890123456.7", "0.12345678901234567",
        "12345678901234567.5", "0.000000000000001", "99999999999999.99", "-3.2500",
        "921363776.2334789", "3745791310.0075694",  # 16 and 17 digits: m is not exact
        *map(str, (*STAMP, STAMP[0] - 1, STAMP[1] + 1, *DAY, DAY[0] - 1, DAY[1] + 1)),
    ]),
    st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6f}"),
    st.text(max_size=4).filter(lambda s: "\t" not in s and "\n" not in s),
)


def corrupted_lines(records, render, parsed_columns: list[str], schema) -> st.SearchStrategy:
    """Lines of rendered records, some with corrupted cells or width."""
    targets = [field_index(schema, name) for name in parsed_columns]

    @st.composite
    def line(draw):
        row = render(draw(records))
        for _ in range(draw(st.integers(0, 3))):
            row[draw(st.sampled_from(targets))] = draw(corrupt_cells)
        width = draw(st.sampled_from(["keep"] * 8 + ["drop", "add"]))
        if width == "drop":
            row.pop()
        elif width == "add":
            row.append(draw(corrupt_cells))
        return "\t".join(row) + draw(st.sampled_from(["", "", "", "\r"]))  # CRLF

    return st.lists(st.one_of(line(), st.sampled_from(["", "\r"])), max_size=12)


def member(lines: list[str]) -> tuple[bytes, list[str]]:
    """``lines`` as a member's bytes, and the lines the oracle sees: the
    text split at each newline (a text cell may hold one)."""
    text = "\n".join(lines)
    return text.encode("utf-8"), text.split("\n")


class TestColumnParserEqualsRowOracle:
    """Columns, bad-row line numbers and messages all equal the per-row
    parser's.  Values compare by ``repr``, so NaN equals NaN."""

    @settings(max_examples=300, deadline=None)
    @given(corrupted_lines(event_records, render_event, [
        "GlobalEventID", "Day", "MonthYear", "EventRootCode", "QuadClass",
        "NumMentions", "NumSources", "NumArticles", "AvgTone",
        "ActionGeo_CountryCode", "DATEADDED", "SOURCEURL",
    ], EVENTS_SCHEMA))
    def test_events(self, lines):
        data, lines = member(lines)
        columns, bad = event_columns(data)
        rows, want_bad = oracle_columns(oracle_event, lines)
        assert bad == want_bad
        assert repr(column_rows(columns)) == repr(rows)
        # The numbers the bound check parsed ride along, good rows only.
        want = numeric_root_codes(columns["event_root_code"])
        assert columns["RootCode"].tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(corrupted_lines(mention_records, render_mention, [
        "GlobalEventID", "EventTimeDate", "MentionTimeDate", "MentionType",
        "MentionSourceName", "MentionIdentifier", "Confidence", "MentionDocTone",
    ], MENTIONS_SCHEMA))
    def test_mentions(self, lines):
        data, lines = member(lines)
        columns, bad = mention_columns(data)
        rows, want_bad = oracle_columns(oracle_mention, lines)
        assert bad == want_bad
        assert repr(column_rows(columns)) == repr(rows)
        # The intervals the Delay check converted ride along, good rows only.
        event = timestamps_to_intervals(columns["event_time"])
        mention = timestamps_to_intervals(columns["mention_time"])
        assert columns["EventInterval"].tolist() == event.tolist()
        assert columns["MentionInterval"].tolist() == mention.tolist()
        assert columns["Delay"].tolist() == (mention - event).tolist()


def outcome(parse, row: list[str]) -> str:
    """``repr`` of a one-row parse's values, or of its error message."""
    try:
        return repr(parse(row))
    except ValueError as exc:
        return repr(str(exc))


class TestPlainCells:
    """The array path: plain cells never reach Python's ``int()`` /
    ``float()``, and its digits equal Python's formatting."""

    def test_plain_cells_skip_python(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a plain cell went to Python")

        monkeypatch.setattr(csv_io, "_parse", refuse)
        monkeypatch.setattr(csv_io, "numeric_root_codes", refuse)
        events = [
            make_event(global_event_id=v, avg_tone=t, num_mentions=0)
            for v, t in [(1, -0.0), (10**18 - 1, 0.5), (-(10**18 - 1), -3.25), (0, 1e9)]
        ]
        mentions = [make_mention(confidence=c, doc_tone=t) for c, t in [(0, 0.0), (-5, -12.3456)]]
        columns, bad = event_columns(byte_event_lines(events).arrays[1].tobytes())
        assert bad == [] and column_rows(columns) == events
        columns, bad = mention_columns(byte_mention_lines(mentions).arrays[1].tobytes())
        assert bad == [] and column_rows(columns) == mentions
        # Empty nullable cells are 0 on the array path too.
        row = render_mention(make_mention())
        row[field_index(MENTIONS_SCHEMA, "Confidence")] = ""
        row[field_index(MENTIONS_SCHEMA, "MentionDocTone")] = ""
        assert parse_mention(row) == make_mention(confidence=0, doc_tone=0.0)

    @pytest.mark.parametrize("cell", [
        "007", "-007", "-0", "00", "+5", "1_0", "12\r", " 12", "٣", "-", "",
        "999999999999999999", "-999999999999999999", "9223372036854775807",
        "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
    ])
    def test_integer_edge_cells_equal_python(self, cell):
        row = render_mention(make_mention())
        row[field_index(MENTIONS_SCHEMA, "GlobalEventID")] = cell
        assert outcome(parse_mention, row) == outcome(oracle_mention, row)

    @pytest.mark.parametrize("cell", [
        "-0.0000", "0.0000", "1.", ".5", "-.5", "1e5", "1.5.", "12\r", "-3.2500",
        "123456789012345.6", "921363776.2334789", "3745791310.0075694",
        "1234567890123456.7", "0.12345678901234567", "99999999999999.99",
    ])
    def test_decimal_edge_cells_equal_python(self, cell):
        """Up to 15 digits by arithmetic; the 16- and 17-digit cells here
        are ones whose digits m a float64 cannot hold exactly."""
        row = render_mention(make_mention())
        row[field_index(MENTIONS_SCHEMA, "MentionDocTone")] = cell
        assert outcome(parse_mention, row) == outcome(oracle_mention, row)
        row = render_event(make_event())
        row[field_index(EVENTS_SCHEMA, "AvgTone")] = cell
        assert outcome(parse_event, row) == outcome(oracle_event, row)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(int64s, max_size=20), st.integers(0, 5))
    def test_digits_equal_format(self, values, width):
        digits = csv_io._digits(np.array(values, dtype=np.int64), width)
        assert digits.to_list() == [format(v, f"0{width}d") for v in values]


class TestChunkZip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.export.CSV.zip"
        write_chunk_zip(path, "x.export.CSV", b"hello\tworld\n")
        assert chunk_member(path.read_bytes()) == b"hello\tworld\n"

    def test_member_date_time_is_fixed(self, tmp_path):
        """The member carries a fixed timestamp, not the wall clock."""
        path = tmp_path / "x.export.CSV.zip"
        write_chunk_zip(path, "x.export.CSV", b"hello\tworld\n")
        with zipfile.ZipFile(path) as zf:
            (member,) = zf.infolist()
        assert member.date_time == (1980, 1, 1, 0, 0, 0)
        assert member.compress_type == zipfile.ZIP_DEFLATED

    def test_same_text_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.zip", tmp_path / "b.zip"
        write_chunk_zip(a, "x.export.CSV", b"1\t2\n")
        write_chunk_zip(b, "x.export.CSV", np.frombuffer(b"1\t2\n", dtype=np.uint8))
        assert a.read_bytes() == b.read_bytes()

    def test_returns_size_and_md5(self, tmp_path):
        """The master-list entry comes from the bytes written, not a re-read."""
        path = tmp_path / "x.mentions.CSV.zip"
        size, md5 = write_chunk_zip(path, "x.mentions.CSV", b"1\t2\n" * 1000)
        data = path.read_bytes()
        assert (size, md5) == (len(data), hashlib.md5(data).hexdigest())

    def test_multi_member_zip_rejected(self, tmp_path):
        path = tmp_path / "bad.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a", "1")
            zf.writestr("b", "2")
        with pytest.raises(ValueError, match="members"):
            chunk_member(path.read_bytes())
