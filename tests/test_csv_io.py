"""Raw TSV rendering and column parsing round trips."""

from __future__ import annotations

import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdelt.csv_io import (
    event_columns,
    event_lines,
    mention_columns,
    mention_lines,
    numeric_root_codes,
    open_chunk_text,
    write_chunk_zip,
)
from repro.gdelt.schema import EVENTS_SCHEMA, MENTIONS_SCHEMA, field_index
from repro.gdelt.time_util import timestamps_to_intervals
from tests.conftest import column_rows


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
    """Rows as columns, the input of ``event_lines``/``mention_lines``."""
    return {name: [row[name] for row in rows] for name in rows[0]} if rows else {}


def _one(parsed) -> dict:
    """The one row of a parse, or its bad-row message raised."""
    columns, bad = parsed
    if bad:
        raise ValueError(bad[0][1])
    (row,) = column_rows(columns)
    return row


def render_event(e: dict) -> list[str]:
    """One event's full-width raw row, as ``event_lines`` renders it."""
    (line,) = event_lines(_columns([e]))
    return line.removesuffix("\n").split("\t")


def parse_event(row: list[str]) -> dict:
    """One raw row through ``event_columns``."""
    return _one(event_columns(["\t".join(row)]))


def render_mention(m: dict) -> list[str]:
    (line,) = mention_lines(_columns([m]))
    return line.removesuffix("\n").split("\t")


def parse_mention(row: list[str]) -> dict:
    return _one(mention_columns(["\t".join(row)]))


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


class TestColumnarLines:
    """``event_lines``/``mention_lines`` render whole columns through the
    layout that ``event_columns``/``mention_columns`` parse them back by."""

    def test_event_golden(self):
        assert event_lines(_columns([make_event()])) == [EVENT_GOLDEN + "\n"]
        assert parse_event(EVENT_GOLDEN.split("\t")) == make_event()

    def test_mention_golden(self):
        assert mention_lines(_columns([make_mention()])) == [MENTION_GOLDEN + "\n"]
        assert parse_mention(MENTION_GOLDEN.split("\t")) == make_mention()

    def test_untagged_event_has_geo_type_zero(self):
        e = make_event(action_geo_country="")
        (line,) = event_lines(_columns([e]))
        assert line.split("\t")[field_index(EVENTS_SCHEMA, "ActionGeo_Type")] == "0"
        assert parse_event(line.removesuffix("\n").split("\t")) == e

    @settings(max_examples=60, deadline=None)
    @given(st.lists(event_records, max_size=8))
    def test_event_lines_equal_rows(self, records):
        """Line i of a batch is row i rendered alone."""
        want = ["\t".join(render_event(e)) + "\n" for e in records]
        assert (event_lines(_columns(records)) if records else []) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(mention_records, max_size=8))
    def test_mention_lines_equal_rows(self, records):
        want = ["\t".join(render_mention(m)) + "\n" for m in records]
        assert (mention_lines(_columns(records)) if records else []) == want


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
        text = "".join(event_lines(_columns(events)))
        assert text.count("\n") == 5
        columns, bad = event_columns(text.split("\n"))
        assert bad == []
        assert column_rows(columns) == events

    def test_mentions_stream_roundtrip(self):
        mentions = [make_mention(global_event_id=i) for i in range(1, 4)]
        text = "".join(mention_lines(_columns(mentions)))
        assert text.count("\n") == 3
        columns, bad = mention_columns(text.split("\n"))
        assert bad == []
        assert column_rows(columns) == mentions

    def test_blank_lines_skipped(self):
        columns, bad = event_columns("\n\n".split("\n"))
        assert bad == []
        assert column_rows(columns) == []


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
#: these and NumPy's string casts treat several differently.
corrupt_cells = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([
        " 12", "+5", "1_0", "12 ", "", "-0", "1e3", "0x10", "nan", "inf", "x", "٣",
        *map(str, (*STAMP, STAMP[0] - 1, STAMP[1] + 1, *DAY, DAY[0] - 1, DAY[1] + 1)),
    ]),
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
        return "\t".join(row)

    return st.lists(st.one_of(line(), st.just("")), max_size=12)


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
        columns, bad = event_columns(lines)
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
        columns, bad = mention_columns(lines)
        rows, want_bad = oracle_columns(oracle_mention, lines)
        assert bad == want_bad
        assert repr(column_rows(columns)) == repr(rows)
        # The intervals the Delay check converted ride along, good rows only.
        event = timestamps_to_intervals(columns["event_time"])
        mention = timestamps_to_intervals(columns["mention_time"])
        assert columns["EventInterval"].tolist() == event.tolist()
        assert columns["MentionInterval"].tolist() == mention.tolist()
        assert columns["Delay"].tolist() == (mention - event).tolist()


class TestChunkZip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.export.CSV.zip"
        write_chunk_zip(path, "x.export.CSV", "hello\tworld\n")
        with open_chunk_text(path) as fh:
            assert fh.read() == "hello\tworld\n"

    def test_member_date_time_is_fixed(self, tmp_path):
        """The member carries a fixed timestamp, not the wall clock."""
        path = tmp_path / "x.export.CSV.zip"
        write_chunk_zip(path, "x.export.CSV", "hello\tworld\n")
        with zipfile.ZipFile(path) as zf:
            (member,) = zf.infolist()
        assert member.date_time == (1980, 1, 1, 0, 0, 0)
        assert member.compress_type == zipfile.ZIP_DEFLATED

    def test_same_text_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.zip", tmp_path / "b.zip"
        write_chunk_zip(a, "x.export.CSV", "1\t2\n")
        write_chunk_zip(b, "x.export.CSV", "1\t2\n")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_archive_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_chunk_text(tmp_path / "nope.zip")

    def test_multi_member_zip_rejected(self, tmp_path):
        path = tmp_path / "bad.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a", "1")
            zf.writestr("b", "2")
        with pytest.raises(ValueError, match="members"):
            open_chunk_text(path)
