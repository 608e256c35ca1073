"""Raw TSV (de)serialization round trips."""

from __future__ import annotations

import io
import zipfile
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdelt.csv_io import (
    EventRecord,
    MentionRecord,
    event_from_row,
    event_lines,
    event_to_row,
    mention_from_row,
    mention_lines,
    mention_to_row,
    open_chunk_text,
    read_events_tsv,
    read_mentions_tsv,
    write_chunk_zip,
    write_events_tsv,
    write_mentions_tsv,
)


def make_event(**kw) -> EventRecord:
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
    return EventRecord(**base)


def make_mention(**kw) -> MentionRecord:
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
    return MentionRecord(**base)


#: Integer fields with the bounds of the binary column each lands in.
EVENT_INT_FIELDS = [
    ("GlobalEventID", "global_event_id", -(2**63), 2**63 - 1),
    ("Day", "day", -(2**63 // 10**6), (2**63 - 1) // 10**6),  # Day * 10**6 is int64
    ("QuadClass", "quad_class", 0, 255),
    ("NumMentions", "num_mentions", -(2**31), 2**31 - 1),
    ("NumSources", "num_sources", -(2**31), 2**31 - 1),
    ("NumArticles", "num_articles", -(2**31), 2**31 - 1),
    ("DATEADDED", "date_added", -(2**63), 2**63 - 1),
]
MENTION_INT_FIELDS = [
    ("GlobalEventID", "global_event_id", -(2**63), 2**63 - 1),
    ("EventTimeDate", "event_time", -(2**63), 2**63 - 1),
    ("MentionTimeDate", "mention_time", -(2**63), 2**63 - 1),
    ("Confidence", "confidence", -(2**15), 2**15 - 1),
]


def _ids(fields) -> list[str]:
    return [f[0] for f in fields]


class TestEventRows:
    def test_roundtrip(self):
        e = make_event()
        assert event_from_row(event_to_row(e)) == e

    def test_row_width(self):
        assert len(event_to_row(make_event())) == 61

    def test_empty_url_roundtrips(self):
        e = make_event(source_url="")
        assert event_from_row(event_to_row(e)).source_url == ""

    def test_untagged_geo(self):
        e = make_event(action_geo_country="")
        assert event_from_row(event_to_row(e)).action_geo_country == ""

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError, match="columns"):
            event_from_row(["1", "2", "3"])

    def test_non_numeric_id_raises(self):
        row = event_to_row(make_event())
        row[0] = "not-a-number"
        with pytest.raises(ValueError):
            event_from_row(row)

    @settings(max_examples=50, deadline=None)
    @given(
        eid=st.integers(min_value=1, max_value=10**12),
        day=st.just(20170304),
        tone=st.floats(min_value=-10, max_value=10, allow_nan=False),
        nm=st.integers(min_value=1, max_value=10_000),
    )
    def test_roundtrip_property(self, eid, day, tone, nm):
        e = make_event(global_event_id=eid, day=day, avg_tone=tone, num_mentions=nm)
        back = event_from_row(event_to_row(e))
        assert back.global_event_id == eid
        assert back.num_mentions == nm
        assert abs(back.avg_tone - tone) < 1e-3  # %.4f formatting

    def test_non_numeric_root_code_accepted(self):
        e = make_event(event_root_code="x")
        assert event_from_row(event_to_row(e)).event_root_code == "x"

    @pytest.mark.parametrize(
        "field,attr,lo,hi", EVENT_INT_FIELDS, ids=_ids(EVENT_INT_FIELDS)
    )
    def test_integer_bounds_follow_the_column(self, field, attr, lo, hi):
        """An integer that does not fit its binary column makes a bad row
        naming the field; the column's own extremes are accepted."""
        for ok in (lo, hi):
            assert getattr(event_from_row(event_to_row(make_event(**{attr: ok}))), attr) == ok
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match=f"{field} {bad} out of range"):
                event_from_row(event_to_row(make_event(**{attr: bad})))

    def test_root_code_bounds(self):
        for ok in ("0", "255", "07"):
            assert event_from_row(event_to_row(make_event(event_root_code=ok)))
        for bad in ("256", "300", "-1"):
            with pytest.raises(ValueError, match=f"EventRootCode {int(bad)} out of range"):
                event_from_row(event_to_row(make_event(event_root_code=bad)))


def _columns(records) -> dict[str, list]:
    """Record fields as columns, the input of ``event_lines``/``mention_lines``."""
    rows = [asdict(r) for r in records]
    return {name: [row[name] for row in rows] for name in rows[0]} if rows else {}


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
    same layout as the one-record ``*_to_row`` functions."""

    def test_event_golden(self):
        assert "\t".join(event_to_row(make_event())) == EVENT_GOLDEN
        assert event_lines(_columns([make_event()])) == [EVENT_GOLDEN + "\n"]

    def test_mention_golden(self):
        assert "\t".join(mention_to_row(make_mention())) == MENTION_GOLDEN
        assert mention_lines(_columns([make_mention()])) == [MENTION_GOLDEN + "\n"]

    def test_untagged_event_has_geo_type_zero(self):
        from repro.gdelt.schema import EVENTS_SCHEMA, field_index

        e = make_event(action_geo_country="")
        (line,) = event_lines(_columns([e]))
        assert line.split("\t")[field_index(EVENTS_SCHEMA, "ActionGeo_Type")] == "0"
        assert line == "\t".join(event_to_row(e)) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(event_records, max_size=8))
    def test_event_lines_equal_rows(self, records):
        want = ["\t".join(event_to_row(e)) + "\n" for e in records]
        assert (event_lines(_columns(records)) if records else []) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(mention_records, max_size=8))
    def test_mention_lines_equal_rows(self, records):
        want = ["\t".join(mention_to_row(m)) + "\n" for m in records]
        assert (mention_lines(_columns(records)) if records else []) == want


class TestMentionRows:
    def test_roundtrip(self):
        m = make_mention()
        assert mention_from_row(mention_to_row(m)) == m

    def test_row_width(self):
        assert len(mention_to_row(make_mention())) == 16

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError, match="columns"):
            mention_from_row(["1"] * 15)

    @pytest.mark.parametrize(
        "field,attr,lo,hi", MENTION_INT_FIELDS, ids=_ids(MENTION_INT_FIELDS)
    )
    def test_integer_bounds_follow_the_column(self, field, attr, lo, hi):
        for ok in (lo, hi):
            assert getattr(mention_from_row(mention_to_row(make_mention(**{attr: ok}))), attr) == ok
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match=f"{field} {bad} out of range"):
                mention_from_row(mention_to_row(make_mention(**{attr: bad})))


class TestStreams:
    def test_events_stream_roundtrip(self):
        events = [make_event(global_event_id=i) for i in range(1, 6)]
        buf = io.StringIO()
        assert write_events_tsv(buf, events) == 5
        buf.seek(0)
        assert list(read_events_tsv(buf)) == events

    def test_mentions_stream_roundtrip(self):
        mentions = [make_mention(global_event_id=i) for i in range(1, 4)]
        buf = io.StringIO()
        assert write_mentions_tsv(buf, mentions) == 3
        buf.seek(0)
        assert list(read_mentions_tsv(buf)) == mentions

    def test_blank_lines_skipped(self):
        buf = io.StringIO("\n\n")
        assert list(read_events_tsv(buf)) == []


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
        import zipfile

        path = tmp_path / "bad.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("a", "1")
            zf.writestr("b", "2")
        with pytest.raises(ValueError, match="members"):
            open_chunk_text(path)
