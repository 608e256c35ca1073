"""Master file list format and forgiving parser."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.gdelt.masterlist import (
    EXPORT_KIND,
    MENTIONS_KIND,
    MasterListEntry,
    chunk_basename,
    format_master_list,
    parse_master_list,
)


def entry(url: str, size: int = 123) -> MasterListEntry:
    return MasterListEntry(size=size, md5="ab" * 16, url=url)


class TestChunkNames:
    def test_export_name(self):
        assert chunk_basename(0, EXPORT_KIND) == "20150218000000.export.CSV.zip"

    def test_mentions_name(self):
        assert chunk_basename(96, MENTIONS_KIND) == "20150219000000.mentions.CSV.zip"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            chunk_basename(0, "gkg")


class TestParse:
    def test_well_formed(self):
        text = format_master_list(
            [
                entry("http://x/20150218000000.export.CSV.zip"),
                entry("http://x/20150218000000.mentions.CSV.zip"),
            ]
        )
        parsed = parse_master_list(text)
        assert len(parsed.chunks) == 2
        assert not parsed.malformed_lines
        kinds = {c.kind for c in parsed.chunks}
        assert kinds == {EXPORT_KIND, MENTIONS_KIND}
        assert all(c.interval == 0 for c in parsed.chunks)

    @pytest.mark.parametrize(
        "line",
        [
            "12345 deadbeef http://x/y.zip",  # short md5
            "notanint " + "ab" * 16 + " http://x/y.zip",
            "12345 " + "ab" * 16,  # missing url
            "12345 " + "zz" * 16 + " http://x/y.zip",  # non-hex md5
        ],
    )
    def test_malformed_lines_recorded_not_raised(self, line):
        parsed = parse_master_list(line + "\n")
        assert parsed.malformed_lines == [line]
        assert not parsed.chunks

    def test_unrecognized_urls_kept_separate(self):
        """GKG files exist in the real list; we skip, not fail."""
        text = format_master_list([entry("http://x/20150218000000.gkg.csv.zip")])
        parsed = parse_master_list(text)
        assert len(parsed.unrecognized_urls) == 1
        assert not parsed.malformed_lines

    def test_invalid_timestamp_is_malformed(self):
        text = format_master_list([entry("http://x/20159999000000.export.CSV.zip")])
        parsed = parse_master_list(text)
        assert len(parsed.malformed_lines) == 1

    def test_empty_lines_skipped(self):
        parsed = parse_master_list("\n\n  \n")
        assert not parsed.chunks and not parsed.malformed_lines

    @settings(max_examples=50, deadline=None)
    @given(interval=st.integers(min_value=0, max_value=170_000))
    def test_roundtrip_any_interval(self, interval):
        url = "http://data.gdeltproject.org/" + chunk_basename(interval, EXPORT_KIND)
        parsed = parse_master_list(format_master_list([entry(url)]))
        assert len(parsed.chunks) == 1
        assert parsed.chunks[0].interval == interval
