"""Country roster and TLD attribution rules."""

from __future__ import annotations

import pytest

from repro.gdelt import codes


class TestRoster:
    def test_fips_codes_unique(self):
        fips = [c.fips for c in codes.COUNTRIES]
        assert len(fips) == len(set(fips))

    def test_tlds_unique(self):
        tlds = [c.tld for c in codes.COUNTRIES]
        assert len(tlds) == len(set(tlds))

    def test_roster_covers_paper_tables(self):
        """Every country named in Tables V-VII must be in the roster."""
        needed = {
            "UK", "US", "AS", "IN", "IT", "CA", "SF", "NI", "BG", "RP",
            "CH", "RS", "IS", "PK",
        }
        assert needed <= {c.fips for c in codes.COUNTRIES}

    def test_roster_large_enough_for_fig8(self):
        assert len(codes.COUNTRIES) >= 50


class TestTldAttribution:
    @pytest.mark.parametrize(
        "domain,fips",
        [
            ("bbc.co.uk", "UK"),
            ("heraldsun.com.au", "AS"),
            ("timesofindia.in", "IN"),
            ("lemonde.fr", "FR"),
            ("punchng.ng", "NI"),
        ],
    )
    def test_cc_tlds(self, domain, fips):
        assert codes.source_country(domain) == fips

    def test_generic_tld_maps_to_us(self):
        """The paper's acknowledged quirk: theguardian.com counts as US."""
        assert codes.source_country("theguardian.com") == "US"
        assert codes.source_country("nytimes.com") == "US"
        assert codes.source_country("somesite.org") == "US"

    def test_unknown_tld_is_none(self):
        assert codes.source_country("weird.xyz") is None

    def test_empty_domain(self):
        assert codes.source_country("") is None

    def test_case_and_trailing_dot(self):
        assert codes.source_country("BBC.CO.UK.") == "UK"

    def test_split_tld(self):
        assert codes.split_tld("a.b.co.uk") == "uk"
        assert codes.split_tld("plain") == "plain"
