"""Country code tables and source-country attribution.

GDELT geocodes event locations with FIPS 10-4 country codes
(``ActionGeo_CountryCode``).  The paper attributes each *news source* to a
country by the top-level domain of its URL, explicitly accepting the
known inaccuracy that generic TLDs (``.com``/``.org``/…) collapse onto
the United States (their example: ``theguardian.com``).  We reproduce
exactly that attribution rule in :func:`source_country`.

The table below covers the countries that appear in the paper's tables
(top-10 publishing, top-10 reported-on) plus enough others to populate
the 50x50 matrices of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Country",
    "COUNTRIES",
    "TLD_TO_COUNTRY",
    "GENERIC_TLDS",
    "tld_to_fips",
    "source_country",
    "split_tld",
]


@dataclass(frozen=True, slots=True)
class Country:
    """A country as seen by the system.

    Attributes:
        fips: FIPS 10-4 code used in GDELT ``*Geo_CountryCode`` columns.
        name: Display name.
        tld: Country-code top-level domain ("uk", "au", ...).
    """

    fips: str
    name: str
    tld: str


#: Country roster.  Order is stable (used as a default enumeration order in
#: synthetic generation) but carries no semantic weight — analyses order
#: countries by measured counts, as the paper does.
COUNTRIES: tuple[Country, ...] = (
    Country("US", "United States", "us"),
    Country("UK", "United Kingdom", "uk"),
    Country("AS", "Australia", "au"),
    Country("IN", "India", "in"),
    Country("IT", "Italy", "it"),
    Country("CA", "Canada", "ca"),
    Country("SF", "South Africa", "za"),
    Country("NI", "Nigeria", "ng"),
    Country("BG", "Bangladesh", "bd"),
    Country("RP", "Philippines", "ph"),
    Country("CH", "China", "cn"),
    Country("RS", "Russia", "ru"),
    Country("IS", "Israel", "il"),
    Country("PK", "Pakistan", "pk"),
    Country("GM", "Germany", "de"),
    Country("FR", "France", "fr"),
    Country("SP", "Spain", "es"),
    Country("PO", "Portugal", "pt"),
    Country("JA", "Japan", "jp"),
    Country("KS", "South Korea", "kr"),
    Country("BR", "Brazil", "br"),
    Country("MX", "Mexico", "mx"),
    Country("AR", "Argentina", "ar"),
    Country("EI", "Ireland", "ie"),
    Country("NZ", "New Zealand", "nz"),
    Country("SW", "Sweden", "se"),
    Country("NO", "Norway", "no"),
    Country("DA", "Denmark", "dk"),
    Country("FI", "Finland", "fi"),
    Country("NL", "Netherlands", "nl"),
    Country("BE", "Belgium", "be"),
    Country("SZ", "Switzerland", "ch"),
    Country("AU", "Austria", "at"),
    Country("PL", "Poland", "pl"),
    Country("GR", "Greece", "gr"),
    Country("TU", "Turkey", "tr"),
    Country("EG", "Egypt", "eg"),
    Country("KE", "Kenya", "ke"),
    Country("GH", "Ghana", "gh"),
    Country("SA", "Saudi Arabia", "sa"),
    Country("TC", "United Arab Emirates", "ae"),
    Country("SN", "Singapore", "sg"),
    Country("MY", "Malaysia", "my"),
    Country("TH", "Thailand", "th"),
    Country("ID", "Indonesia", "id"),
    Country("VM", "Vietnam", "vn"),
    Country("UP", "Ukraine", "ua"),
    Country("EZ", "Czechia", "cz"),
    Country("HU", "Hungary", "hu"),
    Country("RO", "Romania", "ro"),
    Country("CE", "Sri Lanka", "lk"),
    Country("NP", "Nepal", "np"),
    Country("CI", "Chile", "cl"),
    Country("CO", "Colombia", "co"),
    Country("PE", "Peru", "pe"),
    Country("VE", "Venezuela", "ve"),
    Country("JM", "Jamaica", "jm"),
    Country("ZI", "Zimbabwe", "zw"),
    Country("ZA", "Zambia", "zm"),
    Country("UG", "Uganda", "ug"),
    Country("TZ", "Tanzania", "tz"),
    Country("AF", "Afghanistan", "af"),
    Country("IZ", "Iraq", "iq"),
    Country("IR", "Iran", "ir"),
    Country("SY", "Syria", "sy"),
)

TLD_TO_COUNTRY: dict[str, Country] = {c.tld: c for c in COUNTRIES}

#: Generic TLDs that carry no country signal.  Following the paper's
#: attribution rule, sources under these domains are assigned to the US
#: (this is what makes theguardian.com count as a US source there).
GENERIC_TLDS: frozenset[str] = frozenset(
    {"com", "org", "net", "info", "news", "co", "online", "press", "tv"}
)


def tld_to_fips(tld: str) -> str | None:
    """FIPS code for a ccTLD, or ``None`` if unknown/generic."""
    c = TLD_TO_COUNTRY.get(tld.lower())
    return c.fips if c is not None else None


def split_tld(domain: str) -> str:
    """Effective TLD of a source domain name.

    GDELT's ``MentionSourceName`` is a bare domain (``bbc.co.uk``).  We
    take the last dot-separated label; ``co.uk``-style second-level
    registrations resolve correctly because the *last* label is the ccTLD.
    """
    domain = domain.strip().lower().rstrip(".")
    if not domain:
        return ""
    return domain.rsplit(".", 1)[-1]


def source_country(domain: str) -> str | None:
    """Country (FIPS) of a news source, by the paper's TLD rule.

    Country-code TLDs map to their country; generic TLDs map to the US;
    anything unknown maps to ``None`` (excluded from country analyses).
    """
    tld = split_tld(domain)
    if not tld:
        return None
    if tld in GENERIC_TLDS:
        return "US"
    return tld_to_fips(tld)
