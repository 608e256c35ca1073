"""GDELT 2.0 data model.

This subpackage defines the *external* contract of the system: the exact
shape of the GDELT 2.0 Event Database as it is published by the GDELT
project every 15 minutes — the 61-column Events table, the 16-column
Mentions table, the master file list, the zipped TSV chunk archives, and
the time conventions (15-minute capture intervals, ``YYYYMMDDHHMMSS``
timestamps) that the paper's analyses are built on.

Everything downstream (the synthetic generator, the preprocessing tool,
the binary store) speaks in terms of these definitions.
"""

from repro.gdelt.schema import (
    EVENTS_SCHEMA,
    MENTIONS_SCHEMA,
    EVENTS_CORE_FIELDS,
    MENTIONS_CORE_FIELDS,
    Field,
    FieldKind,
)
from repro.gdelt.time_util import (
    GDELT_V2_EPOCH,
    INTERVAL_MINUTES,
    INTERVALS_PER_DAY,
    interval_to_timestamp,
    timestamp_to_interval,
    timestamps_to_intervals,
    interval_to_quarter,
    intervals_to_quarters,
    quarter_label,
    quarter_range,
)
from repro.gdelt.codes import (
    COUNTRIES,
    Country,
    tld_to_fips,
    source_country,
)
from repro.gdelt.masterlist import (
    MasterListEntry,
    ChunkRef,
    format_master_list,
    parse_master_list,
    chunk_basename,
)

__all__ = [
    "EVENTS_SCHEMA",
    "MENTIONS_SCHEMA",
    "EVENTS_CORE_FIELDS",
    "MENTIONS_CORE_FIELDS",
    "Field",
    "FieldKind",
    "GDELT_V2_EPOCH",
    "INTERVAL_MINUTES",
    "INTERVALS_PER_DAY",
    "interval_to_timestamp",
    "timestamp_to_interval",
    "timestamps_to_intervals",
    "interval_to_quarter",
    "intervals_to_quarters",
    "quarter_label",
    "quarter_range",
    "COUNTRIES",
    "Country",
    "tld_to_fips",
    "source_country",
    "MasterListEntry",
    "ChunkRef",
    "format_master_list",
    "parse_master_list",
    "chunk_basename",
]
