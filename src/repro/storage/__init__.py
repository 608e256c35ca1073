"""Indexed binary columnar storage.

The paper's preprocessing tool converts the raw GDELT CSV dumps "into an
indexed version of the database which contains data fields in machine-
readable binary format"; the query engine then memory-loads those tables.
This subpackage is that format: a dataset directory holding

* ``manifest.json`` — format version, table/column metadata, row counts;
* ``<table>/<column>.bin`` — raw little-endian fixed-width column files,
  loadable with ``np.memmap`` (zero parse cost);
* ``dict/<name>.*`` — shared string dictionaries (offsets + UTF-8 blob)
  for dictionary-encoded columns such as source names and URLs.

The tables themselves are the index: events are stored sorted by
``GlobalEventID`` and mentions by capture interval, so the event join
and time slices are ``searchsorted`` on key columns, and per-chunk zone
maps in the manifest let the planner skip chunks.

Writers validate shapes and fsync the manifest last, so a dataset
directory is either complete or detectably unfinished.
:class:`DatasetWriter` is schema-agnostic; the GDELT layout on top of it
(dictionary bindings, codecs) is :mod:`repro.storage.gdelt`.
"""

from repro.storage.format import (
    FORMAT_VERSION,
    ColumnMeta,
    TableMeta,
    DictionaryMeta,
    Manifest,
    StorageError,
)
from repro.storage.columns import StringDictionary
from repro.storage.codecs import CODECS, codec_supports, decode_column, encode_column
from repro.storage.stats import DEFAULT_ZONE_CHUNK_ROWS, ZoneMaps, compute_zone_maps
from repro.storage.writer import DatasetWriter
from repro.storage.reader import DatasetReader
from repro.storage.gdelt import write_gdelt_dataset
from repro.storage.verify import VerifyIssue, VerifyReport, verify_dataset

__all__ = [
    "DEFAULT_ZONE_CHUNK_ROWS",
    "ZoneMaps",
    "compute_zone_maps",
    "FORMAT_VERSION",
    "ColumnMeta",
    "TableMeta",
    "DictionaryMeta",
    "Manifest",
    "StorageError",
    "StringDictionary",
    "CODECS",
    "codec_supports",
    "decode_column",
    "encode_column",
    "DatasetWriter",
    "DatasetReader",
    "write_gdelt_dataset",
    "VerifyIssue",
    "VerifyReport",
    "verify_dataset",
]
