"""On-disk format description (manifest schema and validation).

The manifest is deliberately tiny JSON: the bulk data lives in raw
little-endian column files whose byte size must equal
``rows * dtype.itemsize`` — a cheap but effective integrity check that
catches truncated writes without checksumming gigabytes.

Since format version 3 every data file additionally records its CRC32
in the manifest (``crc32`` on columns and indexes, ``offsets_crc32`` /
``blob_crc32`` on dictionaries).  Size checks stay the cheap always-on
guard; checksums catch *silent* corruption (bit rot, torn writes that
kept the length) and back the ``repro-gdelt verify`` subcommand.
Checksum fields are optional in the schema so hand-built manifests
without them still load — they are then simply not verifiable.

Every table carries **zone maps** (``zone_maps``: min/max/null-count
per column per fixed-size row chunk, see :mod:`repro.storage.stats`),
which the query planner uses to skip chunks a filter provably cannot
match.  The reader accepts exactly :data:`FORMAT_VERSION` (4, the
revision that made zone maps part of every table); a manifest of any
other version, or one with a table lacking zone maps, is malformed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "StorageError",
    "ColumnMeta",
    "TableMeta",
    "DictionaryMeta",
    "IndexMeta",
    "Manifest",
    "write_manifest",
]

FORMAT_VERSION = 4

#: dtypes allowed in column files (little-endian, fixed width).
ALLOWED_DTYPES = frozenset(
    {"int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "float32", "float64", "bool"}
)


class StorageError(RuntimeError):
    """Raised on malformed, truncated, or version-incompatible datasets."""


@dataclass(slots=True)
class ColumnMeta:
    """One column file.

    ``dictionary`` names the shared string dictionary the integer codes
    refer to (``None`` for plain numeric columns).  ``codec`` is ``raw``
    (mmap-able fixed-width) or a compression codec from
    :mod:`repro.storage.codecs`; encoded columns record their on-disk
    byte size in ``stored_bytes`` for integrity checking.  ``crc32`` is
    the checksum of the on-disk bytes (``None`` = unrecorded).
    """

    name: str
    dtype: str
    dictionary: str | None = None
    codec: str = "raw"
    stored_bytes: int | None = None
    crc32: int | None = None

    def __post_init__(self) -> None:
        if self.dtype not in ALLOWED_DTYPES:
            raise StorageError(f"column {self.name}: unsupported dtype {self.dtype}")
        from repro.storage.codecs import CODECS

        if self.codec not in CODECS:
            raise StorageError(f"column {self.name}: unknown codec {self.codec!r}")
        if self.codec != "raw" and self.stored_bytes is None:
            raise StorageError(
                f"column {self.name}: encoded columns need stored_bytes"
            )

    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype).newbyteorder("<")


@dataclass(slots=True)
class TableMeta:
    """One table: row count, columns, and zone maps.

    ``zone_maps`` is the plain-JSON form produced by
    :meth:`repro.storage.stats.ZoneMaps.to_manifest`.
    """

    name: str
    rows: int
    columns: list[ColumnMeta]
    zone_maps: dict

    def column(self, name: str) -> ColumnMeta:
        for c in self.columns:
            if c.name == name:
                return c
        raise StorageError(f"table {self.name}: no column {name!r}")


@dataclass(slots=True)
class DictionaryMeta:
    """A shared string dictionary: ``size`` entries, offsets + UTF-8 blob."""

    name: str
    size: int
    offsets_crc32: int | None = None
    blob_crc32: int | None = None


@dataclass(slots=True)
class IndexMeta:
    """A precomputed index array over a table (e.g. a sort permutation)."""

    name: str
    table: str
    kind: str  # "permutation" | "boundaries"
    dtype: str
    length: int
    crc32: int | None = None


@dataclass(slots=True)
class Manifest:
    version: int
    tables: list[TableMeta] = field(default_factory=list)
    dictionaries: list[DictionaryMeta] = field(default_factory=list)
    indexes: list[IndexMeta] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def table(self, name: str) -> TableMeta:
        for t in self.tables:
            if t.name == name:
                return t
        raise StorageError(f"no table {name!r} in dataset")

    def dictionary(self, name: str) -> DictionaryMeta:
        for d in self.dictionaries:
            if d.name == name:
                return d
        raise StorageError(f"no dictionary {name!r} in dataset")

    def index(self, name: str) -> IndexMeta:
        for i in self.indexes:
            if i.name == name:
                return i
        raise StorageError(f"no index {name!r} in dataset")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StorageError(f"manifest is not valid JSON: {exc}") from exc
        if raw.get("version") != FORMAT_VERSION:
            raise StorageError(
                f"dataset format version {raw.get('version')} is not "
                f"{FORMAT_VERSION}"
            )
        tables = []
        for t in raw.get("tables", []):
            if not isinstance(t.get("zone_maps"), dict):
                raise StorageError(f"table {t['name']!r}: manifest has no zone maps")
            tables.append(
                TableMeta(
                    name=t["name"],
                    rows=t["rows"],
                    columns=[ColumnMeta(**c) for c in t["columns"]],
                    zone_maps=t["zone_maps"],
                )
            )
        dicts = [DictionaryMeta(**d) for d in raw.get("dictionaries", [])]
        indexes = [IndexMeta(**i) for i in raw.get("indexes", [])]
        return cls(
            version=raw["version"],
            tables=tables,
            dictionaries=dicts,
            indexes=indexes,
            meta=raw.get("meta", {}),
        )


def column_path(root: Path, table: str, column: str) -> Path:
    return root / table / f"{column}.bin"


def dict_offsets_path(root: Path, name: str) -> Path:
    return root / "dict" / f"{name}.offsets.bin"


def dict_blob_path(root: Path, name: str) -> Path:
    return root / "dict" / f"{name}.blob.bin"


def index_path(root: Path, name: str) -> Path:
    return root / "index" / f"{name}.bin"


def manifest_path(root: Path) -> Path:
    return root / "manifest.json"


def write_manifest(root: Path, manifest: Manifest) -> None:
    """Atomically write (and fsync) ``manifest`` as ``root``'s commit record."""
    path = manifest_path(root)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(manifest.to_json(), encoding="utf-8")
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    tmp.replace(path)
