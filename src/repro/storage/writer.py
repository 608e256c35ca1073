"""Dataset directory writer.

Every data file is committed atomically: bytes go to a ``*.tmp``
sibling first and are renamed into place, so a crashed write can never
leave a half-written file under a final name.  The CRC32 of each file's
bytes is recorded in the manifest as it is written.  The manifest
itself is written (and fsynced) last, so readers can treat the presence
of a valid manifest as a commit record for the whole directory.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.faults.injector import fault_point
from repro.storage.columns import StringDictionary
from repro.storage.format import (
    FORMAT_VERSION,
    ColumnMeta,
    DictionaryMeta,
    IndexMeta,
    Manifest,
    StorageError,
    TableMeta,
    column_path,
    dict_blob_path,
    dict_offsets_path,
    index_path,
    write_manifest,
)
from repro.storage.reader import DatasetReader, note_corrupt
from repro.storage.stats import DEFAULT_ZONE_CHUNK_ROWS, ZoneMaps
from repro.storage.verify import file_blocks

__all__ = ["DatasetWriter"]


class DatasetWriter:
    """Builds one binary dataset directory.

    Usage::

        w = DatasetWriter(path)
        w.add_table("events", {"GlobalEventID": ids, ...})
        w.add_dictionary("sources", source_dict)
        w.add_index("mentions_by_event", "mentions", "permutation", perm)
        w.finish(meta={"origin": "synthetic"})

    ``zone_chunk_rows`` sets the zone-map granularity recorded for each
    table.

    The writer holds one column at a time (:meth:`add_table`) and copies
    a source dataset's dictionary files in blocks (:meth:`add_dictionary`),
    so its memory follows the largest column it is handed, not the
    dataset.
    """

    def __init__(
        self, root: Path, zone_chunk_rows: int = DEFAULT_ZONE_CHUNK_ROWS
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.zone_chunk_rows = zone_chunk_rows
        self._manifest = Manifest(version=FORMAT_VERSION)
        self._finished = False

    def _commit(self, path: Path, write: Callable[[Path], int]) -> int:
        """Atomically create ``path``: ``write(tmp)`` fills a ``*.tmp``
        sibling and returns its CRC32, which is renamed into place."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            crc = write(tmp)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        fault_point(
            "storage.write",
            key=str(path.relative_to(self.root)),
            path=path,
        )
        return crc

    def _commit_array(self, path: Path, arr: np.ndarray) -> int:
        """Atomically write a contiguous array's raw bytes; returns CRC32."""

        def write(tmp: Path) -> int:
            arr.tofile(tmp)
            return zlib.crc32(np.ascontiguousarray(arr).data)

        return self._commit(path, write)

    def _commit_copy(self, path: Path, src: Path, crc32: int | None) -> int:
        """Atomically copy file ``src`` to ``path`` in fixed-size blocks,
        checking the source's bytes against ``crc32`` on the way (a
        mismatch is counted as a corrupt dictionary and nothing is
        committed); returns the CRC32."""

        def write(tmp: Path) -> int:
            crc = 0
            with open(tmp, "wb") as out:
                for block in file_blocks(src):
                    crc = zlib.crc32(block, crc)
                    out.write(block)
            if crc32 is not None and crc != crc32:
                raise note_corrupt(src, "dictionary", "CRC32 mismatch")
            return crc

        return self._commit(path, write)

    def add_table(
        self,
        name: str,
        columns: Mapping[str, np.ndarray],
        dictionaries: dict[str, str] | None = None,
        codecs: dict[str, str] | None = None,
    ) -> None:
        """Write all columns of a table, one at a time.

        Each column is taken from ``columns.items()``, written, folded
        into the table's zone maps and dropped before the next is taken,
        so a mapping that loads columns on access (a source dataset's,
        say) streams through holding one column at a time.

        Args:
            name: table name.
            columns: column name → 1-D array; all must share one length.
            dictionaries: column name → dictionary name, for dict-encoded
                columns.
            codecs: column name → codec name (``delta-rle`` / ``zlib``);
                unlisted columns stay ``raw`` (mmap-able).
        """
        self._check_open()
        if not columns:
            raise StorageError(f"table {name!r} has no columns")
        dictionaries = dictionaries or {}
        codecs = codecs or {}

        metas: list[ColumnMeta] = []
        zones: ZoneMaps | None = None
        for col, arr in columns.items():
            arr = np.ascontiguousarray(arr)
            if arr.ndim != 1:
                raise StorageError(f"{name}.{col}: columns must be 1-D")
            if zones is None:  # the first column sets the row count
                zones = ZoneMaps(
                    chunk_rows=self.zone_chunk_rows, n_rows=len(arr),
                    mins={}, maxs={}, nulls={},
                )
            elif len(arr) != zones.n_rows:
                raise StorageError(
                    f"table {name!r}: ragged columns ({col!r} has {len(arr)} "
                    f"rows, the first column {zones.n_rows})"
                )
            dtype_name = arr.dtype.name
            codec = codecs.get(col, "raw")
            path = column_path(self.root, name, col)
            if codec == "raw":
                meta = ColumnMeta(
                    name=col, dtype=dtype_name, dictionary=dictionaries.get(col)
                )
                meta.crc32 = self._commit_array(
                    path, arr.astype(meta.np_dtype(), copy=False)
                )
            else:
                from repro.storage.codecs import encode_column

                payload = encode_column(arr, codec)
                meta = ColumnMeta(
                    name=col,
                    dtype=dtype_name,
                    dictionary=dictionaries.get(col),
                    codec=codec,
                    stored_bytes=len(payload),
                )
                meta.crc32 = self._commit_array(
                    path, np.frombuffer(payload, np.uint8)
                )
            metas.append(meta)
            zones.add_column(col, arr)
            del arr  # before ``columns`` hands over the next one
        self._manifest.tables.append(
            TableMeta(name, zones.n_rows, metas, zones.to_manifest())
        )

    def add_dictionary(
        self, name: str, dictionary: StringDictionary | DatasetReader
    ) -> None:
        """Write a shared string dictionary (offsets + blob files).

        ``dictionary`` is either the dictionary in hand or a source
        dataset holding one under the same name; the source's two files
        are then copied block by block, never loaded, and a source file
        whose CRC32 does not match its manifest raises
        :class:`StorageError`.
        """
        self._check_open()
        if isinstance(dictionary, StringDictionary):
            offsets, blob = dictionary.arrays
            size = len(dictionary)
            o_crc = self._commit_array(
                dict_offsets_path(self.root, name), offsets.astype("<i8", copy=False)
            )
            b_crc = self._commit_array(dict_blob_path(self.root, name), blob)
        else:
            src = dictionary.manifest.dictionary(name)
            size = src.size
            o_src = dict_offsets_path(dictionary.root, name)
            if o_src.stat().st_size != (size + 1) * 8:
                raise StorageError(f"{o_src}: not {size} entries")
            o_crc = self._commit_copy(
                dict_offsets_path(self.root, name), o_src, src.offsets_crc32
            )
            b_crc = self._commit_copy(
                dict_blob_path(self.root, name),
                dict_blob_path(dictionary.root, name),
                src.blob_crc32,
            )
        self._manifest.dictionaries.append(
            DictionaryMeta(
                name=name,
                size=size,
                offsets_crc32=o_crc,
                blob_crc32=b_crc,
            )
        )

    def add_index(
        self, name: str, table: str, kind: str, data: np.ndarray
    ) -> None:
        """Write an index array (sort permutation or boundary offsets)."""
        self._check_open()
        if kind not in ("permutation", "boundaries"):
            raise StorageError(f"unknown index kind {kind!r}")
        data = np.ascontiguousarray(data)
        crc = self._commit_array(index_path(self.root, name), data)
        self._manifest.indexes.append(
            IndexMeta(
                name=name,
                table=table,
                kind=kind,
                dtype=data.dtype.name,
                length=len(data),
                crc32=crc,
            )
        )

    def finish(self, meta: dict | None = None) -> Manifest:
        """Write the manifest; the dataset is now complete and immutable."""
        self._check_open()
        self._manifest.meta = dict(meta or {})
        write_manifest(self.root, self._manifest)
        self._finished = True
        return self._manifest

    def _check_open(self) -> None:
        if self._finished:
            raise StorageError("writer already finished")
