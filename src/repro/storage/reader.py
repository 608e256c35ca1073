"""Dataset directory reader.

Columns are exposed as read-only views of a memory map by default (the
OS page cache is the buffer pool; the paper's engine similarly loads
tables into the node's large memory once).  ``mode="memory"`` copies
columns into process-private arrays, which is what the benchmark
harness uses for stable timings.  :meth:`DatasetReader.lazy_table`
does either per column on its first access (:class:`LazyColumns`), so a
process holds only the columns its queries read.

Integrity: column byte sizes are validated at open (cheap, always on).
Manifest CRC32s are verified where the bytes are in hand anyway —
compressed columns (when the column is read) and dictionaries — so
silent corruption of the small-but-critical files is caught at load
time and raises.  ``verify_checksums=True`` (or the
``repro-gdelt verify`` subcommand) checksums everything at open,
including raw columns.
"""

from __future__ import annotations

import logging
import os
import threading
import weakref
import zlib
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs.trace import span as _span
from repro.storage.columns import StringDictionary
from repro.storage.format import (
    ColumnMeta,
    Manifest,
    StorageError,
    TableMeta,
    column_path,
    dict_blob_path,
    dict_offsets_path,
    manifest_path,
)

__all__ = ["DatasetReader", "LazyColumns"]

logger = logging.getLogger(__name__)


def note_corrupt(path: Path, kind: str, detail: str) -> StorageError:
    """Count a corrupt file (unconditionally — corruption is never noise)
    and build the error to raise."""
    _metrics.counter("storage_corrupt_files_total", kind=kind).inc()
    logger.warning("corrupt %s file %s: %s", kind, path, detail)
    return StorageError(f"{path}: {detail}")


def _check_size(path: Path, actual: int, t: TableMeta, c: ColumnMeta) -> None:
    """Raise unless a column file holds the bytes its manifest entry says."""
    expect = t.rows * c.np_dtype().itemsize if c.codec == "raw" else c.stored_bytes
    if actual != expect:
        raise StorageError(
            f"{path}: {actual} bytes, expected {expect} "
            f"({t.rows} rows x {c.dtype}, codec {c.codec})"
        )


class DatasetReader:
    """Read-only access to one binary dataset directory."""

    def __init__(
        self, root: Path, mode: str = "mmap", verify_checksums: bool = False
    ) -> None:
        """Open a dataset.

        Args:
            root: dataset directory.
            mode: ``"mmap"`` (default) or ``"memory"``.
            verify_checksums: verify every file's CRC32 against the
                manifest at open time (full read of the dataset).

        Raises:
            StorageError: if the manifest is missing/invalid or any column
                file has the wrong byte size for its row count.
        """
        if mode not in ("mmap", "memory"):
            raise ValueError(f"unknown mode {mode!r}")
        self.root = Path(root)
        self.mode = mode
        mpath = manifest_path(self.root)
        if not mpath.exists():
            raise StorageError(f"{self.root} is not a dataset (no manifest.json)")
        self.manifest: Manifest = Manifest.from_json(
            mpath.read_text(encoding="utf-8")
        )
        self._validate_sizes()
        if verify_checksums:
            from repro.storage.verify import verify_dataset

            report = verify_dataset(self.root)
            if not report.ok:
                raise StorageError(
                    f"{self.root}: checksum verification failed — "
                    + "; ".join(str(i) for i in report.issues)
                )

    def _validate_sizes(self) -> None:
        for t in self.manifest.tables:
            for c in t.columns:
                path = column_path(self.root, t.name, c.name)
                if not path.exists():
                    raise StorageError(f"missing column file {path}")
                _check_size(path, path.stat().st_size, t, c)

    def tables(self) -> list[str]:
        return [t.name for t in self.manifest.tables]

    def rows(self, table: str) -> int:
        return self.manifest.table(table).rows

    def columns(self, table: str) -> list[str]:
        return [c.name for c in self.manifest.table(table).columns]

    def column(
        self, table: str, name: str, rows: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Load one column (mapped view or in-memory copy per ``mode``).

        ``rows=(lo, hi)`` loads only rows ``[lo, hi)``: a raw column is
        read (or mapped) at that byte offset, so a slice costs its own
        size, not the column's.  Compressed columns decode whole into
        resident arrays in either mode — their stored bytes CRC-checked
        first — and a slice of one is a view of that decoded column.
        """
        n = self.rows(table)
        lo, hi = (0, n) if rows is None else rows
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"{table}.{name}: rows {rows} outside [0, {n}]")
        with open(column_path(self.root, table, name), "rb") as f:
            return self._read(f, table, name, lo, hi)

    def _read(self, f, table: str, name: str, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of a column from its open file ``f``."""
        t = self.manifest.table(table)
        c = t.column(name)
        dtype = c.np_dtype()
        path = Path(f.name)
        if c.codec != "raw":
            from repro.storage.codecs import decode_column

            f.seek(0)
            payload = f.read()
            if c.crc32 is not None and zlib.crc32(payload) != c.crc32:
                raise note_corrupt(path, "column", "CRC32 mismatch")
            out = decode_column(payload, c.codec, dtype, t.rows)
            if (lo, hi) != (0, t.rows):
                out = out[lo:hi]
        elif self.mode == "mmap" and hi > lo:
            # A plain ndarray over the map (its base keeps the map open):
            # np.memmap's Python-level finalize/wrap hooks would run on
            # every morsel slice and ufunc of every query.
            out = np.asarray(np.memmap(
                f, dtype=dtype, mode="r", offset=lo * dtype.itemsize,
                shape=(hi - lo,),
            ))
        else:
            out = np.empty(hi - lo, dtype=dtype)
            f.seek(lo * dtype.itemsize)
            if f.readinto(out) != out.nbytes:
                raise StorageError(f"{path}: truncated since open")
        if _obs._enabled:
            _metrics.counter(
                "storage_columns_read_total", mode=self.mode, codec=c.codec
            ).inc()
            # Logical column bytes: what a query over this column streams
            # (mmap-ed columns fault these in lazily).
            _metrics.counter("storage_column_bytes_total", table=table).inc(
                out.nbytes
            )
        return out

    def lazy_table(self, table: str) -> "LazyColumns":
        """A table's columns, each loaded on its first access from a file
        pinned now (see :class:`LazyColumns`)."""
        return LazyColumns(self, table)

    def dictionary(self, name: str) -> StringDictionary:
        """Load a shared string dictionary (CRC-checked)."""
        meta = self.manifest.dictionary(name)
        opath = dict_offsets_path(self.root, name)
        bpath = dict_blob_path(self.root, name)
        obytes = opath.read_bytes()
        bbytes = bpath.read_bytes()
        # Size before checksum: truncation is the cheap-to-name failure.
        if len(obytes) // 8 != meta.size + 1:
            raise StorageError(
                f"dictionary {name}: {len(obytes) // 8 - 1} entries, "
                f"manifest says {meta.size}"
            )
        if meta.offsets_crc32 is not None and zlib.crc32(obytes) != meta.offsets_crc32:
            raise note_corrupt(opath, "dictionary", "CRC32 mismatch")
        if meta.blob_crc32 is not None and zlib.crc32(bbytes) != meta.blob_crc32:
            raise note_corrupt(bpath, "dictionary", "CRC32 mismatch")
        offsets = np.frombuffer(obytes, dtype="<i8")
        blob = np.frombuffer(bbytes, dtype=np.uint8)
        return StringDictionary(offsets, blob)

    def zone_maps(self, table: str):
        """Zone maps recorded for ``table``."""
        from repro.storage.stats import ZoneMaps

        return ZoneMaps.from_manifest(self.manifest.table(table).zone_maps)


def _close_files(files: dict) -> None:
    for f in files.values():
        f.close()
    files.clear()


class LazyColumns(Mapping):
    """A dataset table's columns by name, each loaded on first access.

    Opening checks every column file's size against the manifest and
    keeps the file open (*pinned*): a dataset rewritten through the
    writer (temp + rename) after the open cannot reach a column first
    read later, because the read goes to the pinned file.  The first
    access of a column reads (``memory``) or maps (``mmap``) it through
    :meth:`DatasetReader.column`'s path — a compressed column is
    CRC-checked and decoded then — under a per-table lock, so
    concurrent first accesses load it once; the column is kept and its
    file closed.  Membership, iteration and :attr:`rows` come from the
    manifest and load nothing.

    :meth:`close` (and garbage collection) closes the files still
    pinned; a column first accessed after that raises
    :class:`StorageError`.
    """

    def __init__(self, reader: DatasetReader, table: str) -> None:
        t = reader.manifest.table(table)
        self.rows = t.rows
        self._reader = reader
        self._table = table
        self._columns = {c.name: c for c in t.columns}
        self._arrays: dict[str, np.ndarray] = {}
        self._files: dict = {}
        self._lock = threading.Lock()
        self._close = weakref.finalize(self, _close_files, self._files)
        try:
            for c in t.columns:
                path = column_path(reader.root, table, c.name)
                self._files[c.name] = f = open(path, "rb")
                _check_size(path, os.fstat(f.fileno()).st_size, t, c)
        except BaseException:
            self._close()
            raise

    @property
    def nbytes(self) -> int:
        """Logical bytes of every column (loaded or not)."""
        return sum(self.rows * c.np_dtype().itemsize for c in self._columns.values())

    def dtype(self, name: str) -> np.dtype:
        """A column's dtype, from the manifest."""
        return self._columns[name].np_dtype()

    def __getitem__(self, name: str) -> np.ndarray:
        out = self._arrays.get(name)
        if out is None:
            with self._lock:
                out = self._arrays.get(name)
                if out is None:
                    out = self._load(name)
        return out

    def _load(self, name: str) -> np.ndarray:
        f = self._files.get(name)
        if f is None:
            if name in self._columns:
                raise StorageError(
                    f"{self._table}.{name}: dataset closed before first read"
                )
            raise KeyError(name)
        with _span("storage.load_column", table=self._table, column=name):
            out = self._reader._read(f, self._table, name, 0, self.rows)
        self._arrays[name] = out
        del self._files[name]
        f.close()
        return out

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def close(self) -> None:
        """Close the files of columns never read; loaded columns stay."""
        with self._lock:
            self._close()
