"""Dataset directory reader.

Columns are exposed as read-only views of a memory map by default (the
OS page cache is the buffer pool; the paper's engine similarly loads
tables into the node's large memory once).  ``mode="memory"`` copies
columns into process-private arrays, which is what the benchmark
harness uses for stable timings.

Integrity: column byte sizes are validated at open (cheap, always on).
Manifest CRC32s are verified where the bytes are in hand anyway —
compressed columns and dictionaries — so silent corruption of the
small-but-critical files is caught at load time and raises.
``verify_checksums=True`` (or the
``repro-gdelt verify`` subcommand) checksums everything, including raw
columns.
"""

from __future__ import annotations

import logging
import zlib
from pathlib import Path

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import state as _obs
from repro.obs.trace import span as _span
from repro.storage.columns import StringDictionary
from repro.storage.format import (
    Manifest,
    StorageError,
    column_path,
    dict_blob_path,
    dict_offsets_path,
    manifest_path,
)

__all__ = ["DatasetReader"]

logger = logging.getLogger(__name__)


def note_corrupt(path: Path, kind: str, detail: str) -> StorageError:
    """Count a corrupt file (unconditionally — corruption is never noise)
    and build the error to raise."""
    _metrics.counter("storage_corrupt_files_total", kind=kind).inc()
    logger.warning("corrupt %s file %s: %s", kind, path, detail)
    return StorageError(f"{path}: {detail}")


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
                if c.codec == "raw":
                    expect = t.rows * c.np_dtype().itemsize
                else:
                    expect = c.stored_bytes
                actual = path.stat().st_size
                if actual != expect:
                    raise StorageError(
                        f"{path}: {actual} bytes, expected {expect} "
                        f"({t.rows} rows x {c.dtype}, codec {c.codec})"
                    )

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
        t = self.manifest.table(table)
        c = t.column(name)
        lo, hi = (0, t.rows) if rows is None else rows
        if not 0 <= lo <= hi <= t.rows:
            raise ValueError(f"{table}.{name}: rows {rows} outside [0, {t.rows}]")
        dtype = c.np_dtype()
        path = column_path(self.root, table, name)
        if c.codec != "raw":
            from repro.storage.codecs import decode_column

            payload = path.read_bytes()
            if c.crc32 is not None and zlib.crc32(payload) != c.crc32:
                raise note_corrupt(path, "column", "CRC32 mismatch")
            out = decode_column(payload, c.codec, dtype, t.rows)
            if rows is not None:
                out = out[lo:hi]
        elif self.mode == "mmap" and hi > lo:
            # A plain ndarray over the map (its base keeps the map open):
            # np.memmap's Python-level finalize/wrap hooks would run on
            # every morsel slice and ufunc of every query.
            out = np.asarray(np.memmap(
                path, dtype=dtype, mode="r", offset=lo * dtype.itemsize,
                shape=(hi - lo,),
            ))
        else:
            out = np.fromfile(
                path, dtype=dtype, count=hi - lo, offset=lo * dtype.itemsize
            )
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

    def table_arrays(self, table: str) -> dict[str, np.ndarray]:
        """Load every column of a table."""
        with _span("storage.load_table", table=table) as sp:
            arrays = {c: self.column(table, c) for c in self.columns(table)}
            sp.set(columns=len(arrays))
        return arrays

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
