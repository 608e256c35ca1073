"""Split one binary dataset into N shard datasets.

The placement contract the whole sharding tier leans on:

* **mentions are partitioned** into contiguous row ranges of the
  capture-sorted table.  Mentions are stored ordered by
  ``MentionInterval``, so contiguous row ranges ARE contiguous
  capture-time ranges — each shard's zone maps then bound a disjoint
  time interval, which is what lets the router's shard map prune whole
  backends for time-filtered queries, and shard order equals global row
  order, which is what makes order-sensitive merges byte-identical;
* **events and every string dictionary are replicated.**  Events are
  small relative to mentions (one row per event vs. one per article),
  every shard needs them for the event join and derived group keys, and a
  full replica means any one shard can answer an events-table query
  exactly.  Dictionary ids stay global, so no id remapping happens
  anywhere.

Each shard is a complete, self-contained dataset directory — openable
by :meth:`GdeltStore.open` and servable by ``repro-gdelt serve``
unchanged — plus a ``shard`` stamp in its manifest meta
(``{"index", "count", "row_lo", "row_hi"}``) that
:func:`~repro.serve.protocol.store_meta` surfaces so a router can name
shards stably.

The split is a streaming file operation: the source is never opened as
a store.  Each column (or a mention column's ``[lo, hi)`` slice) is read
by offset when the dataset writer asks for it and dropped once written;
the replicated dictionary files are copied in blocks.  Memory follows
one column slice, however large the corpus and its URL dictionaries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.storage.gdelt import DICTIONARIES, write_gdelt_dataset
from repro.storage.reader import DatasetReader

__all__ = ["shard_ranges", "split_dataset"]


def shard_ranges(rows: int, shards: int) -> list[tuple[int, int]]:
    """Even contiguous ``[lo, hi)`` row ranges covering ``rows``.

    With more shards than rows the tail shards are legitimately empty —
    the router skips them (``shard_skipped_total{reason="empty"}``).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    cuts = [round(i * rows / shards) for i in range(shards + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(shards)]


class _SourceTable(Mapping):
    """One table of a source dataset as a column mapping that reads a
    column (its ``rows`` slice, when given) only when asked."""

    def __init__(
        self, reader: DatasetReader, table: str, rows: tuple[int, int] | None = None
    ) -> None:
        self._reader, self._table, self._rows = reader, table, rows
        self._names = reader.columns(table)

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        return self._reader.column(self._table, name, rows=self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def split_dataset(
    dataset_dir: Path,
    out_dir: Path,
    shards: int,
    zone_chunk_rows: int | None = None,
) -> list[Path]:
    """Split a dataset directory into ``shards`` shard directories.

    Returns the shard directory paths (``out_dir/shard0`` ...), each a
    complete dataset.  ``zone_chunk_rows`` overrides the shard writers'
    zone-map granularity (None keeps the default).  Each shard's
    manifest meta is the source's with ``origin: split`` and the
    ``shard`` stamp; its columns are written raw whatever the source's
    codecs.  A contiguous slice of the sorted source is itself sorted, so
    nothing is re-sorted per shard.
    """
    source = DatasetReader(Path(dataset_dir), mode="memory")
    present = {d.name for d in source.manifest.dictionaries}
    dictionaries = {name: source for name in DICTIONARIES if name in present}
    paths: list[Path] = []
    for i, (lo, hi) in enumerate(shard_ranges(source.rows("mentions"), shards)):
        shard_dir = Path(out_dir) / f"shard{i}"
        write_gdelt_dataset(
            shard_dir,
            _SourceTable(source, "events"),
            _SourceTable(source, "mentions", rows=(lo, hi)),
            dictionaries,
            zone_chunk_rows=zone_chunk_rows,
            meta=dict(
                source.manifest.meta,
                origin="split",
                shard={
                    "index": i,
                    "count": shards,
                    "row_lo": int(lo),
                    "row_hi": int(hi),
                },
            ),
        )
        paths.append(shard_dir)
    return paths
