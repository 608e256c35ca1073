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
  every shard needs them for join indexes and derived group keys, and a
  full replica means any one shard can answer an events-table query
  exactly.  Dictionary ids stay global, so no id remapping happens
  anywhere.

Each shard is a complete, self-contained dataset directory — openable
by :meth:`GdeltStore.open` and servable by ``repro-gdelt serve``
unchanged — plus a ``shard`` stamp in its manifest meta
(``{"index", "count", "row_lo", "row_hi"}``) that
:func:`~repro.serve.protocol.store_meta` surfaces so a router can name
shards stably.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.store import GdeltStore
from repro.storage.gdelt import write_gdelt_dataset

__all__ = ["shard_ranges", "split_dataset", "split_store"]


def shard_ranges(rows: int, shards: int) -> list[tuple[int, int]]:
    """Even contiguous ``[lo, hi)`` row ranges covering ``rows``.

    With more shards than rows the tail shards are legitimately empty —
    the router skips them (``shard_skipped_total{reason="empty"}``).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    cuts = [round(i * rows / shards) for i in range(shards + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(shards)]


def split_dataset(
    dataset_dir: Path,
    out_dir: Path,
    shards: int,
    zone_chunk_rows: int | None = None,
) -> list[Path]:
    """Split a dataset directory into ``shards`` shard directories.

    Returns the shard directory paths (``out_dir/shard0`` ...), each a
    complete dataset.  ``zone_chunk_rows`` overrides the shard writers'
    zone-map granularity (None keeps the default).
    """
    return split_store(
        GdeltStore.open(Path(dataset_dir)), out_dir, shards, zone_chunk_rows
    )


def split_store(
    store: GdeltStore,
    out_dir: Path,
    shards: int,
    zone_chunk_rows: int | None = None,
) -> list[Path]:
    """Split an open :class:`~repro.engine.store.GdeltStore` (array- or
    dataset-backed) into ``shards`` shard directories.

    Each shard's manifest meta is the source dataset's (when there is
    one) with ``origin: split`` and the ``shard`` stamp; its join index
    is rebuilt by the dataset writer against the shard's mention slice,
    while the (replicated) events side keeps its global row numbering.
    """
    dictionaries = store.dictionaries()
    paths: list[Path] = []
    for i, (lo, hi) in enumerate(shard_ranges(store.n_mentions, shards)):
        shard_dir = Path(out_dir) / f"shard{i}"
        write_gdelt_dataset(
            shard_dir,
            store.events,
            {col: arr[lo:hi] for col, arr in store.mentions.items()},
            dictionaries,
            zone_chunk_rows=zone_chunk_rows,
            meta=dict(
                store.dataset_meta,
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
