"""Per-chunk column statistics (zone maps).

A zone map records, for every fixed-size chunk of table rows, each
column's minimum, maximum, and null count (NaN, for float columns).
They are the paper's "never touch rows you can prove irrelevant" idea
made general: the time and publisher indexes prune by one hard-wired
key each, while zone maps let the planner prune *any* comparison or
membership predicate against *any* column — a selective filter over the
capture-sorted ``MentionInterval`` column skips almost every chunk.

Zone maps are computed at convert time by :class:`DatasetWriter` and
persisted in the manifest (format v4).  Older v3 datasets are lazily
backfilled: the store computes the maps from the loaded columns on
first use and rewrites the manifest in place (best effort — a read-only
dataset still works, it just recomputes per process).

Bounds are stored as float64: exact for every column dtype the format
allows (int64 key columns in GDELT stay far below 2^53).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DEFAULT_ZONE_CHUNK_ROWS", "ZoneMaps", "compute_zone_maps"]

#: Default zone-map granularity.  Small enough that selective predicates
#: prune most of a realistic table, large enough that per-chunk planning
#: overhead stays negligible next to a 64k-row NumPy kernel.
DEFAULT_ZONE_CHUNK_ROWS = 65_536


@dataclass(slots=True)
class ZoneMaps:
    """Min/max/null-count per column per chunk of one table.

    ``mins``/``maxs`` hold float64 arrays of length :attr:`n_chunks`;
    all-null chunks hold NaN bounds (comparisons with NaN are False, so
    such chunks prune naturally for every range predicate).
    """

    chunk_rows: int
    n_rows: int
    mins: dict[str, np.ndarray]
    maxs: dict[str, np.ndarray]
    nulls: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")

    @property
    def n_chunks(self) -> int:
        if self.n_rows == 0:
            return 0
        return -(-self.n_rows // self.chunk_rows)

    def has(self, column: str) -> bool:
        return column in self.mins

    def add_column(self, name: str, arr: np.ndarray) -> None:
        """Compute one column's maps (``arr`` is ``n_rows`` long) — how a
        writer holding one column at a time builds a table's maps."""
        arr = np.asarray(arr)
        if self.n_rows == 0:
            self.mins[name] = np.empty(0, dtype=np.float64)
            self.maxs[name] = np.empty(0, dtype=np.float64)
            self.nulls[name] = np.empty(0, dtype=np.int64)
            return
        starts = np.arange(0, self.n_rows, self.chunk_rows)
        values = arr.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            self.mins[name] = np.fmin.reduceat(values, starts)
            self.maxs[name] = np.fmax.reduceat(values, starts)
        if np.issubdtype(arr.dtype, np.floating):
            self.nulls[name] = np.add.reduceat(
                np.isnan(values).astype(np.int64), starts
            )
        else:
            self.nulls[name] = np.zeros(len(starts), dtype=np.int64)

    def chunk_slice(self, chunk: int) -> slice:
        lo = chunk * self.chunk_rows
        return slice(lo, min(lo + self.chunk_rows, self.n_rows))

    def chunk_range(self, rows: slice) -> tuple[int, int]:
        """Chunk indices [c0, c1) overlapping absolute row range ``rows``."""
        if rows.stop <= rows.start:
            return 0, 0
        return rows.start // self.chunk_rows, -(-rows.stop // self.chunk_rows)

    # -- manifest (de)serialization ----------------------------------------

    def to_manifest(self) -> dict:
        """Plain-JSON form stored on ``TableMeta.zone_maps`` (format v4)."""
        return {
            "chunk_rows": int(self.chunk_rows),
            "n_rows": int(self.n_rows),
            "columns": {
                name: {
                    "min": self.mins[name].tolist(),
                    "max": self.maxs[name].tolist(),
                    "nulls": self.nulls[name].tolist(),
                }
                for name in sorted(self.mins)
            },
        }

    @classmethod
    def from_manifest(cls, raw: dict) -> "ZoneMaps":
        cols = raw.get("columns", {})
        return cls(
            chunk_rows=int(raw["chunk_rows"]),
            n_rows=int(raw["n_rows"]),
            mins={n: np.asarray(c["min"], dtype=np.float64) for n, c in cols.items()},
            maxs={n: np.asarray(c["max"], dtype=np.float64) for n, c in cols.items()},
            nulls={n: np.asarray(c["nulls"], dtype=np.int64) for n, c in cols.items()},
        )


def compute_zone_maps(
    columns: dict[str, np.ndarray],
    chunk_rows: int = DEFAULT_ZONE_CHUNK_ROWS,
) -> ZoneMaps:
    """Compute zone maps for one table's columns.

    One ``reduceat`` pass per column per statistic; ``fmin``/``fmax``
    skip NaNs so a partially-null float chunk keeps usable bounds.
    """
    n_rows = 0
    for a in columns.values():
        n_rows = len(a)
        break
    zones = ZoneMaps(chunk_rows=chunk_rows, n_rows=n_rows, mins={}, maxs={}, nulls={})
    for name, arr in columns.items():
        zones.add_column(name, arr)
    return zones
