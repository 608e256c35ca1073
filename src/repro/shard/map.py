"""The router's shard map: backend metadata plus shard-level pruning.

A :class:`ShardMap` is built from the ``meta`` self-description each
backend serves (:func:`repro.serve.protocol.store_meta`): per-table row
counts, zone-map column bounds aggregated to one interval per column,
and group-key cardinalities.  Routing a query is then the planner's own
chunk-pruning analysis run one level up — each backend is a single
"chunk" whose statistics are its table-level bounds — so the same
conservative interval reasoning that skips 64k-row chunks inside a
store skips whole backends before any network hop.

The data placement contract (established by ``repro-gdelt split``):

* ``mentions`` is partitioned into contiguous capture-time row ranges
  of the globally capture-sorted table — shard order IS global row
  order, which is what makes order-sensitive merges (group stats)
  byte-identical to a single-store run;
* ``events`` and the string dictionaries are replicated, so the
  shards form one replica group for the events table: any single
  healthy replica answers an events-table query exactly.
"""

from __future__ import annotations

import numpy as np

from repro.engine.expr import Expr, col
from repro.serve.protocol import meta_group_width

__all__ = ["ShardInfo", "ShardMap"]


class ShardInfo:
    """One backend's identity and self-description."""

    __slots__ = ("shard_id", "address", "meta")

    def __init__(self, shard_id: str, address: tuple[str, int], meta: dict) -> None:
        self.shard_id = shard_id
        self.address = address
        self.meta = meta

    def rows(self, table: str) -> int:
        return int(self.meta.get("tables", {}).get(table, {}).get("rows", 0))

    def columns(self, table: str) -> dict:
        """Per-column ``{min, max, nulls}`` bounds (may be empty)."""
        return self.meta.get("tables", {}).get(table, {}).get("columns", {})

    def __repr__(self) -> str:
        host, port = self.address
        return f"ShardInfo({self.shard_id!r}, {host}:{port})"


class _ShardStatsView:
    """Shards-as-chunks statistics for :meth:`Expr.prune_chunks`.

    Index ``i`` of every returned array is shard ``i``.  A column any
    shard cannot bound returns ``None`` — the analysis then treats the
    predicate as unbounded, which is always sound (no shard is skipped
    on its account).
    """

    __slots__ = ("_shards",)

    def __init__(self, shards: "list[ShardInfo]") -> None:
        self._shards = shards

    def _gather(self, name: str, key: str, table: str = "mentions"):
        out = np.empty(len(self._shards))
        for i, shard in enumerate(self._shards):
            bounds = shard.columns(table).get(name)
            if bounds is None:
                return None
            v = bounds[key]
            # None bounds mean an all-null column; NaN bounds make every
            # range predicate prune the shard, exactly like an all-null
            # chunk inside a store.
            out[i] = np.nan if v is None else float(v)
        return out

    def min(self, name: str):
        return self._gather(name, "min")

    def max(self, name: str):
        return self._gather(name, "max")

    def nulls(self, name: str):
        vals = self._gather(name, "nulls")
        return None if vals is None else vals.astype(np.int64)


class ShardMap:
    """Every shard's metadata plus the routing/pruning logic over it."""

    def __init__(self, shards: list[ShardInfo]) -> None:
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        self.shards = list(shards)
        #: Shard metas are read once, at enrollment, so the merge is too.
        self._meta = self.merged_meta()

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    # -- global shapes -----------------------------------------------------

    def global_rows(self, table: str) -> int:
        """Total row count: summed for partitioned mentions, the max
        (= any one replica) for replicated events."""
        if table == "events":
            return max((s.rows(table) for s in self.shards), default=0)
        return sum(s.rows(table) for s in self.shards)

    def n_groups(self, table: str, key: str) -> int | None:
        """Global group-key cardinality (``None`` for an unknown key).

        :func:`~repro.serve.protocol.meta_group_width` over
        :meth:`merged_meta`, the helper a
        :class:`~repro.serve.remote.RemoteStore` reads its widths with.
        For a registered key the merged entry is the max over shards,
        which is exact: every row lives on some shard, and a shard's
        local cardinality is the max key it holds plus one.  An integer
        column's width is its merged max plus one.
        """
        try:
            return meta_group_width(self._meta, table, key)[1]
        except KeyError:
            return None

    def column_dtype(self, table: str, column: str) -> str | None:
        """The column's numpy dtype name, if every shard agrees on it.

        Needed to build the exact zero value of a group-``stats`` query
        whose every shard was pruned: the empty-group min/max sentinels
        are iinfo extremes for integer columns but ±inf for floats, so
        the dtype decides the bytes.  Older shards without the meta
        field (or disagreeing shards) return ``None``.
        """
        names = set()
        for s in self.shards:
            bounds = s.columns(table).get(column)
            if bounds is None or bounds.get("dtype") is None:
                return None
            names.add(bounds["dtype"])
        return names.pop() if len(names) == 1 else None

    # -- routing -----------------------------------------------------------

    def route(
        self,
        table: str,
        where: Expr | None = None,
        time_range: tuple[int, int] | None = None,
    ) -> tuple[list[list[ShardInfo]], list[tuple[ShardInfo, str]]]:
        """Which replica groups can hold matching rows?

        Returns ``(groups, skipped)``: the groups in global row order,
        each a list of shards holding the same rows (any one answers for
        the group), and every skipped shard with its reason (``"empty"``
        / ``"pruned"``).  The partitioned mentions table is one group per
        shard the filter cannot rule out — a capture window ``[lo, hi)``
        is ANDed into it as a ``MentionInterval`` range, so one interval
        analysis prunes both.  The replicated events table is one group
        of every non-empty replica in shard order, or no group at all.
        """
        live = [s for s in self.shards if s.rows(table) > 0]
        skipped: list[tuple[ShardInfo, str]] = [
            (s, "empty") for s in self.shards if s.rows(table) == 0
        ]
        if table != "mentions" or not live:
            return ([live] if live else []), skipped
        if time_range is not None:
            lo, hi = time_range
            window = (col("MentionInterval") >= lo) & (col("MentionInterval") < hi)
            where = window if where is None else where & window
        pruned = where.prune_chunks(_ShardStatsView(live)) if where is not None else None
        keep = [True] * len(live) if pruned is None else pruned[0]
        skipped += [(s, "pruned") for s, k in zip(live, keep) if not k]
        return [[s] for s, k in zip(live, keep) if k], skipped

    # -- merged self-description -------------------------------------------

    def merged_meta(self) -> dict:
        """The router's own ``meta`` answer: the cluster as one store."""
        tables: dict = {}
        for table in ("events", "mentions"):
            tables[table] = {
                "rows": self.global_rows(table),
                "columns": self._merged_bounds(table),
            }
        groups: dict = {}
        for shard in self.shards:
            for table, entries in shard.meta.get("groups", {}).items():
                out = groups.setdefault(table, {})
                for alias, entry in entries.items():
                    known = out.get(alias)
                    if known is None or entry["n_groups"] > known["n_groups"]:
                        out[alias] = dict(entry)
        return {
            "fingerprint": "+".join(
                str(s.meta.get("fingerprint", s.shard_id)) for s in self.shards
            ),
            "generation": sum(int(s.meta.get("generation", 0)) for s in self.shards),
            "tables": tables,
            "groups": groups,
            "shards": [
                {
                    "id": s.shard_id,
                    "address": list(s.address),
                    "rows": {t: s.rows(t) for t in ("events", "mentions")},
                }
                for s in self.shards
            ],
        }

    def _merged_bounds(self, table: str) -> dict:
        out: dict = {}
        for shard in self.shards:
            for name, bounds in shard.columns(table).items():
                known = out.get(name)
                if known is None:
                    out[name] = dict(bounds)
                    continue
                for key, pick in (("min", min), ("max", max)):
                    a, b = known.get(key), bounds.get(key)
                    known[key] = pick(a, b) if a is not None and b is not None else (
                        a if b is None else b
                    )
                known["nulls"] = int(known.get("nulls", 0)) + int(
                    bounds.get("nulls", 0)
                )
        return out
