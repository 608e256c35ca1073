"""Wire-protocol contract shared by server, router, and clients.

Every peer — server, router, client, benchmark — speaks the one
revision of the LDJSON protocol, so there is nothing to negotiate.
This module pins down the parts of the contract that more than one
peer reads:

* :class:`ErrorCode` — the machine-readable reason vocabulary used in
  ``shed``/``error``/``partial`` responses.  The enum is a ``str``
  subclass, so members compare equal to their wire strings
  (``resp["reason"] == "RATE_LIMITED"`` and
  ``resp["reason"] == ErrorCode.RATE_LIMITED`` are both true).
* :func:`store_meta` — the self-description a backend serves for
  ``{"kind": "meta"}``: table row counts, per-column min/max/null
  bounds aggregated from the zone maps, and group-key cardinalities.
  This is what a :class:`~repro.shard.router.ShardRouter` builds its
  shard map from — the same interval analysis the planner applies per
  chunk, lifted to whole backends.
* :func:`meta_group_width` — a group key's ``(canonical, n_groups)``
  read back from that dict, the answer
  :meth:`~repro.engine.store.GdeltStore.group_width` gives in process.
"""

from __future__ import annotations

import enum

__all__ = ["ErrorCode", "RETRYABLE_CODES", "meta_group_width", "store_meta"]


class ErrorCode(str, enum.Enum):
    """Machine-readable reason codes for non-``ok`` outcomes.

    ``str``-mixin: members ARE their wire string, so code comparing
    against literals works unchanged.
    """

    # Admission-control sheds (request never touched the engine).
    RATE_LIMITED = "RATE_LIMITED"
    QUEUE_FULL = "QUEUE_FULL"
    RETRY_AFTER = "RETRY_AFTER"
    # Service-origin sheds.
    SHUTTING_DOWN = "SHUTTING_DOWN"
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    CIRCUIT_OPEN = "CIRCUIT_OPEN"
    # Router-origin outcomes.
    PARTIAL_RESULT = "PARTIAL_RESULT"
    SHARD_UNAVAILABLE = "SHARD_UNAVAILABLE"
    # Request/execution failures.
    BAD_REQUEST = "BAD_REQUEST"
    INTERNAL = "INTERNAL"

    def __str__(self) -> str:  # py<3.11 str-enums stringify as E.NAME
        return self.value


#: Codes a well-behaved client may retry (after the hinted backoff).
#: ``DEADLINE_EXCEEDED`` is included because the *next* attempt gets a
#: fresh deadline; ``PARTIAL_RESULT`` is a success with a caveat, not a
#: retryable failure.
RETRYABLE_CODES = frozenset(
    {
        ErrorCode.RATE_LIMITED,
        ErrorCode.QUEUE_FULL,
        ErrorCode.RETRY_AFTER,
        ErrorCode.SHUTTING_DOWN,
        ErrorCode.DEADLINE_EXCEEDED,
        ErrorCode.CIRCUIT_OPEN,
    }
)


def _table_bounds(store, table: str) -> dict:
    """Per-column ``{min, max, nulls, dtype}`` aggregated over the zone maps.

    One entry per zone-mapped column: the table-level interval a router
    can run the planner's ``Expr.prune_chunks`` analysis against, with
    the whole backend as a single "chunk".  ``dtype`` is the column's
    numpy dtype name — a router needs it to build the exact zero value
    of a group-``stats`` query whose every shard was pruned (the
    empty-group sentinels depend on it).
    """
    import numpy as np

    out: dict = {}
    try:
        zm = store.zone_maps(table)
    except Exception:  # array store with 0 rows, unreadable maps, ...
        return out
    for name, mins in zm.mins.items():
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(zm.maxs[name], dtype=np.float64)
        nulls = np.asarray(zm.nulls[name])
        if mins.size == 0:
            continue
        with np.errstate(invalid="ignore"):
            lo = float(np.nanmin(mins)) if not np.all(np.isnan(mins)) else None
            hi = float(np.nanmax(maxs)) if not np.all(np.isnan(maxs)) else None
        entry = {"min": lo, "max": hi, "nulls": int(nulls.sum())}
        dtype = store.column_dtype(table, name)
        if dtype is not None:
            entry["dtype"] = dtype.name
        out[name] = entry
    return out


def store_meta(store) -> dict:
    """A backend's self-description for the ``meta`` verb.

    Everything a scatter-gather front end needs to route without
    touching the data: row counts, column bounds (for shard-level
    pruning), group-key cardinalities (so merged group vectors can be
    padded to the global width; read as widths, without building the
    derived key columns), and the manifest's shard stamp when
    the dataset was produced by ``repro-gdelt split``.
    """
    token, generation = store.fingerprint()
    meta: dict = {
        "fingerprint": token,
        "generation": generation,
        "tables": {},
        "groups": {},
    }
    for table in ("events", "mentions"):
        meta["tables"][table] = {
            "rows": int(store.n_rows(table)),
            "columns": _table_bounds(store, table),
        }
    for table, registry in store._GROUP_KEYS.items():
        groups: dict = {}
        for alias in registry:
            canonical, n = store.group_width(table, alias)
            groups[alias] = {"canonical": canonical, "n_groups": int(n)}
        meta["groups"][table] = groups
    shard_stamp = store.dataset_meta.get("shard")
    if shard_stamp is not None:
        meta["shard"] = shard_stamp
    return meta


def meta_group_width(meta: dict, table: str, name: str) -> tuple[str, int]:
    """``(canonical name, n_groups)`` of a group key, from a ``meta`` dict.

    A registered key (or alias) reads its ``groups`` entry; any integer
    column is ``(f"{table}.{name}", max + 1)`` from its column bounds —
    the answers :meth:`~repro.engine.store.GdeltStore.group_width`
    gives for the store that wrote the dict.

    Raises:
        KeyError: unknown group key (or a non-integer column).
    """
    groups = meta.get("groups", {}).get(table, {})
    entry = groups.get(name)
    if entry is not None:
        return str(entry["canonical"]), int(entry["n_groups"])
    columns = meta.get("tables", {}).get(table, {}).get("columns", {})
    bounds = columns.get(name)
    if (
        bounds is not None
        and bounds.get("max") is not None
        and str(bounds.get("dtype", "")).startswith(("int", "uint"))
    ):
        return f"{table}.{name}", int(bounds["max"]) + 1
    raise KeyError(
        f"unknown group key {name!r} for table {table!r}; "
        f"available: {', '.join(sorted(set(groups) | set(columns)))}"
    )
