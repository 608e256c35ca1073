"""Wire-protocol contract shared by server, router, and clients.

The LDJSON protocol grew up ad hoc: shed reasons were bare strings,
every peer assumed the same implicit revision, and there was no way for
a backend to describe itself to a front end.  This module pins the
contract down in one place:

* :data:`PROTOCOL_VERSION` + :func:`negotiate_hello` — an optional
  ``{"kind": "hello", "version": N}`` exchange.  The server answers
  with the highest mutually supported version and its capability list.
  Clients that never send a hello (every pre-v2 client) are served at
  v1 semantics — the query/ping/stats verbs are unchanged, so old
  clients keep working without knowing v2 exists.
* :class:`ErrorCode` — the machine-readable reason vocabulary used in
  ``shed``/``error``/``partial`` responses.  The enum is a ``str``
  subclass, so members compare equal to the literal strings that have
  always been on the wire (``resp["reason"] == "RATE_LIMITED"`` and
  ``resp["reason"] == ErrorCode.RATE_LIMITED`` are both true).
* :func:`store_meta` — the self-description a backend serves for
  ``{"kind": "meta"}``: table row counts, per-column min/max/null
  bounds aggregated from the zone maps, and group-key cardinalities.
  This is what a :class:`~repro.shard.router.ShardRouter` builds its
  shard map from — the same interval analysis the planner applies per
  chunk, lifted to whole backends.
"""

from __future__ import annotations

import enum

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "CAPABILITIES",
    "ErrorCode",
    "RETRYABLE_CODES",
    "negotiate_hello",
    "store_meta",
]

#: Current protocol revision.  v1: query/ping/stats verbs, string
#: reasons.  v2 adds: hello negotiation, the meta verb, ``partials``
#: query mode (mergeable partial aggregates), the ``top`` group
#: terminal, and ``partial`` responses with ``missing_shards``.
PROTOCOL_VERSION = 2

#: Oldest revision still served (v1 clients are the silent default).
MIN_PROTOCOL_VERSION = 1

#: What a v2 server can do beyond the v1 surface.  Servers advertise
#: these in the hello response; routers check for ``partials``/``meta``
#: before relying on them, and clients check ``subscribe`` before
#: opening a view-subscription connection.
CAPABILITIES = ("meta", "partials", "top", "deadline", "stats", "subscribe")


class ErrorCode(str, enum.Enum):
    """Machine-readable reason codes for non-``ok`` outcomes.

    ``str``-mixin: members ARE their wire string, so existing code and
    old clients comparing against literals keep working unchanged.
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


def negotiate_hello(obj: dict, capabilities: tuple[str, ...] = CAPABILITIES) -> dict:
    """Answer one ``{"kind": "hello"}`` request.

    The client states the highest version it speaks; the reply carries
    the version the connection will use (``min(client, server)``,
    floored at v1) plus the server's capability list.  A client asking
    for a *lower* version than we can serve simply gets its own version
    back — the v1 surface is a strict subset, so nothing needs to be
    switched off server-side.
    """
    try:
        asked = int(obj.get("version", MIN_PROTOCOL_VERSION))
    except (TypeError, ValueError):
        asked = MIN_PROTOCOL_VERSION
    version = max(MIN_PROTOCOL_VERSION, min(asked, PROTOCOL_VERSION))
    return {
        "status": "ok",
        "version": version,
        "server_version": PROTOCOL_VERSION,
        "capabilities": list(capabilities) if version >= 2 else [],
    }


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
    try:
        columns = store.table(table)
    except Exception:
        columns = {}
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
        arr = columns.get(name)
        if arr is not None:
            entry["dtype"] = np.asarray(arr).dtype.name
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
