"""``repro.connect()`` — the local query surface over a remote server.

:class:`RemoteStore` speaks the LDJSON protocol to a single server or a
shard router (they are indistinguishable on the wire) and exposes the
same fluent query surface as a local
:class:`~repro.engine.store.GdeltStore`::

    store = repro.connect("127.0.0.1:7311")
    q = store.query("mentions").filter(col("Delay") > 96)
    n = q.count()            # QueryResult: .value, .plan, .stats
    q.group_by("Quarter").mean("Delay")

Terminals return the same :class:`~repro.engine.query.QueryResult` a
local rich query does: values are revived into numpy arrays with the
local dtypes, and the plan is reconstructed from the response's
serving stats (rows scanned, chunks — or shards — pruned, cache
status), so example scripts run unmodified against a local store, one
server, or a sharded cluster.

Filters travel as the textual predicate conjuncts the wire protocol
has always used; an expression the grammar cannot spell (OR, NOT,
arithmetic) raises :class:`ValueError` at the terminal.  Overload is
surfaced as :class:`RemoteError` with the server's machine-readable
reason and retry hint once the client-side retry budget is exhausted;
``PARTIAL_RESULT`` responses from a degraded router are *returned*,
with the missing shard ids in ``result.stats["missing_shards"]``.
"""

from __future__ import annotations

from repro.engine.expr import Expr, to_conjuncts
from repro.engine.planner import Plan, ScanUnit
from repro.engine.query import QueryResult
from repro.engine.terminal import TerminalSpec
from repro.serve.client import ServeClient
from repro.serve.protocol import ErrorCode

__all__ = ["RemoteError", "RemoteGroupedQuery", "RemoteQuery", "RemoteStore", "connect"]


class RemoteError(RuntimeError):
    """A remote query could not produce a value.

    Attributes:
        reason: machine-readable :class:`ErrorCode` string when the
            server supplied one (sheds always do).
        retry_after_s: the server's backoff hint, if any.
    """

    def __init__(
        self,
        message: str,
        reason: str | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


def connect(address: str | tuple, **kwargs) -> "RemoteStore":
    """Connect to a serving endpoint: ``repro.connect("host:port")``.

    Keyword arguments are forwarded to :class:`RemoteStore` (``timeout_s``,
    ``client_id``, ``retries``, ``deadline_s``).
    """
    return RemoteStore(address, **kwargs)


class RemoteStore:
    """One connection to a server (or router), store-shaped.

    Not thread-safe (one socket, one request in flight) — give each
    thread its own connection; they are cheap.

    Args:
        address: ``"host:port"`` or ``(host, port)``.
        timeout_s: socket timeout (bounds a hung server).
        client_id: admission-control identity (defaults to the server's
            per-connection default).
        retries: shed retries per terminal, honouring the server's
            backoff hints.
        deadline_s: default per-query deadline sent with every request
            (None sends none; the server may apply its own default).
    """

    def __init__(
        self,
        address: str | tuple,
        timeout_s: float = 30.0,
        client_id: str | None = None,
        retries: int = 2,
        deadline_s: float | None = None,
    ) -> None:
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            self.host, self.port = host or "127.0.0.1", int(port)
        else:
            self.host, self.port = str(address[0]), int(address[1])
        self.retries = int(retries)
        self.deadline_s = deadline_s
        self._client = ServeClient(
            self.host, self.port, timeout=timeout_s, client_id=client_id
        )
        #: The server's self-description (merged across shards when the
        #: endpoint is a router).
        self.meta = self._client.meta()

    # -- store-shaped surface ----------------------------------------------

    def query(self, table: str = "mentions") -> "RemoteQuery":
        """A fluent query over one remote table (rich terminals)."""
        return RemoteQuery(self, table)

    def n_rows(self, table: str) -> int:
        return int(self.meta.get("tables", {}).get(table, {}).get("rows", 0))

    @property
    def n_events(self) -> int:
        return self.n_rows("events")

    @property
    def n_mentions(self) -> int:
        return self.n_rows("mentions")

    def fingerprint(self) -> tuple[str, int]:
        """Remote dataset identity (joined across shards for a router)."""
        return (
            str(self.meta.get("fingerprint", f"{self.host}:{self.port}")),
            int(self.meta.get("generation", 0)),
        )

    def server_profile(self) -> dict:
        """The endpoint's live service/router profile (``stats`` verb)."""
        return self._client.stats()

    # -- plumbing ----------------------------------------------------------

    def _call(self, **kw) -> dict:
        resp = self._client.query(retries=self.retries, **kw)
        status = resp.get("status")
        if status in ("ok", "partial"):
            return resp
        if status == "shed":
            reason = resp.get("reason")
            raise RemoteError(
                f"server shed the query ({reason})",
                reason=str(reason) if reason is not None else None,
                retry_after_s=resp.get("retry_after_s"),
            )
        raise RemoteError(
            f"remote query failed: {resp.get('error', f'status={status!r}')}",
            reason=resp.get("reason"),
        )

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RemoteStore({self.host}:{self.port})"


class RemoteQuery:
    """Mirror of :class:`~repro.engine.query.Query` over the wire.

    Builder methods return fresh instances; terminals run one wire
    request and return :class:`QueryResult`.
    """

    def __init__(
        self,
        store: RemoteStore,
        table: str,
        where: Expr | None = None,
        rows: tuple[int, int] | None = None,
        deadline_s: float | None = None,
        priority: int = 1,
    ) -> None:
        self.store = store
        self.table_name = table
        self.where = where
        self._range = rows
        self.deadline_s = deadline_s if deadline_s is not None else store.deadline_s
        self.priority = priority

    def _clone(self, **kw) -> "RemoteQuery":
        args = dict(
            store=self.store, table=self.table_name, where=self.where,
            rows=self._range, deadline_s=self.deadline_s, priority=self.priority,
        )
        args.update(kw)
        return RemoteQuery(**args)

    def filter(self, expr: Expr) -> "RemoteQuery":
        """Add a conjunct to the filter; returns a new query."""
        combined = expr if self.where is None else (self.where & expr)
        return self._clone(where=combined)

    def time_range(self, start_interval: int, end_interval: int) -> "RemoteQuery":
        """Restrict to capture intervals in [start, end) (mentions only)."""
        if self.table_name != "mentions":
            raise ValueError("time_range requires the mentions table")
        if end_interval < start_interval:
            raise ValueError("inverted time range")
        lo, hi = int(start_interval), int(end_interval)
        if self._range is not None:  # chained ranges intersect, as locally
            lo = max(lo, self._range[0])
            hi = max(lo, min(hi, self._range[1]))
        return self._clone(rows=(lo, hi))

    def with_deadline(self, deadline_s: float | None) -> "RemoteQuery":
        """Per-query deadline override (None removes the default)."""
        return self._clone(deadline_s=deadline_s)

    def group_by(self, key: str) -> "RemoteGroupedQuery":
        """Group passing rows by a named key (server-side registry)."""
        return RemoteGroupedQuery(self, key)

    # -- terminals ---------------------------------------------------------

    def count(self) -> QueryResult:
        """Number of rows passing the filter."""
        return self._run("count")

    def sum(self, column: str) -> QueryResult:
        """Sum of a column over passing rows."""
        return self._run("sum", column=column)

    def mean(self, column: str) -> QueryResult:
        """Mean of a column over passing rows (NaN when empty)."""
        return self._run("mean", column=column)

    # -- execution ---------------------------------------------------------

    def _run(
        self,
        op: str,
        column: str | None = None,
        group_by: str | None = None,
        k: int | None = None,
    ) -> QueryResult:
        spec = TerminalSpec(op, column, group_by, k)
        spec.validate()
        conjuncts = to_conjuncts(self.where) if self.where is not None else []
        resp = self.store._call(
            table=self.table_name,
            op=op,
            where=conjuncts or None,
            column=column,
            group_by=group_by,
            time_range=self._range,
            priority=self.priority,
            deadline_s=self.deadline_s,
            k=k,
        )
        stats = dict(resp.get("stats") or {})
        if resp.get("status") == "partial":
            stats["missing_shards"] = list(resp.get("missing_shards") or [])
            stats["reason"] = str(ErrorCode.PARTIAL_RESULT)
        return QueryResult(
            value=spec.bind().revive(resp.get("value")),
            plan=self._synthesize_plan(spec.op_name, stats),
            stats=stats,
        )

    def _synthesize_plan(self, op_name: str, stats: dict) -> Plan:
        """A local-shaped plan from the server's execution accounting.

        ``rows_planned``/``chunks_*`` come from the backend planner (or
        the router's shards-as-chunks accounting); the single synthetic
        scan unit keeps ``Plan.rows_planned`` — a property summed over
        units — truthful.
        """
        rows_total = int(stats.get("rows_total", 0))
        rows_planned = int(stats.get("rows_planned", rows_total))
        units = (
            [ScanUnit(rows=slice(0, rows_planned), need_mask=self.where is not None)]
            if rows_planned
            else []
        )
        return Plan(
            table=self.table_name,
            rows=slice(0, rows_total),
            op=op_name,
            where_canonical=str(self.where) if self.where is not None else None,
            units=units,
            n_chunks_total=int(stats.get("chunks_total", 0)),
            n_chunks_pruned=int(stats.get("chunks_pruned", 0)),
            n_chunks_full=int(stats.get("chunks_full", 0)),
            pruning=str(stats.get("pruning", "unavailable")),
            cache_status=str(stats.get("cache", "off")),
            source=str(stats.get("source", "scan")),
        )


class RemoteGroupedQuery:
    """Mirror of :class:`~repro.engine.query.GroupedQuery` over the wire."""

    def __init__(self, query: RemoteQuery, key: str) -> None:
        self._q = query
        self.key = key
        entry = (
            query.store.meta.get("groups", {})
            .get(query.table_name, {})
            .get(key)
        )
        #: Global group-key cardinality when the server's registry knows
        #: the key; None for raw integer columns (the server derives it).
        self.n_groups = int(entry["n_groups"]) if entry else None

    def count(self) -> QueryResult:
        """Rows per group."""
        return self._q._run("count", group_by=self.key)

    def sum(self, column: str) -> QueryResult:
        """Sum of ``column`` per group."""
        return self._q._run("sum", column=column, group_by=self.key)

    def mean(self, column: str) -> QueryResult:
        """Mean of ``column`` per group (NaN for empty groups)."""
        return self._q._run("mean", column=column, group_by=self.key)

    def stats(self, column: str) -> QueryResult:
        """min/max/mean/median of ``column`` per group."""
        return self._q._run("stats", column=column, group_by=self.key)

    def top(self, k: int) -> QueryResult:
        """The ``k`` busiest groups (descending count, ascending key ties)."""
        return self._q._run("top", group_by=self.key, k=k)
