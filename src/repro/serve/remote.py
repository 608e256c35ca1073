"""``repro.connect()`` — the local query surface over a remote server.

:class:`RemoteStore` speaks the LDJSON protocol to a single server or a
shard router (they are indistinguishable on the wire).  Its ``query()``
returns the one fluent builder, :class:`~repro.engine.query.Query`, that
a local :class:`~repro.engine.store.GdeltStore` returns too; the store
supplies only how a terminal runs (:meth:`RemoteStore.run_terminal`, one
wire request) and how a group key resolves
(:meth:`RemoteStore.group_width`, read from the ``meta`` fetched at
connect)::

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
What acts on local columns — ``rows``, ``.mask()``, ``.explain()``,
``with_executor`` and ``with_pruning`` — raises :class:`TypeError`.
"""

from __future__ import annotations

from repro.engine.expr import to_conjuncts
from repro.engine.planner import Plan, ScanUnit
from repro.engine.query import Query, QueryResult
from repro.engine.terminal import TerminalSpec
from repro.serve.client import ServeClient, parse_address
from repro.serve.protocol import ErrorCode, meta_group_width

__all__ = ["RemoteError", "RemoteStore", "connect"]


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
        deadline_s: per-query deadline sent with every request
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
        self.host, self.port = parse_address(address)
        self.retries = int(retries)
        self.deadline_s = deadline_s
        self._client = ServeClient(
            self.host, self.port, timeout=timeout_s, client_id=client_id
        )
        #: The server's self-description (merged across shards when the
        #: endpoint is a router).
        self.meta = self._client.meta()

    # -- store-shaped surface ----------------------------------------------

    def query(self, table: str = "mentions") -> Query:
        """A fluent query over one remote table."""
        return Query(self, table)

    def n_rows(self, table: str) -> int:
        """Row count of a remote table.

        Raises:
            ValueError: a table the server does not describe.
        """
        tables = self.meta.get("tables", {})
        if table not in tables:
            raise ValueError(f"unknown table {table!r} (expected events or mentions)")
        return int(tables[table].get("rows", 0))

    def group_width(self, table: str, name: str) -> tuple[str, int]:
        """``(canonical name, n_groups)`` of a group key, from ``meta``
        (:func:`~repro.serve.protocol.meta_group_width`).

        Raises:
            KeyError: unknown group key.
        """
        return meta_group_width(self.meta, table, name)

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

    # -- execution ---------------------------------------------------------

    def run_terminal(self, query: Query, spec: TerminalSpec) -> QueryResult:
        """Run one terminal as one wire request; values are revived with
        the local dtypes and the plan is rebuilt from the serving stats."""
        resp = self._call(
            table=query.table_name,
            op=spec.op,
            where=to_conjuncts(query.where) or None,
            column=spec.column,
            group_by=spec.group,
            time_range=query.window,
            deadline_s=self.deadline_s,
            k=spec.k,
        )
        stats = dict(resp.get("stats") or {})
        if resp.get("status") == "partial":
            stats["missing_shards"] = list(resp.get("missing_shards") or [])
            stats["reason"] = str(ErrorCode.PARTIAL_RESULT)
        return QueryResult(
            value=spec.bind().revive(resp.get("value")),
            plan=_synthesize_plan(query, spec.op_name, stats),
            stats=stats,
        )

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


def _synthesize_plan(query: Query, op_name: str, stats: dict) -> Plan:
    """A local-shaped plan from the server's execution accounting.

    ``rows_planned``/``chunks_*`` come from the backend planner (or the
    router's shards-as-chunks accounting); the single synthetic scan
    unit keeps ``Plan.rows_planned`` — a property summed over units —
    truthful.
    """
    rows_total = int(stats.get("rows_total", 0))
    rows_planned = int(stats.get("rows_planned", rows_total))
    where = query.where
    units = (
        [ScanUnit(rows=slice(0, rows_planned), need_mask=where is not None)]
        if rows_planned
        else []
    )
    return Plan(
        table=query.table_name,
        rows=slice(0, rows_total),
        op=op_name,
        where_canonical=str(where) if where is not None else None,
        units=units,
        n_chunks_total=int(stats.get("chunks_total", 0)),
        n_chunks_pruned=int(stats.get("chunks_pruned", 0)),
        n_chunks_full=int(stats.get("chunks_full", 0)),
        pruning=str(stats.get("pruning", "unavailable")),
        cache_status=str(stats.get("cache", "off")),
        view=stats.get("view"),
    )
