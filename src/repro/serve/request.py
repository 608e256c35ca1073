"""Serving request/response types and their wire (JSON) forms.

One :class:`QueryRequest` describes one terminal operation against the
store — the same (table, filter, aggregate, group-by) surface as
``store.query(...)`` — plus the serving envelope: client identity,
priority, and deadline.  In process, filters are
:class:`~repro.engine.expr.Expr` objects; on the wire they travel as
the CLI's textual predicate conjuncts (``"Delay > 96"``), parsed with
:func:`repro.engine.expr.parse_predicate` so untrusted request strings
can never execute anything.

:class:`QueryResponse` is what every submission resolves to — including
rejections: admission-control sheds are ordinary responses with
``status="shed"``, a machine-readable ``reason`` (``RETRY_AFTER``,
``RATE_LIMITED``, ``QUEUE_FULL``, ``SHUTTING_DOWN``,
``DEADLINE_EXCEEDED`` when the client's deadline expired in queue or
mid-scan, ``CIRCUIT_OPEN`` when a failure-class breaker is failing
fast), and a ``retry_after_s`` hint.  Nothing on the serving path
raises at a client for being overloaded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.engine.expr import Expr, parse_conjuncts
from repro.engine.terminal import TerminalSpec, jsonable
from repro.serve.protocol import ErrorCode

__all__ = [
    "ErrorCode",
    "QueryRequest",
    "QueryResponse",
    "request_from_wire",
]

#: Fallback ids for requests submitted without one.
_REQ_SEQ = itertools.count(1)


@dataclass(slots=True)
class QueryRequest:
    """One structured query plus its serving envelope.

    ``priority`` is a small integer, lower = more urgent (0 is
    reserved for operator traffic).  ``deadline_s`` is the client's
    patience: if the admission controller estimates the request would
    wait longer than this in the queue, it is shed immediately with
    ``RETRY_AFTER`` instead of occupying a slot it cannot use.
    """

    table: str = "mentions"
    op: str = "count"
    where: Expr | None = None
    column: str | None = None
    group_by: str | None = None
    time_range: tuple[int, int] | None = None
    client_id: str = "local"
    priority: int = 1
    deadline_s: float | None = None
    #: ``top`` terminal only: how many groups to keep.
    k: int | None = None
    #: Return the op's *mergeable partial* instead of the
    #: final value (mean -> [n, sum]; group mean -> {count, sum};
    #: group stats -> compacted {keys, values}; top -> sparse nonzero
    #: {keys, counts}).  What a scatter-gather router asks shards for.
    partials: bool = False
    id: str = field(default_factory=lambda: f"r{next(_REQ_SEQ)}")

    def terminal(self) -> TerminalSpec:
        """The request's terminal description."""
        return TerminalSpec(self.op, self.column, self.group_by, self.k)

    def validate(self) -> None:
        """Cheap structural validation (no store access).

        Raises:
            ValueError: on an unknown table/op or a missing/extra column.
        """
        if self.table not in ("events", "mentions"):
            raise ValueError(f"unknown table {self.table!r}")
        self.terminal().validate()
        if self.time_range is not None:
            lo, hi = self.time_range
            if hi < lo:
                raise ValueError("inverted time range")
            if self.table != "mentions":
                raise ValueError("time_range requires the mentions table")


@dataclass(slots=True)
class QueryResponse:
    """The outcome of one submitted request.

    ``status`` is ``"ok"`` (``value`` holds the result), ``"shed"``
    (admission control rejected it; see ``reason``/``retry_after_s``),
    or ``"error"`` (the request itself was bad or execution failed; see
    ``error``).  ``stats`` carries per-request serving telemetry:
    queue delay, execution time, batch size, whether the request was
    deduplicated onto an identical in-flight one, and the result-cache
    status.
    """

    status: str
    id: str | None = None
    value: object = None
    reason: str | None = None
    retry_after_s: float | None = None
    error: str | None = None
    stats: dict = field(default_factory=dict)
    #: Router only: shard ids whose data is absent from a ``partial``
    #: (or ``error``) response.
    missing: list | None = None

    @property
    def ok(self) -> bool:
        """True for any response carrying a usable value — including a
        router's ``partial`` (degraded but answered) responses."""
        return self.status in ("ok", "partial")

    def to_wire(self) -> dict:
        """JSON-safe dict form (numpy values listified)."""
        out: dict = {"id": self.id, "status": self.status}
        if self.status in ("ok", "partial"):
            out["value"] = jsonable(self.value)
        if self.reason is not None:
            out["reason"] = str(getattr(self.reason, "value", self.reason))
        if self.retry_after_s is not None:
            out["retry_after_s"] = round(float(self.retry_after_s), 6)
        if self.error is not None:
            out["error"] = self.error
        if self.missing is not None:
            out["missing_shards"] = list(self.missing)
        if self.stats:
            out["stats"] = {k: jsonable(v) for k, v in self.stats.items()}
        return out


def request_from_wire(obj: dict, client_id: str = "remote") -> QueryRequest:
    """Decode one wire request dict into a validated :class:`QueryRequest`.

    Raises:
        ValueError: on malformed fields or unparseable predicates.
    """
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    where_raw = obj.get("where") or []
    if isinstance(where_raw, str):
        where_raw = [where_raw]
    where = parse_conjuncts(where_raw)
    time_range = obj.get("time_range")
    if time_range is not None:
        if not isinstance(time_range, (list, tuple)) or len(time_range) != 2:
            raise ValueError("time_range must be [lo, hi]")
        time_range = (int(time_range[0]), int(time_range[1]))
    req = QueryRequest(
        table=str(obj.get("table", "mentions")),
        op=str(obj.get("op", "count")),
        where=where,
        column=obj.get("column"),
        group_by=obj.get("group_by"),
        time_range=time_range,
        client_id=str(obj.get("client_id", client_id)),
        priority=int(obj.get("priority", 1)),
        deadline_s=(
            float(obj["deadline_s"]) if obj.get("deadline_s") is not None else None
        ),
        k=(int(obj["k"]) if obj.get("k") is not None else None),
        partials=bool(obj.get("partials", False)),
    )
    if obj.get("id") is not None:
        req.id = str(obj["id"])
    req.validate()
    return req
