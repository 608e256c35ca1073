"""Scatter-gather query routing over per-shard serving backends.

:class:`ShardRouter` looks exactly like a
:class:`~repro.serve.service.QueryService` to the LDJSON front end
(:class:`~repro.serve.server.ServeServer` mounts either without
knowing which): ``submit`` returns a resolved
:class:`~repro.serve.service.PendingRequest`, and
``meta``/``stats``/``profile``/``health`` answer for the cluster as a
whole.  Per request it:

1. **routes** — the shard map turns the table's placement into
   replica groups in global row order: one per mentions shard whose
   zone-map bounds can contain matching rows (the others are skipped,
   ``shard_skipped_total{reason}``), or one group of every events
   replica.  A query left with no group is answered from the op's zero
   value with no network traffic at all;
2. **scatters** — every group gets the request in ``partials`` mode
   with a split deadline (:data:`DEADLINE_FRACTION` of the client's
   remaining budget, so the router has time left to merge and answer);
   a group's replicas are asked in order until one answers;
3. **gathers** — partials merge in group order through the terminal
   algebra (:meth:`~repro.engine.terminal.Terminal.merge`), which
   equals global row order, so merged values are byte-identical to a
   single-store run for counts and integer-column aggregates.

Degradation: each shard has its own circuit breaker.  Backend *errors*
and transport failures trip it and fail over to the group's next
replica; *sheds* do not (an overloaded backend is alive), and neither
does a backend's ``BAD_REQUEST``: the request is at fault, not the
shard, so the router answers it as its own.  When a group has no
answer and ``partial_ok`` is set the router answers
``status="partial"`` with ``reason=PARTIAL_RESULT`` and the missing
shard ids — a degraded answer instead of no answer; otherwise the
request fails with ``SHARD_UNAVAILABLE``.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.expr import to_conjuncts
from repro.engine.terminal import TerminalSpec
from repro.obs import metrics as _metrics
from repro.serve.breaker import BreakerBoard
from repro.serve.client import ServeClient, parse_address
from repro.serve.protocol import ErrorCode
from repro.serve.request import QueryRequest, QueryResponse
from repro.serve.service import PendingRequest
from repro.shard.map import ShardInfo, ShardMap

__all__ = ["ShardRouter"]

logger = logging.getLogger(__name__)

#: Share of the client's remaining deadline granted to the backends; the
#: rest is the router's merge budget.
DEADLINE_FRACTION = 0.9
#: Below this remaining budget the router sheds ``DEADLINE_EXCEEDED``
#: without any fan-out (and hints this long a retry).
DEADLINE_FLOOR_S = 0.02
#: Per-connection socket timeout to a backend (bounds a hung shard).
SHARD_TIMEOUT_S = 30.0


def _bad_request(error: str) -> QueryResponse:
    return QueryResponse(status="error", reason=ErrorCode.BAD_REQUEST, error=error)


class _ClientPool:
    """Reusable blocking connections to one backend.

    :class:`ServeClient` is one-request-at-a-time, so concurrent
    fan-outs each borrow their own connection; connections are created
    on demand and returned for reuse.  A connection that failed
    mid-call is discarded, never reused.
    """

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self._free: list[ServeClient] = []
        self._lock = threading.Lock()

    def acquire(self) -> ServeClient:
        with self._lock:
            if self._free:
                return self._free.pop()
        host, port = self.address
        return ServeClient(host, port, timeout=SHARD_TIMEOUT_S, client_id="router")

    def release(self, client: ServeClient) -> None:
        with self._lock:
            self._free.append(client)

    def discard(self, client: ServeClient) -> None:
        client.close()

    def close(self) -> None:
        with self._lock:
            clients, self._free = self._free, []
        for c in clients:
            c.close()


class ShardRouter:
    """Scatter-gather front end over N per-shard serving backends.

    Args:
        backends: backend addresses (``"host:port"`` strings or
            ``(host, port)`` pairs).  All must be reachable and
            answer ``meta`` at construction time, and none may be
            another router (a router does not serve the ``partials``
            requests it would be sent) — a router with a wrong shard
            map would silently return wrong answers, so construction is
            strict even though serving later degrades gracefully.
        partial_ok: with shards missing, answer ``status="partial"``
            (reason ``PARTIAL_RESULT``, missing ids listed) instead of
            failing the request with ``SHARD_UNAVAILABLE``.

    Each backend connection times out after :data:`SHARD_TIMEOUT_S`, and
    each shard has its own circuit breaker in :attr:`breakers` (class =
    shard id).

    A group-``stats`` query whose every shard was pruned answers with
    the merge of no partials, bound to the value column's dtype (from
    the shard meta), so its empty-group sentinels are byte-identical to
    a scanned run's.
    """

    def __init__(self, backends, partial_ok: bool = False) -> None:
        addresses = [parse_address(b) for b in backends]
        if not addresses:
            raise ValueError("a shard router needs at least one backend")
        self.partial_ok = bool(partial_ok)
        self.breakers = BreakerBoard()
        self._pools: dict[str, _ClientPool] = {}
        shards: list[ShardInfo] = []
        for i, address in enumerate(addresses):
            shard = self._enroll(i, address)
            shards.append(shard)
            self._pools[shard.shard_id] = _ClientPool(address)
        self.map = ShardMap(shards)
        self._fanout = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(shards)), thread_name_prefix="shard-fanout"
        )
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {
            "submitted": 0, "ok": 0, "partial": 0, "shed": 0, "error": 0,
            "fanout_queries": 0, "zero_fanout": 0,
            "shards_asked": 0, "shards_skipped": 0, "shards_missing": 0,
        }
        self._started_s = time.monotonic()
        self._closed = False

    def _enroll(self, index: int, address: tuple[str, int]) -> ShardInfo:
        """Read one backend's self-description; refuse another router."""
        host, port = address
        client = ServeClient(host, port, timeout=SHARD_TIMEOUT_S, client_id="router")
        try:
            meta = client.meta()
        finally:
            client.close()
        if "shards" in meta:
            raise ValueError(
                f"backend {host}:{port} is a shard router, not a shard server"
            )
        if "tables" not in meta:
            raise ValueError(f"backend {host}:{port} answered no meta")
        stamp = meta.get("shard") or {}
        shard_id = (
            f"shard{int(stamp['index'])}" if "index" in stamp else f"shard{index}"
        )
        return ShardInfo(shard_id, address, meta)

    # -- QueryService-compatible surface -----------------------------------

    def submit(self, request: QueryRequest) -> PendingRequest:
        """Route, scatter, merge; returns an already-resolved pending."""
        pending = PendingRequest(request)
        self._count("submitted")
        try:
            response = self._handle(request)
        except Exception as exc:  # noqa: BLE001 - a router must answer
            logger.exception("router failed handling %s", request.id)
            response = QueryResponse(
                status="error",
                reason=ErrorCode.INTERNAL,
                error=f"{type(exc).__name__}: {exc}",
            )
        self._count(
            response.status if response.status in self._counts else "error"
        )
        pending._resolve(response)
        return pending

    def query(
        self, table: str = "mentions", timeout: float | None = 30.0, **kw
    ) -> QueryResponse:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(QueryRequest(table=table, **kw)).result(timeout)

    # -- request handling --------------------------------------------------

    def _handle(self, request: QueryRequest) -> QueryResponse:
        if self._closed:
            return QueryResponse(
                status="shed", reason=ErrorCode.SHUTTING_DOWN, retry_after_s=1.0
            )
        try:
            request.validate()
            if request.partials:
                # No partials-of-partials: the mergeable wire mode is the
                # router->backend contract, not a client-facing one.
                raise ValueError("a router does not serve partials requests")
            conjuncts = (
                to_conjuncts(request.where) if request.where is not None else []
            )
        except ValueError as exc:
            return _bad_request(f"{type(exc).__name__}: {exc}")
        return self._scatter_gather(request, conjuncts)

    def _sub_deadline(
        self, request: QueryRequest, arrival_s: float
    ) -> tuple[float | None, bool]:
        """(backend deadline, expired) from the client's remaining budget."""
        if request.deadline_s is None:
            return None, False
        remaining = request.deadline_s - (time.monotonic() - arrival_s)
        if remaining <= DEADLINE_FLOOR_S:
            return None, True
        return max(DEADLINE_FLOOR_S, remaining * DEADLINE_FRACTION), False

    def _scatter_gather(
        self, request: QueryRequest, conjuncts: list[str]
    ) -> QueryResponse:
        arrival_s = time.monotonic()
        groups, skipped = self.map.route(
            request.table, request.where, request.time_range
        )
        for _shard, reason in skipped:
            _metrics.counter("shard_skipped_total", reason=reason).inc()
        self._count("shards_skipped", len(skipped))

        n_groups = None
        if request.group_by is not None:
            n_groups = self.map.n_groups(request.table, request.group_by)
        spec = TerminalSpec(request.op, group=request.group_by, k=request.k)

        if not groups:
            # Placement answered the query: no shard can hold a matching
            # row, so the op's zero value IS the exact result — built
            # with the value column's dtype from the shard meta, so it
            # matches a run that scanned and selected nothing.
            self._count("zero_fanout")
            _metrics.histogram("shard_fanout").observe(0)
            dtype = None
            if request.column is not None:
                dtype = self.map.column_dtype(request.table, request.column)
            value = spec.bind(n_groups, dtype).merge([])
            return QueryResponse(
                status="ok",
                value=value,
                stats=self._gather_stats(request, [], skipped, [], 0.0, 0.0),
            )

        sub_deadline, expired = self._sub_deadline(request, arrival_s)
        if expired:
            return self._shed_deadline()

        # Scatter: every group concurrently, its replicas in order.
        futures = [
            self._fanout.submit(
                self._call_group, group, request, conjuncts, sub_deadline
            )
            for group in groups
        ]
        self._count("fanout_queries")
        _metrics.histogram("shard_fanout").observe(len(groups))

        # Gather in group order == global row order (merge exactness).
        parts: list = []
        part_stats: list[dict] = []
        sheds: list[tuple[str, float]] = []
        lost: list[tuple[list[ShardInfo], str]] = []  # (group, why)
        bad = None
        for group, future in zip(groups, futures):
            kind, payload = future.result()
            if kind == "ok":
                value, stats = payload
                parts.append(value)
                part_stats.append(stats)
            elif kind == "shed":
                sheds.append(payload)
                lost.append((group, str(payload[0])))
            elif kind == "bad":
                bad = payload
            else:
                lost.append((group, str(payload)))
        if bad is not None:
            return _bad_request(bad)
        missing = [(s.shard_id, why) for group, why in lost for s in group]
        self._count("shards_missing", len(missing))

        if not parts:
            if sheds and len(sheds) == len(lost):
                # Every unanswered group is alive but shedding: propagate
                # the shed (retryable) rather than declaring shards lost.
                reason, _ = sheds[0]
                retry_after = max(r for _, r in sheds)
                return QueryResponse(
                    status="shed", reason=reason, retry_after_s=retry_after
                )
            return QueryResponse(
                status="error",
                reason=ErrorCode.SHARD_UNAVAILABLE,
                error="no shard answered: "
                + "; ".join(f"{sid}: {why}" for sid, why in missing),
                missing=[sid for sid, _ in missing],
            )

        t_merge = time.monotonic()
        value = spec.bind(n_groups).merge(parts)
        merge_ms = (time.monotonic() - t_merge) * 1e3
        _metrics.histogram("shard_partial_merge_ms").observe(merge_ms)
        exec_s = time.monotonic() - arrival_s
        stats = self._gather_stats(
            request, part_stats, skipped, missing, merge_ms, exec_s
        )

        if missing:
            if not self.partial_ok:
                return QueryResponse(
                    status="error",
                    reason=ErrorCode.SHARD_UNAVAILABLE,
                    error="missing shards: "
                    + "; ".join(f"{sid}: {why}" for sid, why in missing),
                    missing=[sid for sid, _ in missing],
                    stats=stats,
                )
            return QueryResponse(
                status="partial",
                value=value,
                reason=ErrorCode.PARTIAL_RESULT,
                missing=[sid for sid, _ in missing],
                stats=stats,
            )
        return QueryResponse(status="ok", value=value, stats=stats)

    def _call_group(
        self,
        group: list[ShardInfo],
        request: QueryRequest,
        conjuncts: list[str],
        deadline_s: float | None,
    ) -> tuple[str, object]:
        """Ask a replica group's shards in order: the first outcome of
        :meth:`_call_shard` that is not a failure, or ``('fail', why)``
        when no replica answered.

        A replica whose breaker is open is passed over; a failing one
        trips its breaker and the next is asked.  A shed ends the loop
        like an answer: the next replica holds the same rows, but a shed
        is about *load*, and its retry hint is already correct.
        """
        why = "CIRCUIT_OPEN"
        for shard in group:
            allowed, _retry = self.breakers.allow(shard.shard_id)
            if not allowed:
                _metrics.counter("shard_skipped_total", reason="breaker").inc()
                continue
            self._count("shards_asked")
            kind, payload = self._call_shard(shard, request, conjuncts, deadline_s)
            if kind == "fail":
                self.breakers.failure(shard.shard_id)
                why = payload
                continue
            if kind != "shed":
                self.breakers.success(shard.shard_id)
            return kind, payload
        return "fail", why

    def _call_shard(
        self,
        shard: ShardInfo,
        request: QueryRequest,
        conjuncts: list[str],
        deadline_s: float | None,
    ) -> tuple[str, object]:
        """One backend call → ('ok', (value, stats)) / ('shed', (reason,
        retry_s)) / ('bad', message) for a ``BAD_REQUEST`` reply /
        ('fail', message).  Never raises."""
        pool = self._pools[shard.shard_id]
        try:
            client = pool.acquire()
        except OSError as exc:
            return "fail", f"connect: {exc}"
        try:
            resp = client.query(
                table=request.table,
                op=request.op,
                where=conjuncts or None,
                column=request.column,
                group_by=request.group_by,
                time_range=request.time_range,
                priority=request.priority,
                deadline_s=deadline_s,
                k=request.k,
                partials=True,
            )
        except (OSError, ValueError) as exc:  # transport / framing
            pool.discard(client)
            return "fail", f"transport: {exc}"
        pool.release(client)
        status = resp.get("status")
        if status == "ok":
            return "ok", (resp.get("value"), resp.get("stats", {}))
        if status == "shed":
            reason = resp.get("reason") or str(ErrorCode.RETRY_AFTER)
            return "shed", (reason, float(resp.get("retry_after_s") or 0.05))
        error = str(resp.get("error") or f"status={status!r}")
        if resp.get("reason") == ErrorCode.BAD_REQUEST:
            return "bad", error
        return "fail", error

    def _shed_deadline(self) -> QueryResponse:
        return QueryResponse(
            status="shed",
            reason=ErrorCode.DEADLINE_EXCEEDED,
            retry_after_s=DEADLINE_FLOOR_S,
        )

    def _gather_stats(
        self,
        request: QueryRequest,
        part_stats: list[dict],
        skipped: list,
        missing: list,
        merge_ms: float,
        exec_s: float,
    ) -> dict:
        """Cluster-level accounting, shaped so a RemoteStore can build
        the same pruning story a local plan carries (shards-as-chunks)."""
        pruned = sum(1 for _s, reason in skipped if reason == "pruned")
        return {
            "fanout": len(part_stats),
            "shards_total": len(self.map),
            "shards_pruned": pruned,
            "shards_skipped": len(skipped),
            "shards_missing": len(missing),
            "merge_ms": round(merge_ms, 3),
            "exec_s": round(exec_s, 6),
            # Planner-compatible keys (whole shards as chunks); the
            # string matches the backend planner's vocabulary so a
            # RemoteStore plan reads the same either way.
            "pruning": "zone-map",
            "chunks_total": len(self.map),
            "chunks_pruned": len(skipped),
            "chunks_full": 0,
            "rows_total": self.map.global_rows(request.table),
            "rows_planned": sum(
                int(s.get("rows_planned", 0)) for s in part_stats
            ),
        }

    # -- introspection -----------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + n

    def shard_states(self) -> dict:
        """Per-shard identity, size, and breaker state (ops plane)."""
        breaker_states = self.breakers.states()
        return {
            s.shard_id: {
                "address": f"{s.address[0]}:{s.address[1]}",
                "rows": {t: s.rows(t) for t in ("events", "mentions")},
                "breaker": breaker_states.get(s.shard_id, {"state": "closed"}),
            }
            for s in self.map
        }

    def stats(self) -> dict:
        with self._lock:
            counts = dict(self._counts)
        return {
            **counts,
            "n_shards": len(self.map),
            "partial_ok": self.partial_ok,
            "uptime_s": round(time.monotonic() - self._started_s, 3),
            "breakers": self.breakers.states(),
        }

    def health(self) -> dict:
        """Router readiness: can it still answer every row range?

        An open breaker marks its shard unhealthy; with ``partial_ok``
        the router still serves (degraded), without it those requests
        will fail, so readiness flips.
        """
        # Snapshots, not allow(): a health probe must never consume a
        # half-open breaker's probe slot.
        states = self.breakers.states()
        open_shards = [
            s.shard_id
            for s in self.map
            if states.get(s.shard_id, {}).get("state") == "open"
        ]
        reasons = []
        if self._closed:
            reasons.append("draining")
        if open_shards and not self.partial_ok:
            reasons.append(f"shards_unavailable={','.join(open_shards)}")
        return {
            "live": True,
            "ready": not reasons,
            "reasons": reasons,
            "draining": self._closed,
            "degraded_shards": open_shards,
            "shards": self.shard_states(),
        }

    def meta(self) -> dict:
        """The cluster self-described as one store (``meta`` verb)."""
        return self.map.merged_meta()

    def profile(self) -> dict:
        return {
            "kind": "router_profile",
            "config": {
                "n_shards": len(self.map),
                "partial_ok": self.partial_ok,
            },
            "stats": self.stats(),
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop routing; idempotent.  Backends are NOT shut down."""
        if self._closed:
            return
        self._closed = True
        self._fanout.shutdown(wait=True)
        for pool in self._pools.values():
            pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
