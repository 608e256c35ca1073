"""Line-delimited-JSON socket front end for :class:`QueryService`.

Wire protocol — one JSON object per line, both directions:

Request::

    {"kind": "query", "table": "mentions", "op": "count",
     "where": ["Delay > 96"], "deadline_s": 2.0, "id": "q1"}

``kind`` defaults to ``"query"``; ``"ping"``, ``"stats"``, ``"meta"``,
and ``"subscribe"``/``"unsubscribe"`` are the other verbs.
The query response mirrors
:meth:`repro.serve.request.QueryResponse.to_wire`::

    {"id": "q1", "status": "ok", "value": 1234, "stats": {...}}
    {"id": "q2", "status": "shed", "reason": "RETRY_AFTER",
     "retry_after_s": 0.25}

Error responses carry a machine-readable ``code``
(:class:`~repro.serve.protocol.ErrorCode`) alongside the human
``error`` string; a malformed frame is always answered with
``BAD_REQUEST``, never a dropped connection or a server traceback.

**Subscriptions**: after
``{"kind": "subscribe", "views": ["name", ...]}`` the server pushes
``{"kind": "view_update", "view": ..., "seq": N, "value": ...}``
frames on every refresh of those views, interleaved with (but never
inside — a per-connection send lock frames every line atomically)
ordinary replies.  Backpressure is latest-wins: each connection buffers
at most one pending update per view, so a slow subscriber skips
intermediate values instead of stalling the refresher; skipped updates
are counted on the next frame's ``coalesced`` field.  Subscribing
replays the current value immediately (``replay: true``), which makes
reconnect + resubscribe lossless at the latest-value level.

Filters travel as textual predicate conjuncts and are parsed with the
regex-only :func:`repro.engine.expr.parse_predicate` — a request line
is data, never code.  One thread per connection plus one pusher thread
per *subscribed* connection (connections are long-lived and few; the
concurrency story lives in the service's worker pool, not here).  Bind
with ``port=0`` to get an ephemeral port (tests); ``server.port``
reports the bound one.
"""

from __future__ import annotations

import json
import logging
import socket
import threading

from repro.serve.protocol import ErrorCode
from repro.serve.request import request_from_wire
from repro.serve.service import QueryService

__all__ = ["ServeServer"]

logger = logging.getLogger(__name__)

#: Refuse request lines beyond this many bytes (a predicate list does
#: not need megabytes; oversized lines are a client bug or abuse).
MAX_LINE_BYTES = 64 * 1024


def _error(message: str, code: ErrorCode, request_id=None) -> dict:
    out = {"status": "error", "error": message, "code": str(code)}
    if request_id is not None:
        out["id"] = request_id
    return out


class _ConnState:
    """Per-connection state: send framing lock + subscription plumbing."""

    __slots__ = (
        "conn", "peer", "send_lock", "subs", "outbox", "outbox_lock",
        "wake", "coalesced", "closed", "pusher",
    )

    def __init__(self, conn: socket.socket, peer: str) -> None:
        self.conn = conn
        self.peer = peer
        #: Serializes every outbound line; replies and pushes interleave
        #: at line granularity, never mid-frame.
        self.send_lock = threading.Lock()
        self.subs: set[str] = set()
        #: Latest-wins pending update per subscribed view.
        self.outbox: dict[str, dict] = {}
        self.outbox_lock = threading.Lock()
        self.wake = threading.Event()
        #: Updates overwritten before this connection could send them.
        self.coalesced = 0
        self.closed = False
        self.pusher: threading.Thread | None = None


class ServeServer:
    """TCP LDJSON server wrapping one :class:`QueryService`.

    The server owns its accept thread and one thread per live
    connection, but NOT the service — callers create/close the service
    so one service can back both in-process and socket traffic.  When
    the service carries a view catalog (``service.views``), the server
    registers a refresh listener and fans updates out to subscribed
    connections.
    """

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._conns: dict[socket.socket, _ConnState] = {}
        self._conns_lock = threading.Lock()
        self._views = getattr(service, "views", None)
        if self._views is not None:
            self._views.add_listener(self._on_view_refresh)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        client_seq = 0
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:  # socket closed during shutdown
                return
            client_seq += 1
            state = _ConnState(conn, f"{peer[0]}:{peer[1]}")
            with self._conns_lock:
                self._conns[conn] = state
            threading.Thread(
                target=self._serve_conn,
                args=(state,),
                name=f"serve-conn-{client_seq}",
                daemon=True,
            ).start()

    def _serve_conn(self, state: _ConnState) -> None:
        conn = state.conn
        try:
            with conn, conn.makefile("rb") as reader:
                for raw in reader:
                    if self._stop.is_set():
                        return
                    if len(raw) > MAX_LINE_BYTES:
                        self._send(state, _error(
                            "request line too large", ErrorCode.BAD_REQUEST
                        ))
                        return
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        reply = self._handle_line(line, state)
                    except Exception as exc:  # noqa: BLE001 - never traceback a peer
                        logger.exception("request from %s failed", state.peer)
                        reply = _error(
                            f"{type(exc).__name__}: {exc}", ErrorCode.INTERNAL
                        )
                    if not self._send(state, reply):
                        return
        except OSError:
            pass  # client went away mid-read/write
        finally:
            state.closed = True
            state.wake.set()  # unblock the pusher so it can exit
            with self._conns_lock:
                self._conns.pop(conn, None)

    def _handle_line(self, line: bytes, state: _ConnState) -> dict:
        try:
            obj = json.loads(line)
        except ValueError:
            return _error("malformed JSON", ErrorCode.BAD_REQUEST)
        if not isinstance(obj, dict):
            return _error("request must be a JSON object", ErrorCode.BAD_REQUEST)
        kind = obj.get("kind", "query")
        if kind == "ping":
            return {"status": "ok", "pong": True}
        if kind == "meta":
            return {"status": "ok", "meta": self.service.meta()}
        if kind == "stats":
            return {"status": "ok", "profile": self.service.profile()}
        if kind == "subscribe":
            return self._handle_subscribe(obj, state)
        if kind == "unsubscribe":
            return self._handle_unsubscribe(obj, state)
        if kind != "query":
            return _error(f"unknown kind {kind!r}", ErrorCode.BAD_REQUEST)
        try:
            req = request_from_wire(obj, client_id=state.peer)
        except (ValueError, TypeError, KeyError) as exc:
            return _error(
                f"bad request: {exc}", ErrorCode.BAD_REQUEST, obj.get("id")
            )
        pending = self.service.submit(req)
        # Block this connection's thread only; other connections and the
        # service workers keep going.  Admission control bounds the wait.
        return pending.result(timeout=None).to_wire()

    # -- subscriptions -----------------------------------------------------

    def _subscribe_views(self, obj: dict) -> list[str]:
        views = obj.get("views")
        if not isinstance(views, list) or not views:
            raise ValueError('subscribe needs "views": [name, ...]')
        return [str(v) for v in views]

    def _handle_subscribe(self, obj: dict, state: _ConnState) -> dict:
        if self._views is None:
            return _error(
                "this server has no view catalog", ErrorCode.BAD_REQUEST
            )
        try:
            names = self._subscribe_views(obj)
        except ValueError as exc:
            return _error(str(exc), ErrorCode.BAD_REQUEST)
        unknown = [n for n in names if n not in self._views]
        if unknown:
            return _error(
                f"no such view(s): {', '.join(sorted(unknown))}",
                ErrorCode.BAD_REQUEST,
            )
        with state.outbox_lock:
            state.subs.update(names)
        self._ensure_pusher(state)
        # Replay the current value per view so a (re)subscribing client
        # is immediately at the latest state — this is what makes
        # reconnect + resubscribe lossless at the latest-value level.
        for name in names:
            event = self._views.current_event(name)
            if event is not None:
                self._enqueue_update(state, dict(event, replay=True))
        return {"status": "ok", "subscribed": sorted(state.subs)}

    def _handle_unsubscribe(self, obj: dict, state: _ConnState) -> dict:
        try:
            names = self._subscribe_views(obj)
        except ValueError as exc:
            return _error(str(exc), ErrorCode.BAD_REQUEST)
        with state.outbox_lock:
            for name in names:
                state.subs.discard(name)
                state.outbox.pop(name, None)
        return {"status": "ok", "subscribed": sorted(state.subs)}

    def _on_view_refresh(self, event: dict) -> None:
        """Catalog listener (refresher thread): enqueue only, never send —
        a slow subscriber must not stall view maintenance."""
        name = event.get("view")
        with self._conns_lock:
            states = list(self._conns.values())
        for state in states:
            if not state.closed and name in state.subs:
                self._enqueue_update(state, event)

    def _enqueue_update(self, state: _ConnState, event: dict) -> None:
        with state.outbox_lock:
            if event["view"] in state.outbox:
                state.coalesced += 1  # latest-wins: the old update is skipped
            state.outbox[event["view"]] = event
        state.wake.set()

    def _ensure_pusher(self, state: _ConnState) -> None:
        if state.pusher is not None and state.pusher.is_alive():
            return
        state.pusher = threading.Thread(
            target=self._push_loop, args=(state,),
            name=f"serve-push-{state.peer}", daemon=True,
        )
        state.pusher.start()

    def _push_loop(self, state: _ConnState) -> None:
        while not self._stop.is_set() and not state.closed:
            if not state.wake.wait(timeout=0.5):
                continue
            state.wake.clear()
            with state.outbox_lock:
                events = [state.outbox.pop(k) for k in list(state.outbox)]
                coalesced, state.coalesced = state.coalesced, 0
            for event in events:
                frame = {"kind": "view_update", **event}
                if coalesced:
                    frame["coalesced"] = coalesced
                    coalesced = 0
                if not self._send(state, frame):
                    state.closed = True
                    return

    # -- output ------------------------------------------------------------

    @staticmethod
    def _send(state: _ConnState, obj: dict) -> bool:
        try:
            with state.send_lock:
                state.conn.sendall(json.dumps(obj).encode() + b"\n")
            return True
        except OSError:
            return False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and drop live connections; idempotent.

        Does not close the wrapped service (the caller owns it).
        """
        if self._stop.is_set():
            return
        self._stop.set()
        if self._views is not None:
            self._views.remove_listener(self._on_view_refresh)
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            states = list(self._conns.values())
        for state in states:
            state.closed = True
            state.wake.set()
            try:
                state.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                state.conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ServeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
