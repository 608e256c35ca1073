"""Python client for the LDJSON serving protocol.

A thin blocking client: one socket, one request in flight at a time
per client instance (run several clients for concurrency — they are
cheap).  ``query(..., retries=N)`` honours the server's shed hints:
on a ``shed`` response it sleeps ``retry_after_s`` and resubmits, so a
well-behaved client rides out transient overload instead of hammering
the admission gate.

Usage::

    with ServeClient("127.0.0.1", 7311) as client:
        resp = client.query(table="mentions", op="count",
                            where=["Delay > 96"], deadline_s=2.0)
        if resp["status"] == "ok":
            print(resp["value"])
"""

from __future__ import annotations

import json
import queue
import random
import socket
import threading
import time

from repro.serve.protocol import RETRYABLE_CODES

__all__ = ["ServeClient", "ViewSubscription", "next_backoff"]


def next_backoff(
    hint_s: float, prev_s: float, max_backoff_s: float, rng: random.Random
) -> float:
    """Decorrelated-jitter sleep for one shed retry.

    The server's ``retry_after_s`` hint is the *floor* — sleeping less
    would arrive before capacity exists — and the jittered ceiling grows
    from the previous sleep (``3x``), so a crowd of clients shed at the
    same instant desynchronizes instead of re-arriving as one thundering
    herd when the hint expires.  Capped at ``max_backoff_s``.
    """
    floor = max(hint_s, 0.001)
    ceiling = max(floor, prev_s * 3.0)
    return min(max_backoff_s, rng.uniform(floor, ceiling))


class ServeClient:
    """Blocking LDJSON client for one serving endpoint.

    Not thread-safe: each thread should own its own client (mirrors
    one-connection-per-client admission accounting on the server).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7311,
        timeout: float | None = 30.0, client_id: str | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.client_id = client_id
        self._host, self._port = host, int(port)
        self._rng = rng if rng is not None else random.Random()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._seq = 0

    # -- protocol ----------------------------------------------------------

    def call(self, obj: dict) -> dict:
        """Send one raw wire object, return the reply dict."""
        self._sock.sendall(json.dumps(obj).encode() + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def ping(self) -> bool:
        return self.call({"kind": "ping"}).get("pong", False)

    def meta(self) -> dict:
        """The server's store metadata (fingerprint, tables, groups)."""
        return self.call({"kind": "meta"}).get("meta", {})

    def stats(self) -> dict:
        """The server's service profile (config + live counters)."""
        return self.call({"kind": "stats"}).get("profile", {})

    def query(
        self,
        table: str = "mentions",
        op: str = "count",
        where: list[str] | str | None = None,
        column: str | None = None,
        group_by: str | None = None,
        time_range: tuple[int, int] | None = None,
        priority: int = 1,
        deadline_s: float | None = None,
        k: int | None = None,
        partials: bool = False,
        retries: int = 0,
        max_backoff_s: float = 5.0,
        retry_budget_s: float = 30.0,
    ) -> dict:
        """Run one query; optionally retry sheds per the server's hint.

        Retry sleeps use decorrelated jitter (:func:`next_backoff`) and
        draw from a total time budget of ``retry_budget_s``: once the
        next sleep would overdraw it the client gives up and returns
        the shed, so ``retries=1000`` against a down server costs
        bounded wall clock, not unbounded.

        Returns the final wire response dict — possibly still
        ``status="shed"`` once retries are exhausted.  Never raises for
        overload; only for transport failures.
        """
        obj: dict = {"kind": "query", "table": table, "op": op}
        if where:
            obj["where"] = [where] if isinstance(where, str) else list(where)
        if column is not None:
            obj["column"] = column
        if group_by is not None:
            obj["group_by"] = group_by
        if time_range is not None:
            obj["time_range"] = [int(time_range[0]), int(time_range[1])]
        if priority != 1:
            obj["priority"] = priority
        if deadline_s is not None:
            obj["deadline_s"] = deadline_s
        if k is not None:
            obj["k"] = int(k)
        if partials:
            obj["partials"] = True
        if self.client_id is not None:
            obj["client_id"] = self.client_id
        budget = retry_budget_s
        prev_wait = 0.0
        for attempt in range(retries + 1):
            self._seq += 1
            obj["id"] = f"c{self._seq}"
            resp = self.call(obj)
            if resp.get("status") != "shed" or attempt == retries:
                return resp
            reason = resp.get("reason")
            if reason is not None and reason not in RETRYABLE_CODES:
                return resp
            hint = float(resp.get("retry_after_s") or 0.05)
            wait = next_backoff(hint, prev_wait or hint, max_backoff_s, self._rng)
            if wait > budget:
                return resp
            budget -= wait
            prev_wait = wait
            time.sleep(wait)
        return resp

    def subscribe(self, views: list[str], **kw) -> "ViewSubscription":
        """Open a view subscription to this client's endpoint.

        Subscriptions live on their *own* connection (this client stays
        free for request/response traffic — pushed frames would desync
        its blocking :meth:`call` loop).
        """
        return ViewSubscription(self._host, self._port, views, **kw)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ViewSubscription:
    """A live feed of materialized-view updates from one server.

    Runs a background reader on a dedicated connection: it subscribes,
    queues every ``view_update`` frame, and on a broken connection
    redials with decorrelated-jitter backoff and **resubscribes** — the
    server replays each view's current value on subscribe, so the feed
    resumes at the latest state no matter how many updates the outage
    swallowed.  Replayed frames the subscriber already saw (same or
    older per-view ``seq``) are dropped, so consumers never observe
    time going backwards.

    Usage::

        with ViewSubscription(host, port, ["delay-hist"]) as sub:
            while True:
                event = sub.get(timeout=5.0)
                if event is not None:
                    print(event["view"], event["value"])

    A subscribe rejected by the server (unknown view, no catalog) stops
    the feed: :meth:`get` raises ``ConnectionError`` with the server's
    message instead of silently retrying a request that can never
    succeed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        views: list[str],
        connect_timeout_s: float = 10.0,
        max_backoff_s: float = 2.0,
        rng: random.Random | None = None,
    ) -> None:
        self.views = [str(v) for v in views]
        self._host, self._port = host, int(port)
        self._connect_timeout_s = connect_timeout_s
        self._max_backoff_s = max_backoff_s
        self._rng = rng if rng is not None else random.Random()
        self._events: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._sock: socket.socket | None = None
        self._last_seq: dict[str, int] = {}
        self._fatal: str | None = None
        #: Completed redials (observable reconnect accounting for tests).
        self.reconnects = 0
        #: Server-side coalesced updates this subscriber skipped.
        self.coalesced = 0
        self._thread = threading.Thread(
            target=self._run, name=f"view-sub-{port}", daemon=True
        )
        self._thread.start()

    def get(self, timeout: float | None = None) -> dict | None:
        """Next update frame, or ``None`` if ``timeout`` elapses.

        Raises:
            ConnectionError: the subscription failed permanently (the
                server rejected it, or :meth:`close` was called and the
                queue is drained).
        """
        while True:
            try:
                event = self._events.get(timeout=timeout)
            except queue.Empty:
                if self._fatal is not None:
                    raise ConnectionError(self._fatal)
                return None
            if event is not None:
                return event
            # None is the reader's "I stopped" sentinel.
            if self._fatal is not None:
                raise ConnectionError(self._fatal)
            return None

    # -- reader ------------------------------------------------------------

    def _run(self) -> None:
        prev_wait = 0.0
        first = True
        while not self._stop.is_set():
            try:
                self._connect_and_read(first_attempt=first)
            except (OSError, ValueError, ConnectionError):
                pass
            finally:
                self._close_sock()
            if self._stop.is_set() or self._fatal is not None:
                break
            first = False
            wait = next_backoff(0.05, prev_wait or 0.05, self._max_backoff_s,
                                self._rng)
            prev_wait = wait
            if self._stop.wait(wait):
                break
            self.reconnects += 1
        self._events.put(None)

    def _connect_and_read(self, first_attempt: bool) -> None:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout_s
        )
        self._sock = sock
        reader = sock.makefile("rb")
        sock.sendall(
            json.dumps({"kind": "subscribe", "views": self.views}).encode() + b"\n"
        )
        reply = json.loads(reader.readline() or b"{}")
        if reply.get("status") != "ok":
            # Only a *first-attempt* rejection is authoritative: after a
            # reconnect the server may still be starting up, so keep
            # retrying unless it explicitly rejected the view set.
            message = reply.get("error", "subscribe failed")
            if first_attempt or reply.get("code") == "BAD_REQUEST":
                self._fatal = f"subscribe rejected: {message}"
            raise ConnectionError(message)
        # Pushed frames arrive without further requests; read until the
        # connection drops or close() shuts the socket down.
        sock.settimeout(None)
        for raw in reader:
            if self._stop.is_set():
                return
            try:
                frame = json.loads(raw)
            except ValueError:
                continue
            if not isinstance(frame, dict) or frame.get("kind") != "view_update":
                continue
            view = str(frame.get("view"))
            seq = int(frame.get("seq", 0))
            self.coalesced += int(frame.get("coalesced", 0))
            if seq <= self._last_seq.get(view, -1):
                continue  # replay of a frame this subscriber already saw
            self._last_seq[view] = seq
            self._events.put(frame)

    def _close_sock(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        self._close_sock()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ViewSubscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
