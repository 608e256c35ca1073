"""HTTP ops plane: live metrics exposition, health probes, varz, tracez.

A stdlib-only threaded HTTP server (no new dependencies) mounted next
to :class:`~repro.serve.server.ServeServer` and exposed via
``repro-gdelt serve --ops-port``.  Endpoints follow the conventions of
production query engines:

``GET /metrics``
    Live Prometheus text exposition of the process-global registry
    (SLO burn-rate, queue-depth and view-staleness gauges are computed
    on scrape).
``GET /healthz``
    Liveness — always ``200`` while the process can answer; the JSON
    body carries the SLO detail (``status`` flips to ``"degraded"``
    when an objective burns error budget above 1x in every window).
``GET /readyz``
    Admission — ``200`` only when the service would accept traffic:
    not draining, queue below its bound, no dead workers; ``503``
    otherwise, with the reasons in the body.  Load balancers poll this.
``GET /varz``
    JSON snapshot: uptime, queue depth, cache hit ratios, per-client
    token-bucket state, flight-recorder event counts.
``GET /tracez[?n=100]``
    The tracer's most recent spans as JSON.

The ops server is read-only and independent of the query plane: it
runs its own accept/handler threads, so probes keep answering while
the service drains or the engine is saturated.  Bind with ``port=0``
for an ephemeral port (tests); ``ops.port`` reports the bound one.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry
from repro.obs import trace as _trace

__all__ = ["OpsServer", "METRICS_CONTENT_TYPE"]

logger = logging.getLogger(__name__)

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default span count for /tracez (capped to keep responses bounded).
_TRACEZ_DEFAULT = 100
_TRACEZ_MAX = 2000


class _OpsHandler(BaseHTTPRequestHandler):
    """Routes GETs to the owning :class:`OpsServer`; everything else 404s."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-ops/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        ops: OpsServer = self.server.ops  # type: ignore[attr-defined]
        url = urlparse(self.path)
        try:
            handler = ops.routes.get(url.path)
            if handler is None:
                self._reply(404, {"error": f"no such endpoint {url.path!r}"})
                return
            status, content_type, body = handler(parse_qs(url.query))
            self._reply(status, body, content_type)
        except Exception as exc:  # noqa: BLE001 - probe must answer, not die
            logger.exception("ops handler failed for %s", self.path)
            try:
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def _reply(self, status: int, body, content_type: str | None = None) -> None:
        if not isinstance(body, (bytes, str)):
            body = json.dumps(body, indent=2, default=str) + "\n"
            content_type = content_type or "application/json"
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type or "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("ops: %s", fmt % args)


class OpsServer:
    """Threaded HTTP ops server over the process's telemetry state.

    ``service`` (a :class:`~repro.serve.service.QueryService`) is
    optional: without one, ``/metrics`` and ``/tracez`` still serve the
    process-global registry/tracer and the probes report a bare
    process.  The server never mutates the service.
    """

    def __init__(
        self,
        service=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._started_s = time.monotonic()
        self.routes = {
            "/metrics": self._metrics,
            "/healthz": self._healthz,
            "/readyz": self._readyz,
            "/varz": self._varz,
            "/tracez": self._tracez,
        }
        self._httpd = ThreadingHTTPServer((host, port), _OpsHandler)
        self._httpd.daemon_threads = True
        self._httpd.ops = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="ops-http", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- endpoint handlers -------------------------------------------------
    #
    # Each returns (status, content_type | None, body); dict bodies are
    # JSON-encoded by the handler.

    def _refresh_gauges(self) -> None:
        # Duck-typed: a ShardRouter exposes health()/stats()/breakers but
        # has no admission queue or SLO tracker of its own.
        slo = getattr(self.service, "slo", None)
        if slo is not None:
            slo.update_gauges()
        admission = getattr(self.service, "admission", None)
        if admission is not None:
            _metrics.gauge("serve_queue_depth").set(admission.depth())
        views = getattr(self.service, "views", None)
        if views is not None:
            views.update_staleness_gauges()

    def _metrics(self, query) -> tuple[int, str, str]:
        self._refresh_gauges()
        return 200, METRICS_CONTENT_TYPE, _metrics.registry().to_prometheus()

    def _healthz(self, query) -> tuple[int, None, dict]:
        body: dict = {"status": "ok", "uptime_s": round(self.uptime_s(), 3)}
        if self.service is not None:
            health = self.service.health()
            slo_ok = health.get("slo_ok", True)
            body.update(
                status="ok" if slo_ok else "degraded",
                slo_ok=slo_ok,
                draining=health.get("draining", False),
                dead_workers=health.get("dead_workers", 0),
            )
            if "slo" in health:
                body["slo"] = health["slo"]
            if "shards" in health:
                body["shards"] = health["shards"]
        return 200, None, body

    def _readyz(self, query) -> tuple[int, None, dict]:
        if self.service is None:
            return 200, None, {"ready": True, "reasons": []}
        health = self.service.health()
        status = 200 if health["ready"] else 503
        return status, None, {
            "ready": health["ready"],
            "reasons": health["reasons"],
            # Informational: a reloading server still serves (the old
            # generation stays pinned) — reported, not a 503.
            "reloading": health.get("reloading", False),
            "queue_depth": health.get("queue_depth", 0),
            "max_queue": health.get("max_queue", 0),
            "dead_workers": health.get("dead_workers", 0),
        }

    def _varz(self, query) -> tuple[int, None, dict]:
        body: dict = {
            "uptime_s": round(self.uptime_s(), 3),
            "n_metric_series": _metrics.registry().n_series(),
            "n_spans_buffered": _trace.tracer().count(),
            "flight_events": _telemetry.flight().counts(),
        }
        if self.service is not None:
            stats = self.service.stats()
            body["service"] = stats
            if "cache_hits" in stats and "scans" in stats:
                cache_probes = stats["cache_hits"] + stats["scans"]
                body["cache_hit_ratio"] = (
                    round(stats["cache_hits"] / cache_probes, 4)
                    if cache_probes
                    else 0.0
                )
            admission = getattr(self.service, "admission", None)
            if admission is not None:
                body["token_buckets"] = admission.bucket_states()
            slo = getattr(self.service, "slo", None)
            if slo is not None:
                body["slo"] = slo.snapshot()
            breakers = getattr(self.service, "breakers", None)
            if breakers is not None:
                body["breakers"] = breakers.states()
            if getattr(self.service, "lifecycle", None) is not None:
                body["lifecycle"] = self.service.lifecycle.snapshot()
            shards = getattr(self.service, "shard_states", None)
            if shards is not None:
                body["shards"] = shards()
            views = getattr(self.service, "views", None)
            if views is not None:
                body["views"] = views.snapshot()
        try:
            from repro.engine.planner import result_cache

            body["result_cache"] = result_cache().stats()
        except Exception:  # noqa: BLE001 - varz is best-effort
            pass
        return 200, None, body

    def _tracez(self, query) -> tuple[int, None, dict]:
        try:
            n = int(query.get("n", [_TRACEZ_DEFAULT])[0])
        except (TypeError, ValueError):
            n = _TRACEZ_DEFAULT
        n = max(1, min(n, _TRACEZ_MAX))
        spans = [
            {
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "name": r.name,
                "start_s": r.start_ns / 1e9,
                "duration_s": r.seconds,
                "thread": r.thread_name,
                "attrs": r.attrs,
            }
            for r in _trace.tracer().recent(n)
        ]
        return 200, None, {"count": len(spans), "spans": spans}

    # -- lifecycle ---------------------------------------------------------

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_s

    def close(self) -> None:
        """Stop serving; idempotent."""
        try:
            self._httpd.shutdown()
            self._httpd.server_close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "OpsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
