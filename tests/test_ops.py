"""The HTTP ops plane: /metrics, /healthz, /readyz, /varz, /tracez."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.obs import telemetry
from repro.obs.telemetry import SloObjective, SloTracker
from repro.serve import METRICS_CONTENT_TYPE, OpsServer, QueryRequest, QueryService


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    telemetry.flight().clear()
    yield
    obs.disable()
    obs.reset()
    telemetry.flight().clear()


@pytest.fixture()
def service(tiny_store):
    svc = QueryService(tiny_store, workers=2, max_batch=8, rate_limit=50.0)
    yield svc
    svc.close(drain=False)


@pytest.fixture()
def ops(service):
    server = OpsServer(service)
    yield server
    server.close()


def _get(ops: OpsServer, path: str):
    """(status, content_type, body-bytes) — 4xx/5xx don't raise."""
    url = f"http://{ops.host}:{ops.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers["Content-Type"], err.read()


def _get_json(ops: OpsServer, path: str):
    status, ctype, body = _get(ops, path)
    assert ctype == "application/json", ctype
    return status, json.loads(body)


class TestEndpoints:
    def test_metrics_content_type_and_payload(self, service, ops):
        assert service.query("mentions", op="count").ok
        status, ctype, body = _get(ops, "/metrics")
        assert status == 200
        assert ctype == METRICS_CONTENT_TYPE
        text = body.decode()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_slo_burn_rate" in text  # refreshed on scrape

    def test_healthz_ok(self, ops):
        status, doc = _get_json(ops, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["slo_ok"] is True
        assert doc["draining"] is False

    def test_readyz_ok_then_503_after_close(self, service, ops):
        status, doc = _get_json(ops, "/readyz")
        assert status == 200
        assert doc["ready"] is True and doc["reasons"] == []
        service.close(drain=False)
        status, doc = _get_json(ops, "/readyz")
        assert status == 503
        assert "draining" in doc["reasons"]

    def test_healthz_stays_200_while_readyz_flips(self, service, ops):
        # Liveness vs admission: a draining process is still alive.
        service.close(drain=False)
        status, _ = _get_json(ops, "/healthz")
        assert status == 200
        status, _ = _get_json(ops, "/readyz")
        assert status == 503

    def test_varz_reports_service_and_buckets(self, service, ops):
        from repro.engine.planner import result_cache

        obs.enable()
        result_cache().invalidate()
        for _ in range(3):
            assert service.query("mentions", op="count").ok
        status, doc = _get_json(ops, "/varz")
        assert status == 200
        assert doc["service"]["ok"] == 3
        assert doc["cache_hit_ratio"] >= 0.0
        assert doc["uptime_s"] >= 0.0
        # the in-process client has a token bucket with tokens consumed
        bucket = doc["token_buckets"]["local"]
        assert bucket["rate"] == 50.0
        assert bucket["tokens"] < bucket["burst"]
        assert "flight_events" in doc
        # The result cache's LRU bytes, and the gauge that follows them.
        held = doc["result_cache"]["bytes"]
        assert held == result_cache().stats()["bytes"] > 0
        _, _, body = _get(ops, "/metrics")
        assert f"repro_planner_cache_bytes {held}" in body.decode()

    def test_tracez_spans_and_n_param(self, service, ops):
        from repro.engine.planner import result_cache

        obs.enable()
        result_cache().invalidate()  # force real scans -> spans
        for _ in range(2):
            assert service.query("mentions", op="count").ok
        status, doc = _get_json(ops, "/tracez")
        assert status == 200
        assert doc["count"] >= 1
        names = {s["name"] for s in doc["spans"]}
        assert any("serve" in n or "executor" in n or "query" in n for n in names)
        _, doc1 = _get_json(ops, "/tracez?n=1")
        assert doc1["count"] == 1
        _, doc_bad = _get_json(ops, "/tracez?n=bogus")
        assert doc_bad["count"] >= 1  # falls back to the default

    def test_unknown_path_404(self, ops):
        status, doc = _get_json(ops, "/nope")
        assert status == 404
        assert "/nope" in doc["error"]

    def test_standalone_without_service(self):
        with OpsServer() as bare:
            status, doc = _get_json(bare, "/healthz")
            assert status == 200 and doc["status"] == "ok"
            status, doc = _get_json(bare, "/readyz")
            assert status == 200 and doc["ready"] is True
            status, ctype, _ = _get(bare, "/metrics")
            assert status == 200 and ctype == METRICS_CONTENT_TYPE

    def test_close_is_idempotent(self, service):
        server = OpsServer(service)
        server.close()
        server.close()


class TestSloBreachEndToEnd:
    def test_induced_latency_breach_flips_healthz_detail(self, tiny_store):
        # Every request violates a 1ns latency threshold with a 10%
        # error budget -> burn rate 1/0.1 = 10x in every window.
        slo = SloTracker(
            objectives=(
                SloObjective("latency", target=0.9, latency_threshold_s=1e-9),
            )
        )
        svc = QueryService(tiny_store, workers=2, slo=slo)
        try:
            with OpsServer(svc) as ops:
                for _ in range(5):
                    assert svc.query("mentions", op="count").ok
                status, doc = _get_json(ops, "/healthz")
                assert status == 200  # alive — burn is detail, not death
                assert doc["status"] == "degraded"
                assert doc["slo_ok"] is False
                assert doc["slo"]["breaches"] == ["latency"]
                burn = doc["slo"]["objectives"][0]["burn_rates"]
                assert all(rate > 1.0 for rate in burn.values())

                # the same burn is scraped as gauges
                _, _, body = _get(ops, "/metrics")
                assert 'repro_slo_burn_rate{slo="latency"' in body.decode()
        finally:
            svc.close(drain=False)

    def test_sheds_count_against_the_slo(self, tiny_store):
        slo = SloTracker(
            objectives=(SloObjective("availability", target=0.9),)
        )
        svc = QueryService(tiny_store, workers=1, max_queue=1, slo=slo)
        try:
            # saturate the one-deep queue to force sheds
            reqs = [
                svc.submit(QueryRequest(table="mentions", op="count",
                                        deadline_s=1e-6))
                for _ in range(20)
            ]
            for p in reqs:
                p.result(timeout=30.0)
        finally:
            svc.close(drain=False)
        assert slo.total_bad > 0, "sheds must burn availability budget"
