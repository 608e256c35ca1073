"""repro.serve: admission control, batching, single-flight, the socket server.

The serving contract under test:

* served values are identical to direct ``store.query(...)`` values
  (integer aggregates byte-identical regardless of batching);
* identical concurrent requests execute once (single-flight);
* overload sheds with machine-readable reasons instead of hanging;
* the LDJSON socket round-trips all of it, ≥32 clients at a time.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro import obs
from repro.engine import col
from repro.engine.expr import parse_predicate
from repro.engine.planner import result_cache
from repro.engine.terminal import jsonable
from repro.serve import (
    AdmissionController,
    OpsServer,
    QueryRequest,
    QueryResponse,
    QueryService,
    ServeClient,
    ServeServer,
    StoreLifecycle,
    TokenBucket,
    request_from_wire,
)
from repro.serve.protocol import ErrorCode


@pytest.fixture()
def service(tiny_store):
    svc = QueryService(tiny_store, workers=2, max_batch=8)
    yield svc
    svc.close(drain=False)


def _direct_count(store, pred=None):
    q = store.query("mentions")
    if pred is not None:
        q = q.filter(pred)
    return q.count().value


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(0.0) == 0.0
        wait = bucket.try_acquire(0.0)
        assert wait == pytest.approx(0.1)
        # After the advertised wait, a token is available again.
        assert bucket.try_acquire(wait) == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)


class TestAdmission:
    def test_queue_full_sheds(self):
        adm = AdmissionController(max_queue=2, workers=1)
        shed = obs.counter("serve_shed_total", reason="QUEUE_FULL")
        assert adm.offer(object(), "c", 1, None) is None
        assert adm.offer(object(), "c", 1, None) is None
        before = shed.value
        reason, retry = adm.offer(object(), "c", 1, None)
        assert reason == "QUEUE_FULL"
        assert retry > 0
        assert shed.value == before + 1

    def test_deadline_shed_uses_ewma(self):
        adm = AdmissionController(max_queue=100, workers=1)
        adm.observe_service(0.5)
        assert adm.offer(object(), "c", 1, None) is None  # no deadline: queued
        reason, retry = adm.offer(object(), "c", 1, 0.1)
        assert reason == "RETRY_AFTER"
        assert retry >= 0.5  # at least one queued request ahead
        # A patient deadline is still admitted.
        assert adm.offer(object(), "c", 1, 60.0) is None

    def test_rate_limit_is_per_client(self):
        adm = AdmissionController(max_queue=100, rate_limit=1000.0, burst=1.0)
        assert adm.offer(object(), "a", 1, None) is None
        reason, retry = adm.offer(object(), "a", 1, None)
        assert reason == "RATE_LIMITED" and retry > 0
        # An independent client has its own bucket.
        assert adm.offer(object(), "b", 1, None) is None

    def test_take_is_priority_then_fifo(self):
        adm = AdmissionController(max_queue=10)
        adm.offer("low-1", "c", 5, None)
        adm.offer("hi-1", "c", 0, None)
        adm.offer("low-2", "c", 5, None)
        adm.offer("hi-2", "c", 0, None)
        assert adm.take(10) == ["hi-1", "hi-2", "low-1", "low-2"]

    def test_idle_tracks_in_flight(self):
        adm = AdmissionController(max_queue=10)
        adm.offer("x", "c", 1, None)
        assert not adm.idle()
        (taken,) = adm.take(1)
        assert taken == "x" and not adm.idle()
        adm.done()
        assert adm.idle()
        assert adm.wait_idle(timeout=1.0)


class TestRequestTypes:
    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            QueryRequest(table="nope").validate()
        with pytest.raises(ValueError):
            QueryRequest(op="median").validate()
        with pytest.raises(ValueError):
            QueryRequest(op="sum").validate()  # needs a column
        with pytest.raises(ValueError):
            QueryRequest(op="count", column="Delay").validate()
        with pytest.raises(ValueError):
            QueryRequest(op="stats").validate()  # stats only with group_by
        with pytest.raises(ValueError):
            QueryRequest(table="events", time_range=(0, 10)).validate()
        QueryRequest(op="stats", group_by="Quarter", column="Delay").validate()

    def test_wire_round_trip(self):
        req = request_from_wire(
            {
                "table": "mentions",
                "op": "sum",
                "column": "Delay",
                "where": ["Delay > 96", "Confidence >= 20"],
                "time_range": [10, 20],
                "deadline_s": 1.5,
                "id": "q7",
            }
        )
        assert req.id == "q7"
        assert req.column == "Delay"
        assert req.time_range == (10, 20)
        assert req.deadline_s == 1.5
        assert "Delay" in req.where.columns()
        assert "Confidence" in req.where.columns()

    def test_wire_rejects_garbage(self):
        with pytest.raises(ValueError):
            request_from_wire([1, 2])
        with pytest.raises(ValueError):
            request_from_wire({"where": ["import os"]})
        with pytest.raises(ValueError):
            request_from_wire({"time_range": [1]})

    def test_response_wire_form_listifies_numpy(self):
        resp = QueryResponse(status="ok", id="x", value=np.arange(3))
        wire = resp.to_wire()
        assert wire["value"] == [0, 1, 2]
        assert json.dumps(wire)  # JSON-safe end to end


class TestServiceCorrectness:
    def test_count_matches_direct(self, service, tiny_store):
        resp = service.query("mentions", op="count")
        assert resp.ok
        assert resp.value == _direct_count(tiny_store)

    def test_filtered_count_matches_direct(self, service, tiny_store):
        pred = parse_predicate("Delay > 96")
        resp = service.query("mentions", op="count", where=pred)
        assert resp.ok
        assert resp.value == _direct_count(tiny_store, pred)

    def test_group_count_byte_identical(self, service, tiny_store):
        expected = tiny_store.query("mentions").group_by("SourceCountry").count()
        resp = service.query("mentions", op="count", group_by="SourceCountry")
        assert resp.ok
        assert resp.value.tobytes() == expected.value.tobytes()

    def test_sum_and_mean_match_direct(self, service, tiny_store):
        pred = col("Confidence") >= 20
        q = tiny_store.query("mentions").filter(pred)
        s = service.query("mentions", op="sum", column="Delay", where=pred)
        m = service.query("mentions", op="mean", column="Delay", where=pred)
        # Integer column: float partial sums are exact, so equality holds
        # no matter how the batch was morselized.
        assert s.value == q.sum("Delay").value
        assert m.value == pytest.approx(q.mean("Delay").value, rel=0, abs=0)

    def test_grouped_stats_match_direct(self, service, tiny_store):
        expected = (
            tiny_store.query("mentions").group_by("Quarter").stats("Delay").value
        )
        resp = service.query(
            "mentions", op="stats", column="Delay", group_by="Quarter"
        )
        assert resp.ok
        for key in ("min", "max", "mean", "median"):
            np.testing.assert_array_equal(resp.value[key], expected[key])

    def test_time_range_matches_direct(self, service, tiny_store):
        expected = tiny_store.query("mentions").time_range(100, 5000).count().value
        resp = service.query("mentions", op="count", time_range=(100, 5000))
        assert resp.ok and resp.value == expected

    def test_unknown_column_is_error_response(self, service):
        resp = service.query("mentions", op="sum", column="NoSuchColumn")
        assert resp.status == "error"
        assert resp.reason == ErrorCode.BAD_REQUEST
        assert "NoSuchColumn" in resp.error

    def test_unknown_filter_column_is_error_response(self, service):
        resp = service.query(
            "mentions", op="count", where=col("Bogus") > 1
        )
        assert resp.status == "error"
        assert resp.reason == ErrorCode.BAD_REQUEST
        assert "Bogus" in resp.error

    def test_bad_request_is_error_response(self, service):
        resp = service.query("mentions", op="median")
        assert resp.status == "error"
        assert resp.reason == ErrorCode.BAD_REQUEST

    def test_unknown_group_key_is_bad_request(self, service):
        resp = service.query("mentions", op="count", group_by="NoSuchKey")
        assert resp.status == "error"
        assert resp.reason == ErrorCode.BAD_REQUEST
        assert "NoSuchKey" in resp.error

    def test_events_table_served(self, service, tiny_store):
        expected = tiny_store.query("events").count().value
        resp = service.query("events", op="count")
        assert resp.ok and resp.value == expected


class TestLocalServedParity:
    """``store.query()`` and ``QueryService`` run one path: same bytes,
    same plan accounting, same result-cache behaviour."""

    @pytest.mark.parametrize("shape", ["count", "grouped_stats", "time_range"])
    def test_same_values_plans_and_cache_status(self, tiny_zstore, shape):
        store = tiny_zstore
        iv = store.mentions["MentionInterval"]
        lo, hi = int(iv.min()), int(iv.max()) + 1
        where = col("MentionInterval") < lo + (hi - lo) // 3
        local = store.query("mentions")
        kw: dict = {"op": "count", "where": where}
        if shape == "time_range":
            lo += (hi - lo) // 6
            local = local.time_range(lo, hi)
            kw["time_range"] = (lo, hi)
        local = local.filter(where)

        def run_local():
            if shape == "grouped_stats":
                res = local.group_by("Quarter").stats("Delay")
            else:
                res = local.count()
            plan = res.plan
            return res.value, plan.cache_status, {
                "pruning": plan.pruning,
                "chunks_total": plan.n_chunks_total,
                "chunks_pruned": plan.n_chunks_pruned,
                "chunks_full": plan.n_chunks_full,
                "rows_planned": plan.rows_planned,
            }

        if shape == "grouped_stats":
            kw.update(op="stats", column="Delay", group_by="Quarter")
        result_cache().invalidate()
        local_runs = [run_local(), run_local()]
        result_cache().invalidate()
        with QueryService(store, workers=1) as svc:
            served = [svc.query("mentions", **kw) for _ in range(2)]
        result_cache().invalidate()

        assert all(r.ok for r in served)
        assert [c for _, c, _ in local_runs] == ["miss", "hit"]
        assert [r.stats["cache"] for r in served] == ["miss", "hit"]
        for (value, _, plan), resp in zip(local_runs, served):
            assert json.dumps(jsonable(value)) == json.dumps(jsonable(resp.value))
            assert plan == {k: resp.stats[k] for k in plan}
        assert local_runs[0][2]["chunks_pruned"] > 0


class TestSingleFlight:
    def test_identical_concurrent_requests_scan_once(self, tiny_store):
        pred = parse_predicate("Delay > 48")
        with QueryService(tiny_store, workers=2, max_batch=16) as svc:
            result_cache().invalidate()
            before = svc.stats()["scans"]
            with OpsServer(svc) as ops:
                pendings = [
                    svc.submit(
                        QueryRequest(table="mentions", op="count", where=pred)
                    )
                    for _ in range(24)
                ]
                # Scrape while the burst is outstanding: the ops plane
                # answers a busy service, not only an idle one.
                url = f"http://{ops.host}:{ops.port}/metrics"
                with urllib.request.urlopen(url, timeout=10.0) as resp:
                    assert resp.status == 200
                    scrape = resp.read().decode()
                responses = [p.result(timeout=30.0) for p in pendings]
            stats = svc.stats()
        assert "repro_serve_queue_depth" in scrape
        assert all(r.ok for r in responses)
        assert len({r.value for r in responses}) == 1
        assert responses[0].value == _direct_count(tiny_store, pred)
        # The heart of the feature: N identical in-flight requests cost
        # exactly one scan; the rest were deduplicated or cache hits.
        assert stats["scans"] - before == 1
        assert stats["dedup_hits"] + stats["cache_hits"] >= len(pendings) - 1
        assert any(r.stats.get("deduped") for r in responses)

    def test_many_takers_resolve_every_request_once(self, tiny_store):
        preds = [parse_predicate(f"Delay > {8 * k}") for k in range(6)]
        expected = [_direct_count(tiny_store, p) for p in preds]
        n = 240
        pendings: list = [None] * n
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # More workers than cores, all taking from one admission queue.
            with QueryService(tiny_store, workers=4, max_batch=4) as svc:
                result_cache().invalidate()

                def client(first):
                    for i in range(first, n, 4):
                        pendings[i] = svc.submit(
                            QueryRequest(
                                table="mentions", op="count", where=preds[i % 6]
                            )
                        )

                clients = [
                    threading.Thread(target=client, args=(k,)) for k in range(4)
                ]
                for t in clients:
                    t.start()
                svc.kill_worker()
                for t in clients:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in clients)
                responses = [p.result(timeout=30.0) for p in pendings]
                assert svc.admission.wait_idle(5.0)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(switch)
        assert [r.value for r in responses] == [expected[i % 6] for i in range(n)]
        assert stats["ok"] == n
        # Every request was answered exactly one way.
        assert stats["scans"] + stats["dedup_hits"] + stats["cache_hits"] == n
        assert stats["worker_revives"] >= 1

    def test_distinct_requests_batch_into_shared_scans(self, tiny_store):
        preds = [parse_predicate(f"Delay > {16 * i}") for i in range(1, 7)]
        expected = [_direct_count(tiny_store, p) for p in preds]
        with QueryService(tiny_store, workers=1, max_batch=16) as svc:
            result_cache().invalidate()
            pendings = [
                svc.submit(QueryRequest(table="mentions", op="count", where=p))
                for p in preds
            ]
            responses = [p.result(timeout=30.0) for p in pendings]
            stats = svc.stats()
        assert [r.value for r in responses] == expected
        # One worker + one burst: fewer dispatches than requests proves
        # the runner fused compatible scans.
        assert stats["batches"] < len(preds)
        assert any(r.stats["batch_size"] > 1 for r in responses)


class TestOverloadAndFaults:
    def test_short_deadlines_shed_under_slow_faults(self, tiny_store):
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="slow", prob=1.0, delay_s=0.02,
                    fail_attempts=10**6,
                ),
            ),
        )
        with faults.active(plan):
            with QueryService(tiny_store, workers=1, max_queue=4, max_batch=1) as svc:
                # Teach the EWMA how slow requests are right now.
                first = svc.query("mentions", op="count")
                assert first.ok
                pendings = [
                    svc.submit(
                        QueryRequest(
                            table="mentions", op="count",
                            where=parse_predicate(f"Delay > {i}"),
                            deadline_s=0.001,
                        )
                    )
                    for i in range(32)
                ]
                responses = [p.result(timeout=30.0) for p in pendings]
                stats = svc.stats()
        # Overload must shed, and everything must resolve (no hangs).
        assert all(r.status in ("ok", "shed") for r in responses)
        shed = [r for r in responses if r.status == "shed"]
        assert shed, f"no sheds under overload: {stats}"
        assert all(r.reason in ("RETRY_AFTER", "QUEUE_FULL") for r in shed)
        assert all(r.retry_after_s > 0 for r in shed)

    def test_abort_fault_becomes_error_response(self, tiny_store):
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="abort", key="doomed",
                ),
            ),
        )
        with faults.active(plan):
            with QueryService(tiny_store, workers=1) as svc:
                bad = QueryRequest(table="mentions", op="count")
                bad.id = "doomed"
                resp = svc.submit(bad).result(timeout=30.0)
                ok = svc.query("mentions", op="count")
        assert resp.status == "error"
        assert resp.reason is None  # a crash is the service's fault, not the request's
        assert "InjectedCrash" in resp.error
        assert ok.ok  # the service survived the injected crash

    def test_chaos_plan_slow_serving_is_harmless(self, tiny_store):
        with faults.active(faults.chaos_plan()):
            with QueryService(tiny_store, workers=2) as svc:
                responses = [
                    svc.query("mentions", op="count") for _ in range(8)
                ]
        assert all(r.ok for r in responses)
        assert len({r.value for r in responses}) == 1


class TestLifecycle:
    def test_drain_resolves_everything(self, tiny_store):
        svc = QueryService(tiny_store, workers=2)
        pendings = [
            svc.submit(
                QueryRequest(
                    table="mentions", op="count",
                    where=parse_predicate(f"Delay > {i}"),
                )
            )
            for i in range(16)
        ]
        svc.close(drain=True, timeout=30.0)
        assert all(p.done() for p in pendings)
        assert all(p.result(0).ok for p in pendings)

    def test_submit_after_close_sheds_shutting_down(self, tiny_store):
        svc = QueryService(tiny_store, workers=1)
        svc.close()
        resp = svc.submit(QueryRequest(table="mentions", op="count"))
        assert resp.done()
        r = resp.result(0)
        assert r.status == "shed" and r.reason == "SHUTTING_DOWN"

    def test_close_is_idempotent(self, tiny_store):
        svc = QueryService(tiny_store, workers=1)
        svc.close()
        svc.close()

    def test_result_timeout_raises(self, tiny_store):
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="slow", prob=1.0, delay_s=0.2,
                    fail_attempts=10**6,
                ),
            ),
        )
        with faults.active(plan):
            with QueryService(tiny_store, workers=1) as svc:
                pending = svc.submit(QueryRequest(table="mentions", op="count"))
                with pytest.raises(TimeoutError):
                    pending.result(timeout=0.01)
                assert pending.result(timeout=30.0).ok  # still resolves


class TestMetricsAndProfile:
    def test_serving_populates_registry(self, tiny_store):
        obs.enable()
        obs.reset()
        try:
            with QueryService(tiny_store, workers=1) as svc:
                assert svc.query("mentions", op="count").ok
            names = {m.name for m in obs.registry().series()}
        finally:
            obs.disable()
            obs.reset()
        assert "serve_requests_total" in names
        assert "serve_exec_seconds" in names
        assert "serve_queue_delay_seconds" in names

    def test_profile_shape(self, service):
        assert service.query("mentions", op="count").ok
        prof = service.profile()
        assert prof["kind"] == "service_profile"
        assert prof["config"]["workers"] == 2
        stats = prof["stats"]
        assert stats["ok"] >= 1
        assert set(stats["latency"]) == {"p50", "p95", "p99"}
        assert json.dumps(prof)  # JSON-ready


class TestSocketServer:
    def test_ping_stats_and_query(self, service, tiny_store):
        with ServeServer(service, port=0) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.ping()
                resp = client.query(
                    table="mentions", op="count", where="Delay > 96"
                )
                assert resp["status"] == "ok"
                assert resp["value"] == _direct_count(
                    tiny_store, parse_predicate("Delay > 96")
                )
                prof = client.stats()
                assert prof["kind"] == "service_profile"

    def test_remote_unparsable_predicate_names_its_reason(self, service):
        """A predicate the server cannot parse is refused before it reaches
        the service, and ``repro.connect`` callers still get its reason."""
        from repro.serve.remote import RemoteError, connect

        with ServeServer(service, port=0) as server:
            with connect(("127.0.0.1", server.port)) as store:
                with pytest.raises(RemoteError, match="cannot parse") as err:
                    store.query("mentions").filter(col("No Such") > 3).count()
        assert err.value.reason == "BAD_REQUEST"

    def test_malformed_lines_get_error_replies(self, service):
        with ServeServer(service, port=0) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10.0
            ) as conn:
                reader = conn.makefile("rb")
                conn.sendall(b"this is not json\n")
                assert json.loads(reader.readline())["status"] == "error"
                conn.sendall(b'{"kind": "nope"}\n')
                assert json.loads(reader.readline())["status"] == "error"
                conn.sendall(b'{"op": "launch_missiles"}\n')
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                # The connection survives bad requests.
                conn.sendall(b'{"kind": "ping"}\n')
                assert json.loads(reader.readline())["pong"] is True

    def test_32_concurrent_clients_match_direct_results(self, tiny_store):
        n_clients = 32
        pred_text = "Confidence >= 20"
        expected_total = _direct_count(tiny_store)
        expected_filtered = _direct_count(tiny_store, parse_predicate(pred_text))
        expected_group = (
            tiny_store.query("mentions").group_by("Quarter").count().value
        )
        failures: list[str] = []
        barrier = threading.Barrier(n_clients)

        def run_client(port: int, cid: int) -> None:
            try:
                with ServeClient("127.0.0.1", port, client_id=f"c{cid}") as cl:
                    barrier.wait(timeout=30.0)
                    total = cl.query(table="mentions", op="count")
                    filtered = cl.query(
                        table="mentions", op="count", where=pred_text
                    )
                    grouped = cl.query(
                        table="mentions", op="count", group_by="Quarter"
                    )
                for name, resp, want in (
                    ("total", total, expected_total),
                    ("filtered", filtered, expected_filtered),
                    ("grouped", grouped, list(expected_group)),
                ):
                    if resp.get("status") != "ok" or resp.get("value") != want:
                        failures.append(f"c{cid} {name}: {resp}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"c{cid}: {type(exc).__name__}: {exc}")

        with QueryService(tiny_store, workers=4, max_queue=512) as svc:
            with ServeServer(svc, port=0) as server:
                threads = [
                    threading.Thread(
                        target=run_client, args=(server.port, i), daemon=True
                    )
                    for i in range(n_clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                stats = svc.stats()
        assert not failures, failures[:5]
        assert stats["ok"] == 3 * n_clients
        # Identical concurrent queries from 32 clients collapse far
        # below one scan each.
        assert stats["scans"] + stats["cache_hits"] + stats["dedup_hits"] == 3 * n_clients
        assert stats["scans"] < 3 * n_clients

    def test_client_retry_honours_shed_hint(self, tiny_store):
        with QueryService(
            tiny_store, workers=1, rate_limit=50.0, burst=1.0
        ) as svc:
            with ServeServer(svc, port=0) as server:
                with ServeClient(
                    "127.0.0.1", server.port, client_id="retry-me"
                ) as client:
                    first = client.query(table="mentions", op="count")
                    assert first["status"] == "ok"
                    # Bucket now empty: an immediate retry-less call sheds...
                    second = client.query(table="mentions", op="count")
                    assert second["status"] == "shed"
                    assert second["reason"] == "RATE_LIMITED"
                    assert second["retry_after_s"] > 0
                    # ...and the retrying call waits it out and succeeds.
                    third = client.query(
                        table="mentions", op="count", retries=3
                    )
                    assert third["status"] == "ok"

    def test_close_wakes_the_accept_thread(self, service):
        """Closing an idle server returns at once and its accept thread
        has exited: closing the listening socket alone left accept()
        blocked until close() gave up joining after 5 s."""
        server = ServeServer(service, port=0)
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 1.0
        assert not server._accept_thread.is_alive()


class TestProtocolRobustness:
    """Hostile/broken wire input: every reply is a clean, coded error —
    never a server traceback — and the server keeps serving."""

    @staticmethod
    def _raw(server):
        return socket.create_connection(("127.0.0.1", server.port), timeout=10.0)

    def test_garbage_and_truncated_frames_get_coded_errors(self, service):
        with ServeServer(service, port=0) as server:
            with self._raw(server) as conn:
                reader = conn.makefile("rb")
                for payload in (
                    b"\x00\xffbinary trash",
                    b'{"kind": "query", "table":',  # truncated mid-object
                    b"[1, 2, 3]",                   # JSON but not an object
                    b'"just a string"',
                    b'{"kind": "teleport"}',        # unknown verb
                    b'{"kind": "hello"}',           # no handshake verb either
                    b'{"kind": "query", "op": "launch"}',  # bad request
                ):
                    conn.sendall(payload + b"\n")
                    reply = json.loads(reader.readline())
                    assert reply["status"] == "error", payload
                    assert reply["reason"] == "BAD_REQUEST", payload
                    assert "Traceback" not in reply.get("error", ""), payload
                # The connection survived all of it.
                conn.sendall(b'{"kind": "ping"}\n')
                assert json.loads(reader.readline())["pong"] is True

    def test_oversized_line_rejected_then_closed(self, service):
        from repro.serve.server import MAX_LINE_BYTES

        with ServeServer(service, port=0) as server:
            with self._raw(server) as conn:
                reader = conn.makefile("rb")
                blob = b'{"kind": "query", "pad": "' + b"a" * MAX_LINE_BYTES
                conn.sendall(blob + b'"}\n')
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert reply["reason"] == "BAD_REQUEST"
                assert reader.readline() == b""  # server closed the line
            # ...but the server itself is still accepting.
            with self._raw(server) as conn2:
                reader2 = conn2.makefile("rb")
                conn2.sendall(b'{"kind": "ping"}\n')
                assert json.loads(reader2.readline())["pong"] is True

    def test_abrupt_disconnect_mid_request_is_harmless(self, service):
        with ServeServer(service, port=0) as server:
            for _ in range(3):
                conn = self._raw(server)
                conn.sendall(b'{"kind": "query", "table": "mentions", '
                             b'"op": "count"}\n')
                conn.close()  # hang up without reading the reply
            with self._raw(server) as conn:
                reader = conn.makefile("rb")
                conn.sendall(b'{"kind": "ping"}\n')
                assert json.loads(reader.readline())["pong"] is True

    def test_unexpected_internal_failure_is_coded(self, tiny_store):
        svc = QueryService(tiny_store, workers=1)
        try:
            with ServeServer(svc, port=0) as server:
                svc.profile = None  # force a TypeError inside _handle_line
                with self._raw(server) as conn:
                    reader = conn.makefile("rb")
                    conn.sendall(b'{"kind": "stats"}\n')
                    reply = json.loads(reader.readline())
                    assert reply["status"] == "error"
                    assert reply["reason"] == "INTERNAL"
                    assert "Traceback" not in reply["error"]
                    # The connection survives an internal error too.
                    conn.sendall(b'{"kind": "ping"}\n')
                    assert json.loads(reader.readline())["pong"] is True
        finally:
            svc.close(drain=False)


class TestDeadlinesAndBreakers:
    def test_deadline_cancel_sheds_and_frees_the_worker(self, tiny_store):
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="slow", key="doomed-*",
                    prob=1.0, delay_s=0.05, fail_attempts=10**6,
                ),
            ),
        )
        with faults.active(plan):
            with QueryService(tiny_store, workers=1, max_batch=1) as svc:
                req = QueryRequest(
                    table="mentions", op="count", deadline_s=0.01
                )
                req.id = "doomed-1"
                resp = svc.submit(req).result(timeout=30.0)
                after = svc.query("mentions", op="count")
                stats = svc.stats()
        assert resp.status == "shed"
        assert resp.reason == "DEADLINE_EXCEEDED"
        assert resp.retry_after_s > 0
        assert stats["deadline_cancelled"] >= 1
        assert stats["shed_reasons"].get("DEADLINE_EXCEEDED", 0) >= 1
        # The worker survived the cancellation and kept serving.
        assert after.ok and stats["alive_workers"] == 1

    def test_patient_deadline_is_met_despite_slow_fault(self, tiny_store):
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="slow", key="patient-*",
                    prob=1.0, delay_s=0.02, fail_attempts=10**6,
                ),
            ),
        )
        with faults.active(plan):
            with QueryService(tiny_store, workers=1) as svc:
                req = QueryRequest(
                    table="mentions", op="count", deadline_s=30.0
                )
                req.id = "patient-1"
                resp = svc.submit(req).result(timeout=30.0)
        assert resp.ok
        assert resp.value == _direct_count(tiny_store)

    def test_execute_breaker_opens_then_sheds_circuit_open(self, tiny_store):
        from repro.serve import BreakerBoard

        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="abort", key="boom-*",
                ),
            ),
        )
        board = BreakerBoard(failure_threshold=2, cooldown_s=60.0)
        with faults.active(plan):
            with QueryService(tiny_store, workers=1, breakers=board) as svc:
                for i in range(2):
                    req = QueryRequest(table="mentions", op="count")
                    req.id = f"boom-{i}"
                    assert svc.submit(req).result(timeout=30.0).status == "error"
                shed = svc.submit(
                    QueryRequest(table="mentions", op="count")
                ).result(timeout=30.0)
                stats = svc.stats()
        assert shed.status == "shed"
        assert shed.reason == "CIRCUIT_OPEN"
        assert shed.retry_after_s > 0
        assert stats["breakers"]["execute"]["state"] == "open"
        assert stats["shed_reasons"].get("CIRCUIT_OPEN", 0) >= 1

    def test_shed_responses_do_not_trip_the_breaker(self, tiny_store):
        from repro.serve import BreakerBoard

        board = BreakerBoard(failure_threshold=1)
        with QueryService(
            tiny_store, workers=1, rate_limit=1.0, burst=1.0, breakers=board
        ) as svc:
            assert svc.query("mentions", op="count").ok
            shed = svc.query("mentions", op="count")
            assert shed.status == "shed" and shed.reason == "RATE_LIMITED"
            # Admission sheds are not execution failures.
            assert svc.stats()["breakers"].get("execute", {}).get(
                "state", "closed"
            ) == "closed"

    def test_killed_worker_is_revived(self, tiny_store):
        with QueryService(tiny_store, workers=2) as svc:
            assert svc.query("mentions", op="count").ok
            svc.kill_worker()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if (
                    svc.alive_workers() == 2
                    and svc.stats()["worker_revives"] >= 1
                ):
                    break
                svc.query("mentions", op="count")
                time.sleep(0.01)
            stats = svc.stats()
            assert stats["worker_revives"] >= 1
            assert svc.alive_workers() == 2
            assert svc.query("mentions", op="count").ok

    def test_killed_sole_worker_restarts_without_traffic(self, tiny_store):
        with QueryService(tiny_store, workers=1) as svc:
            assert svc.query("mentions", op="count").ok
            svc.kill_worker()
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if (
                    svc.alive_workers() == 1
                    and svc.stats()["worker_revives"] >= 1
                ):
                    break
                time.sleep(0.01)
            assert svc.stats()["worker_revives"] >= 1
            assert svc.alive_workers() == 1
            assert svc.query("mentions", op="count").ok

    def test_pass_crash_outside_execute_resolves_what_it_took(
        self, tiny_store, monkeypatch
    ):
        with QueryService(tiny_store, workers=1) as svc:
            real = svc._attach_duplicate
            crashes = []

            def attach_once(pending, key):
                if not crashes:
                    crashes.append(pending)
                    raise RuntimeError("attach exploded")
                return real(pending, key)

            monkeypatch.setattr(svc, "_attach_duplicate", attach_once)
            resp = svc.submit(
                QueryRequest(table="mentions", op="count")
            ).result(timeout=5.0)
            assert resp.status == "error"
            assert "attach exploded" in resp.error
            assert svc.query("mentions", op="count").ok
            assert svc.stats()["worker_revives"] >= 1
            assert svc.admission.wait_idle(5.0)

    def test_workers_are_the_only_service_threads(self, tiny_store):
        from repro.views import ViewCatalog, ViewDefinition

        def with_views() -> QueryService:
            catalog = ViewCatalog(None)
            catalog.create(ViewDefinition(name="total", op="count"))
            # The lifecycle adopts (and on close releases) one reference.
            lifecycle = StoreLifecycle(tiny_store.retain(), views=catalog)
            return QueryService(lifecycle=lifecycle, views=catalog, workers=2)

        for make in (lambda: QueryService(tiny_store, workers=2), with_views):
            before = set(threading.enumerate())
            svc = make()
            try:
                assert svc.query("mentions", op="count").ok
                started = set(threading.enumerate()) - before
                assert sorted(t.name for t in started) == [
                    "serve-worker-0", "serve-worker-1",
                ]
            finally:
                svc.close()
                if svc.lifecycle is not None:
                    svc.lifecycle.close()
            assert not any(t.is_alive() for t in started)


class TestNonDrainClose:
    def test_close_without_drain_resolves_queued_as_shutting_down(
        self, tiny_store
    ):
        """Regression: drain=False must never strand a waiter forever."""
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="serve.request", kind="slow", prob=1.0,
                    delay_s=0.3, fail_attempts=10**6,
                ),
            ),
        )
        with faults.active(plan):
            svc = QueryService(tiny_store, workers=1, max_batch=1)
            pendings = [
                svc.submit(
                    QueryRequest(
                        table="mentions", op="count",
                        where=parse_predicate(f"Delay > {i}"),
                    )
                )
                for i in range(8)
            ]
            svc.close(drain=False, timeout=30.0)
        assert all(p.done() for p in pendings)
        responses = [p.result(0) for p in pendings]
        assert all(r.status in ("ok", "shed") for r in responses)
        shed = [r for r in responses if r.status == "shed"]
        assert shed, "nothing was abandoned — the test raced drain"
        assert all(r.reason == "SHUTTING_DOWN" for r in shed)
        assert all(r.retry_after_s > 0 for r in shed)


class TestClientBackoff:
    def test_next_backoff_floor_is_the_server_hint(self):
        import random as _random

        from repro.serve import next_backoff

        rng = _random.Random(7)
        prev = 0.0
        for _ in range(200):
            wait = next_backoff(0.05, prev or 0.05, 5.0, rng)
            assert 0.05 <= wait <= max(0.05, (prev or 0.05) * 3.0)
            prev = wait

    def test_next_backoff_respects_the_cap(self):
        import random as _random

        from repro.serve import next_backoff

        rng = _random.Random(3)
        assert next_backoff(10.0, 10.0, 0.5, rng) == 0.5

    def test_next_backoff_is_deterministic_under_seeded_rng(self):
        import random as _random

        from repro.serve import next_backoff

        a = [
            next_backoff(0.1, 0.1 * (i + 1), 5.0, _random.Random(99))
            for i in range(5)
        ]
        b = [
            next_backoff(0.1, 0.1 * (i + 1), 5.0, _random.Random(99))
            for i in range(5)
        ]
        assert a == b

    def test_retry_budget_caps_total_backoff(self, tiny_store, monkeypatch):
        """Scripted shed storm: the client must give up once the budget
        is spent, long before ``retries`` is exhausted."""
        import random as _random

        sleeps: list[float] = []
        calls = {"n": 0}
        with QueryService(tiny_store, workers=1) as svc:
            with ServeServer(svc, port=0) as server:
                with ServeClient(
                    "127.0.0.1", server.port, rng=_random.Random(42)
                ) as client:
                    def scripted_call(obj):
                        calls["n"] += 1
                        return {
                            "status": "shed",
                            "reason": "RATE_LIMITED",
                            "retry_after_s": 0.2,
                        }

                    monkeypatch.setattr(client, "call", scripted_call)
                    monkeypatch.setattr(
                        "repro.serve.client.time.sleep",
                        lambda s: sleeps.append(s),
                    )
                    resp = client.query(
                        table="mentions", op="count", retries=1000,
                        max_backoff_s=0.5, retry_budget_s=1.0,
                    )
        assert resp["status"] == "shed"
        assert sum(sleeps) <= 1.0
        # 1000 retries were allowed but the budget stopped it after a
        # handful (each sleep is at least the 0.2 s hint).
        assert 2 <= calls["n"] <= 7
        assert all(w >= 0.2 for w in sleeps)
