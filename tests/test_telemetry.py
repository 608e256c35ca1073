"""Live telemetry plane: flight recorder, SLO burn rates."""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

import repro.obs as obs
from repro.obs import metrics as _metrics
from repro.obs import telemetry
from repro.obs import trace as _trace
from repro.obs.telemetry import (
    FlightRecorder,
    SloObjective,
    SloTracker,
    default_serve_objectives,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    telemetry.flight().clear()
    yield
    obs.disable()
    obs.reset()
    telemetry.flight().clear()


# --- flight recorder ------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_but_counts_survive(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record("shed", reason="QUEUE_FULL", i=i)
        events = fr.events()
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert fr.counts() == {"shed": 10}

    def test_dump_includes_events_and_spans(self):
        _trace.tracer().add_complete("some.span", 100, 200)
        fr = FlightRecorder()
        fr.record("worker_death", wid=3, exitcode=-9)
        doc = fr.dump(reason="unit-test")
        assert doc["kind"] == "flight_dump"
        assert doc["reason"] == "unit-test"
        assert doc["pid"] == os.getpid()
        assert doc["event_counts"] == {"worker_death": 1}
        assert doc["events"][0]["wid"] == 3
        assert [s["name"] for s in doc["recent_spans"]] == ["some.span"]

    def test_dump_to_writes_json(self, tmp_path):
        fr = FlightRecorder()
        fr.record("fault", site="scan", fault_kind="transient")
        path = tmp_path / "flight.json"
        fr.dump_to(path, reason="disk")
        doc = json.loads(path.read_text())
        assert doc["reason"] == "disk"
        assert doc["events"][0]["site"] == "scan"

    def test_sigusr1_dump(self, tmp_path):
        target = tmp_path / "sig.json"
        telemetry.flight().record("shed", reason="RATE_LIMITED")
        previous = telemetry.install_signal_dump(target)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.monotonic() + 5.0
            while not target.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        doc = json.loads(target.read_text())
        assert doc["event_counts"] == {"shed": 1}
        assert "signal" in doc["reason"]


# --- SLO burn rates -------------------------------------------------------------


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def make_tracker(clock, **kw) -> SloTracker:
    kw.setdefault(
        "objectives",
        (
            SloObjective("availability", target=0.999),
            SloObjective("latency", target=0.99, latency_threshold_s=0.5),
        ),
    )
    kw.setdefault("windows", (60.0, 300.0))
    return SloTracker(clock=clock, **kw)


class TestSloTracker:
    def test_idle_service_burns_nothing(self):
        t = make_tracker(FakeClock())
        rates = t.burn_rates()
        assert rates["latency"] == {"60s": 0.0, "300s": 0.0}
        assert t.healthy()

    def test_fast_traffic_within_budget(self):
        clock = FakeClock()
        t = make_tracker(clock)
        for _ in range(500):
            t.observe(0.01)
        assert t.burn_rates()["latency"]["60s"] == 0.0
        assert t.breaches() == []

    def test_latency_breach_drives_burn_above_one(self):
        clock = FakeClock()
        t = make_tracker(clock)
        # 10% of requests slower than the 0.5s threshold; budget is 1%,
        # so the burn rate is 10x in every window -> breach.
        for i in range(100):
            t.observe(1.2 if i % 10 == 0 else 0.01)
        rates = t.burn_rates()["latency"]
        assert rates["60s"] > 1.0
        assert rates["300s"] > 1.0
        assert t.breaches() == ["latency"]
        assert not t.healthy()

    def test_errors_burn_availability(self):
        t = make_tracker(FakeClock())
        for _ in range(10):
            t.observe(None, error=True)
        assert set(t.breaches()) == {"availability", "latency"}

    def test_short_window_recovers_first(self):
        clock = FakeClock()
        t = make_tracker(clock)
        for _ in range(50):
            t.observe(2.0)  # saturate both windows
        assert t.breaches() == ["latency"]
        # 90 seconds of clean traffic: the 60s window no longer sees the
        # bad epoch, the 300s window still does -> breach clears (multi-
        # window rule requires ALL windows above threshold).
        clock.advance(90.0)
        for _ in range(200):
            t.observe(0.01)
        rates = t.burn_rates()["latency"]
        assert rates["60s"] <= 1.0
        assert rates["300s"] > 0.0
        assert t.breaches() == []

    def test_old_epochs_age_out_entirely(self):
        clock = FakeClock()
        t = make_tracker(clock)
        for _ in range(50):
            t.observe(2.0)
        clock.advance(400.0)  # beyond the longest window
        assert t.burn_rates()["latency"] == {"60s": 0.0, "300s": 0.0}

    def test_update_gauges_publishes_burn_rates(self):
        t = make_tracker(FakeClock())
        for _ in range(20):
            t.observe(2.0)
        t.update_gauges()
        g = _metrics.gauge("slo_burn_rate", slo="latency", window="60s")
        assert g.value > 1.0

    def test_snapshot_shape(self):
        t = make_tracker(FakeClock())
        t.observe(0.01)
        t.observe(3.0)
        snap = t.snapshot()
        assert snap["total_good"] == 1
        assert snap["total_bad"] == 1
        names = [o["name"] for o in snap["objectives"]]
        assert names == ["availability", "latency"]
        assert snap["windows_s"] == [60.0, 300.0]

    def test_default_objectives_respect_cli_knobs(self):
        objs = default_serve_objectives(latency_threshold_s=0.1, target=0.95)
        by_name = {o.name: o for o in objs}
        assert by_name["latency"].latency_threshold_s == 0.1
        assert by_name["latency"].target == 0.95
        # availability keeps a floor stricter than the latency target
        assert by_name["availability"].target >= 0.999

    def test_thread_safety_of_observe(self):
        t = make_tracker(time.monotonic, windows=(60.0,))
        barrier = threading.Barrier(8)
        errors: list[Exception] = []

        def worker():
            try:
                barrier.wait()
                for _ in range(500):
                    t.observe(0.01)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert t.total_good == 8 * 500
