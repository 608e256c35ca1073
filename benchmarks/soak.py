#!/usr/bin/env python3
"""Chaos soak: a live server hot-reloading under concurrent load + faults.

The robustness acceptance run.  It stands up a *real* server — socket
front end, ops plane, SIGHUP handler — over a raw GDELT mirror followed
live, then simultaneously:

* hammers it with concurrent socket clients (mixed count / filtered /
  grouped queries, deadlines and retries on);
* drops new archive batches into the mirror and sends the process
  ``SIGHUP``, forcing validated hot reloads *while the load runs*;
* sends a stream of doomed short-deadline requests that an injected
  ``serve.request`` slow fault pushes past their budget, proving
  deadline cancellation frees workers instead of wedging them;
* kills one service worker mid-run and expects supervision to revive it.

Hard assertions at the end:

* >= 1 successful hot reload published under load (``repro_reload_total``);
* zero non-shed request failures (every response is ``ok`` or ``shed``);
* zero cross-generation result mixing — every unfiltered count response
  is checked byte-for-byte against the row count of the exact generation
  that served it (``stats.store_gen`` vs the lifecycle history);
* >= 1 deadline-cancelled query, with all workers back in service after
  (``/varz`` worker counts, ``serve_worker_revives_total``);
* bounded p99 during reload windows;
* every archive dropped into the mirror is in the final generation
  (follower rows == corpus rows, nothing quarantined) although the chaos
  plan fails 15% of first archive reads — the follower retried them
  (``repro_ingest_retries_total`` >= 1 in the scraped ``/metrics``);
* ``repro_breaker_state`` exported and closed (0) after the run.

Emits ``benchmarks/out/BENCH_soak.json`` and a flight-recorder dump at
``benchmarks/out/soak_flight.json``.  Both are CI artifacts for reading
after a failure, not inputs to any later check: the assertions above
are the whole gate, and no baseline is compared.

Run:  REPRO_FAULTS=chaos PYTHONPATH=src python benchmarks/soak.py
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import random
import re
import shutil
import signal
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro import faults
from repro.faults.plan import FaultPlan, FaultSpec, chaos_plan
from repro.ingest.stream import LiveFollower
from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import SloTracker, default_serve_objectives
from repro.serve import (
    BreakerBoard,
    OpsServer,
    QueryService,
    ServeClient,
    ServeServer,
    StoreLifecycle,
)
from repro.synth import SynthConfig, generate_dataset, write_raw_archives

OUT = Path(__file__).parent / "out" / "BENCH_soak.json"
FLIGHT_OUT = Path(__file__).parent / "out" / "soak_flight.json"

#: Deadline the doomed requests carry; the injected slow fault sleeps
#: longer than this, so every one of them *must* be deadline-cancelled.
DOOMED_DEADLINE_S = 0.02
DOOMED_DELAY_S = 0.06

#: Generous p99 ceiling during a reload window (tiny data; anything
#: near this means the swap blocked the serving path).
RELOAD_P99_CEILING_S = 2.0


def build_mirror(root: Path) -> tuple[Path, list[str], dict[str, int]]:
    """Synth a raw GDELT mirror; stage 40% of archives, hold the rest.

    Returns the staged directory, the held-back archive paths and the
    corpus row counts (what the follower must hold once all have landed).

    The staged directory gets the *full* master list up front (missing
    archives are retried every poll, exactly like a laggy GDELT upload);
    the held-back archive files are what the soak drops in later rounds.
    """
    full = root / "full"
    stage = root / "mirror"
    stage.mkdir()
    ds = generate_dataset(
        SynthConfig(seed=11, n_sources=120, n_events=2500,
                    end=dt.datetime(2015, 5, 15))
    )
    write_raw_archives(ds, full, chunk_intervals=96)
    master = (full / "masterfilelist.txt").read_text()
    (stage / "masterfilelist.txt").write_text(master)
    names = [
        line.split(" ")[2].rsplit("/", 1)[-1]
        for line in master.splitlines() if line.strip()
    ]
    cut = max(1, int(len(names) * 0.4))
    for name in names[:cut]:
        shutil.copy(full / name, stage / name)
    held = names[cut:]
    print(f"mirror: {cut}/{len(names)} archives staged, {len(held)} held back")
    rows = {"events": int(ds.n_events), "mentions": int(ds.n_articles)}
    return stage, [str(full / n) for n in held], rows


class LoadGenerator:
    """Concurrent socket clients issuing a mixed query stream."""

    def __init__(self, port: int, n_clients: int):
        self.port = port
        self.stop = threading.Event()
        self.lock = threading.Lock()
        #: (status, latency_s, done_monotonic, store_gen, value, checkable_table)
        self.records: list[tuple] = []
        self.transport_errors = 0
        self.threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True,
                             name=f"soak-client-{i}")
            for i in range(n_clients)
        ]

    def start(self) -> None:
        for t in self.threads:
            t.start()

    def join(self) -> None:
        self.stop.set()
        for t in self.threads:
            t.join(timeout=10.0)

    def _run(self, idx: int) -> None:
        rng = random.Random(1000 + idx)
        try:
            client = ServeClient("127.0.0.1", self.port, timeout=30.0,
                                 client_id=f"soak-{idx}", rng=rng)
        except OSError:
            with self.lock:
                self.transport_errors += 1
            return
        with client:
            while not self.stop.is_set():
                roll = rng.random()
                kw: dict = {"deadline_s": 2.0, "retries": 2,
                            "max_backoff_s": 0.5, "retry_budget_s": 2.0}
                checkable = None
                if roll < 0.4:
                    kw.update(table="mentions", op="count")
                    checkable = "mentions"
                elif roll < 0.6:
                    kw.update(table="events", op="count")
                    checkable = "events"
                elif roll < 0.8:
                    kw.update(table="mentions", op="count",
                              where=["Delay > 96"])
                else:
                    kw.update(table="events", op="count",
                              group_by="Quarter")
                t0 = time.monotonic()
                try:
                    resp = client.query(**kw)
                except (OSError, ConnectionError, json.JSONDecodeError):
                    with self.lock:
                        self.transport_errors += 1
                    return
                t1 = time.monotonic()
                rec = (
                    resp.get("status"),
                    t1 - t0,
                    t1,
                    (resp.get("stats") or {}).get("store_gen"),
                    resp.get("value"),
                    checkable,
                )
                with self.lock:
                    self.records.append(rec)
                time.sleep(rng.uniform(0.0, 0.01))


class DoomedStream:
    """Short-deadline requests a keyed slow fault pushes past budget."""

    def __init__(self, port: int):
        self.port = port
        self.stop = threading.Event()
        self.sheds = 0
        self.others: list[dict] = []
        self.thread = threading.Thread(
            target=self._run, daemon=True, name="soak-doomed"
        )

    def _run(self) -> None:
        try:
            client = ServeClient("127.0.0.1", self.port, timeout=30.0,
                                 client_id="soak-doomed")
        except OSError:
            return
        seq = 0
        with client:
            while not self.stop.is_set():
                seq += 1
                try:
                    # The unique-per-request predicate keeps these out of
                    # single-flight dedup and the result cache: a doomed
                    # request must never ride a fast leader's response,
                    # and a well-behaved request must never follow a
                    # doomed leader into its deadline shed.
                    resp = client.call({
                        "kind": "query",
                        "table": "mentions",
                        "op": "count",
                        "where": [f"Delay > {100000 + seq}"],
                        "id": f"soak-deadline-{seq}",
                        "deadline_s": DOOMED_DEADLINE_S,
                    })
                except (OSError, ConnectionError, json.JSONDecodeError):
                    return
                if resp.get("status") == "shed":
                    self.sheds += 1
                else:
                    self.others.append(resp)
                time.sleep(0.1)


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10.0
    ) as resp:
        assert resp.status == 200, f"{path} -> {resp.status}"
        return resp.read().decode()


def metric_value(metrics_text: str, name: str) -> float:
    """Value of an unlabelled sample in a Prometheus scrape (0 if absent)."""
    m = re.search(rf"^{re.escape(name)} (\S+)$", metrics_text, re.MULTILINE)
    return float(m.group(1)) if m else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--duration", type=float, default=30.0,
                    help="soak wall-clock seconds (default 30)")
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--workers", type=int, default=3)
    ap.add_argument("--drops", type=int, default=4,
                    help="archive drop + SIGHUP reload rounds")
    args = ap.parse_args()

    # Chaos faults (env plan if set, else the standing chaos plan) plus
    # the keyed slow fault that dooms the short-deadline stream.
    base = FaultPlan.from_env() or chaos_plan()
    plan = FaultPlan(
        specs=base.specs + (
            FaultSpec(site="serve.request", kind="slow",
                      key="soak-deadline-*", prob=1.0,
                      delay_s=DOOMED_DELAY_S, fail_attempts=10**6),
        ),
        seed=base.seed,
    )
    faults.install(faults.FaultInjector(plan))
    obs.enable()

    tmp = Path(tempfile.mkdtemp(prefix="soak-"))
    try:
        return _soak(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _soak(args, tmp: Path) -> int:
    mirror, held, corpus_rows = build_mirror(tmp)

    follower = LiveFollower(mirror, verify_checksums=True)
    first = follower.poll()
    assert not first.idle, "staged mirror must have ingestible archives"
    breakers = BreakerBoard()
    lifecycle = StoreLifecycle(follower.snapshot(), follower=follower,
                               breakers=breakers)
    assert lifecycle.install_sighup(), "soak needs a SIGHUP-capable platform"
    service = QueryService(
        workers=args.workers,
        max_queue=512,
        max_batch=16,
        slo=SloTracker(default_serve_objectives(latency_threshold_s=1.0)),
        lifecycle=lifecycle,
        breakers=breakers,
    )
    server = ServeServer(service, port=0)
    ops = OpsServer(service)
    print(f"serving on :{server.port}, ops on :{ops.port}, "
          f"generation 1 ({lifecycle.current.n_rows('mentions')} mentions)")

    load = LoadGenerator(server.port, args.clients)
    doomed = DoomedStream(server.port)
    load.start()
    doomed.thread.start()

    # -- orchestration: periodic archive drops + SIGHUP reloads + a kill --
    t_start = time.monotonic()
    drop_every = args.duration / (args.drops + 1)
    batches = np.array_split(np.asarray(held, dtype=object), args.drops)
    reload_windows: list[tuple[float, float]] = []
    reloads_ok = reloads_failed = 0
    killed = False
    for round_no, batch in enumerate(batches, start=1):
        # Spread the drops across the soak; keep polling run_pending in
        # between so SIGHUP latency stays low.
        next_at = t_start + round_no * drop_every
        while time.monotonic() < next_at:
            lifecycle.run_pending()
            time.sleep(0.05)
        for src in batch:
            src = Path(src)
            shutil.copy(src, mirror / src.name)
        os.kill(os.getpid(), signal.SIGHUP)
        w0 = time.monotonic()
        result = None
        while result is None and time.monotonic() - w0 < 30.0:
            result = lifecycle.run_pending()
            if result is None:
                time.sleep(0.02)
        w1 = time.monotonic()
        reload_windows.append((w0, w1 + 0.5))
        assert result is not None, f"SIGHUP round {round_no} never reloaded"
        if result.ok and result.changed:
            reloads_ok += 1
            print(f"round {round_no}: +{len(batch)} archives -> "
                  f"generation {result.generation} ({result.rows}) "
                  f"in {result.elapsed_s:.3f}s under load")
        else:
            reloads_failed += 1
            print(f"round {round_no}: reload did not publish: {result.error}")
        if round_no == 2 and not killed:
            killed = True
            print("killing one service worker ...")
            service.kill_worker()
    # Let the tail of the load run against the final generation.
    t_end = t_start + args.duration
    while time.monotonic() < t_end:
        lifecycle.run_pending()
        time.sleep(0.05)

    varz = json.loads(scrape(ops.port, "/varz"))
    readyz = json.loads(scrape(ops.port, "/readyz"))
    metrics_text = scrape(ops.port, "/metrics")

    load.join()
    doomed.stop.set()
    doomed.thread.join(timeout=10.0)
    server.close()
    service.close(drain=True)
    ops.close()

    FLIGHT_OUT.parent.mkdir(exist_ok=True)
    _telemetry.flight().dump_to(FLIGHT_OUT, reason="soak")
    stats = service.stats()
    history = lifecycle.history()
    lifecycle.close()

    # -- verification ------------------------------------------------------
    expected = {e["generation"]: e["rows"] for e in history}
    statuses: dict[str, int] = {}
    mix_checked = mix_violations = 0
    ok_lat: list[tuple[float, float]] = []  # (done_at, latency)
    for status, latency, done_at, gen, value, checkable in load.records:
        statuses[status] = statuses.get(status, 0) + 1
        if status == "ok":
            ok_lat.append((done_at, latency))
            if checkable is not None:
                mix_checked += 1
                want = expected.get(gen, {}).get(checkable)
                if want is None or int(value) != int(want):
                    mix_violations += 1
                    print(f"MIX: gen={gen} {checkable} count={value}, "
                          f"expected {want}")

    p99_all = float(np.percentile([l for _, l in ok_lat], 99)) if ok_lat else 0.0
    in_reload = [
        l for t, l in ok_lat
        if any(w0 <= t <= w1 for w0, w1 in reload_windows)
    ]
    p99_reload = float(np.percentile(in_reload, 99)) if in_reload else 0.0

    report = {
        "duration_s": args.duration,
        "clients": args.clients,
        "workers": args.workers,
        "reloads": {"ok": reloads_ok, "failed": reloads_failed,
                    "final_generation": history[-1]["generation"]},
        "requests": {
            "total": len(load.records),
            **statuses,
            "transport_errors": load.transport_errors,
            "shed_reasons": stats["shed_reasons"],
        },
        "failures": {
            "errors": statuses.get("error", 0),
            "gen_mix_violations": mix_violations,
        },
        "gen_mix_checked": mix_checked,
        "deadline": {
            "doomed_sheds": doomed.sheds,
            "doomed_other": len(doomed.others),
            "cancelled": stats["deadline_cancelled"],
        },
        "worker": {
            "revives": stats["worker_revives"],
            "alive_at_scrape": varz["service"]["alive_workers"],
            "configured": args.workers,
        },
        "latency": {"p99_s": round(p99_all, 6),
                    "p99_reload_s": round(p99_reload, 6),
                    "reload_samples": len(in_reload)},
        "ingest": {
            "retries": metric_value(metrics_text, "repro_ingest_retries_total"),
            "problems": follower.report.total(),
            "final_rows": history[-1]["rows"],
            "corpus_rows": corpus_rows,
        },
        "breakers": stats["breakers"],
        "ready_at_end": readyz["ready"],
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"wrote {OUT} and {FLIGHT_OUT}")

    # -- hard acceptance ---------------------------------------------------
    assert reloads_ok >= 1, "no successful hot reload under load"
    assert statuses.get("error", 0) == 0, (
        f"non-shed request failures: {statuses}"
    )
    assert load.transport_errors == 0, (
        f"{load.transport_errors} client transport failures"
    )
    assert mix_checked > 0, "no generation-checkable responses observed"
    assert mix_violations == 0, (
        f"{mix_violations} cross-generation result mixes"
    )
    assert stats["deadline_cancelled"] >= 1 and doomed.sheds >= 1, (
        f"no deadline cancellations (stats={stats['deadline_cancelled']}, "
        f"doomed sheds={doomed.sheds})"
    )
    assert not doomed.others, (
        f"doomed requests escaped their deadline: {doomed.others[:3]}"
    )
    assert stats["worker_revives"] >= 1, "killed worker was not revived"
    assert varz["service"]["alive_workers"] == args.workers, (
        f"workers did not return to service: "
        f"{varz['service']['alive_workers']}/{args.workers}"
    )
    assert p99_reload <= RELOAD_P99_CEILING_S, (
        f"p99 during reload {p99_reload:.3f}s exceeds "
        f"{RELOAD_P99_CEILING_S}s"
    )
    # The follower reads through the retrying fetcher: the chaos plan's
    # transient fetch.read faults cost retries, never archives.
    assert report["ingest"]["retries"] >= 1, (
        "no fetch retry observed: the follower never reached fetch.read"
    )
    assert follower.report.total() == 0, (
        f"follower recorded problems: {follower.report}"
    )
    assert history[-1]["rows"] == corpus_rows, (
        f"final generation {history[-1]['rows']} is missing dropped "
        f"archives (corpus {corpus_rows})"
    )
    assert 'repro_reload_total{status="ok"}' in metrics_text, (
        "repro_reload_total not exported"
    )
    assert "repro_breaker_state" in metrics_text, (
        "repro_breaker_state not exported"
    )
    exec_state = stats["breakers"].get("execute", {}).get("state")
    assert exec_state == "closed", f"execute breaker ended {exec_state}"
    print(
        f"SOAK OK: {len(load.records)} requests "
        f"({statuses.get('ok', 0)} ok, {statuses.get('shed', 0)} shed), "
        f"{reloads_ok} hot reloads, {stats['deadline_cancelled']} deadline "
        f"cancellations, {stats['worker_revives']} worker revives, "
        f"0 errors, 0 generation mixes"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
