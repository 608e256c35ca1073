"""serve_hot — a hot, repetitive query mix against one server.

One ``repro-gdelt serve --views`` subprocess, two ``ServeClient``
connections, Zipf-distributed draws from a fixed pool of small-result
queries, some registered as views.  Phase 1 is a closed loop (sustainable
rate), phase 2 an open loop at one committed fixed rate (latency).  The
result cache, single-flight, view hits, admission and the LDJSON framing
do the work; the engine does little.  It uses the result cache the
opposite way to ``adhoc_scan``.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro.engine import GdeltStore
from repro.serve import ServeClient
from repro.views import ViewCatalog, ViewDefinition

import config
import harness
import queries
from workloads import Workload


def build_views(views_dir, wire: list[dict], ranks, store) -> None:
    """Register pool entries ``ranks`` as materialized views and build them."""
    catalog = ViewCatalog(views_dir)
    for rank in ranks:
        w = wire[rank]
        catalog.create(ViewDefinition(
            name=f"v{rank}", table=w["table"], op=w["op"],
            where=tuple(w.get("where", ())), group_by=w.get("group_by"),
        ))
    catalog.refresh(store)


def await_views(client: ServeClient, view_query: dict, timeout_s: float = 30.0) -> None:
    """Wait for the server's view refresher to make its views servable."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.query(**view_query).get("stats", {}).get("source") == "view":
            return
        time.sleep(0.02)
    raise RuntimeError("views never became servable")


class ServeHot(Workload):
    name = "serve_hot"
    ops_phase = "closed"
    lat_phase = "open"

    def setup(self) -> None:
        db = self.build_corpus()
        s = self.sizes
        pool = queries.hot_pool(self.rng, s.pool)
        self.wire = [queries.wire_kwargs(spec) for spec in pool]
        # Expected replies, computed on the local store before any server
        # exists; compared to every reply in both phases.
        store = GdeltStore.open(db, mode="mmap")
        self.expected = [
            harness.canonical(queries.run_fluent(store, spec).value)
            for spec in pool
        ]
        views_dir = self.work / "views"
        build_views(views_dir, self.wire, s.view_ranks, store)
        store.release()

        # The server on one core, the generator on another: left to roam,
        # the scheduler's placement decided the level of a whole repetition.
        self.cpus = os.sched_getaffinity(0)
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, {max(self.cpus)})
        self.server, host, port = harness.spawn_server([
            "serve", str(db), "--port", "0", "--workers", str(config.NPROC),
            "--views", str(views_dir),
        ])
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, {min(self.cpus)})
        self.clients = [ServeClient(host, port) for _ in range(config.NPROC)]
        for client in self.clients:  # fill the result cache
            for kw in self.wire:
                client.query(**kw)
        await_views(self.clients[0], self.wire[s.view_ranks[0]])

    def _make_op(self, draws: list):
        """``draws[i]`` is connection ``i``'s sequence of pool ranks."""
        def make(idx: int):
            client = self.clients[idx]
            mine = iter(draws[idx])
            tracer, wire, expected = self.tracer, self.wire, self.expected
            traced = tracer.enabled

            def op() -> bool:
                rank = next(mine)
                with tracer.span("op", "bench", op=self.next_op()):
                    with tracer.span("serve.client.query", "wire") as sp:
                        t0 = time.perf_counter()
                        resp = client.query(**wire[rank])
                        rtt = time.perf_counter() - t0
                if traced:
                    self._server_spans(sp, resp.get("stats") or {}, rtt)
                return resp.get("status") == "ok" and resp.get("value") == expected[rank]

            return op

        return make

    def _server_spans(self, sp, stats: dict, rtt: float) -> None:
        """Server-reported time becomes child spans of the round trip."""
        queue_s = float(stats.get("queue_delay_s", 0.0))
        exec_s = float(stats.get("exec_s", 0.0))
        if stats.get("source") == "view":
            layer = "views"
        elif stats.get("cache") == "hit":
            layer = "serve"
        else:
            layer = "engine"
        wire_s = max(rtt - queue_s - exec_s, 0.0)
        self.tracer.child(sp, "serve.queue", "serve", queue_s, offset=wire_s / 2)
        self.tracer.child(sp, "serve.exec", layer, exec_s, offset=wire_s / 2 + queue_s)

    def run(self, seconds: float) -> dict[str, harness.Phase]:
        s = self.sizes
        n = len(self.clients)
        closed_s = seconds * s.serve_closed_share
        open_s = seconds - closed_s
        # Every run of one seed replays the same draws and arrival times,
        # so a traced and an untraced pass see identical inputs.
        rng = np.random.default_rng([self.seed, 0x5E7])
        # Closed loop: a long pre-drawn Zipf sequence per connection.
        draws = [
            itertools.cycle(queries.zipf_draws(rng, s.pool, s.zipf_s, 1 << 16))
            for _ in range(n)
        ]
        closed = harness.closed_loop(n, closed_s, self._make_op(draws))
        # Open loop: independent Poisson arrivals, the rate split evenly.
        dues = [
            harness.poisson_schedule(rng, s.serve_open_rate / n, open_s)
            for _ in range(n)
        ]
        draws = [
            queries.zipf_draws(rng, s.pool, s.zipf_s, len(d)) for d in dues
        ]
        opened = harness.open_loop(dues, self._make_op(draws))
        return {"closed": closed, "open": opened}

    def children(self) -> list:
        return [self.server]

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        os.sched_setaffinity(0, self.cpus)
        super().teardown()
