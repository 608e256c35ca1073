"""shard_wide — wide answers through the scatter-gather tier.

A ``repro-gdelt shard-serve`` router subprocess over two shard
subprocesses, two ``repro.connect()`` callers in a closed loop; unique
time-windowed predicates (a third prune a whole shard) with wide answers
(``group_by("Source")``, thousands of groups).  Pruned scans are cheap,
so JSON encode/decode, ``RemoteStore`` revival, partial payloads and
``merge_parts`` dominate — the only workload where a binary wire, smaller
partials or replicas can show.
"""

from __future__ import annotations

import threading
import time

import repro
from repro.engine import GdeltStore
from repro.engine.planner import invalidate_cache
from repro.shard import split_dataset

import config
import harness
import queries
from workloads import Workload

N_SHARDS = 2


class ShardWide(Workload):
    name = "shard_wide"

    def setup(self) -> None:
        db = self.build_corpus()
        shard_dirs = split_dataset(
            db, self.work / "shards", N_SHARDS,
            zone_chunk_rows=self.sizes.zone_chunk_rows,
        )
        self.router, address, self.shards = harness.spawn_cluster(shard_dirs)
        self.stores = [repro.connect(address) for _ in range(config.NPROC)]
        self.stream = queries.wide_stream(self.rng, self.truth)
        for store in self.stores:  # shards build their group keys here
            for _ in range(4):
                queries.run_fluent(store, next(self.stream))
        self.kept: list[tuple[queries.Spec, object]] = []

    def run(self, seconds: float) -> dict[str, harness.Phase]:
        self.kept = []
        tracer, stream = self.tracer, self.stream
        every = self.sizes.recheck_every
        traced = tracer.enabled
        stream_lock = threading.Lock()  # one unique stream, two callers

        def make(idx: int):
            store = self.stores[idx]
            state = {"i": 0}

            def op() -> bool:
                with stream_lock:
                    spec = next(stream)
                with tracer.span("op", "bench", op=self.next_op()):
                    with tracer.span("serve.remote.query", "wire") as sp:
                        t0 = time.perf_counter()
                        res = queries.run_fluent(store, spec)
                        rtt = time.perf_counter() - t0
                stats = res.stats
                if traced:
                    route_s = float(stats.get("exec_s", 0.0))
                    merge_s = float(stats["merge_ms"]) / 1e3
                    offset = max(rtt - route_s, 0.0) / 2
                    route = tracer.child(sp, "shard.route", "shard", route_s, offset=offset)
                    tracer.child(
                        route, "shard.fanout_wait", "backend",
                        max(route_s - merge_s, 0.0),
                    )
                state["i"] += 1
                if state["i"] % every == 0:
                    self.kept.append((spec, res.value))
                return "missing_shards" not in stats

            return op

        return {"closed": harness.closed_loop(len(self.stores), seconds, make)}

    def verify(self) -> tuple[int, int]:
        """Kept answers vs the unsplit store with pruning off (byte-identical)."""
        store = GdeltStore.open(self.work / "db", mode="mmap")
        invalidate_cache()
        wrong = 0
        for spec, value in self.kept:
            want = queries.run_fluent(store, spec, prune=False).value
            wrong += harness.digest(value) != harness.digest(want)
        store.release()
        return len(self.kept), wrong

    def children(self) -> list:
        return [self.router, *(p for p, _, _ in self.shards)]

    def teardown(self) -> None:
        for store in self.stores:
            store.close()
        self.kept = []
        super().teardown()
