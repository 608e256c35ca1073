"""adhoc_scan — unique ad-hoc queries straight at the engine.

In process, one caller, closed loop, every predicate unique so the
result cache always misses.  ``engine.planner`` and the scan/aggregate
kernels dominate; there is no wire and no cache hit.  It shows
encoded-column execution and pruning changes and bypasses everything
``serve_hot`` stresses.
"""

from __future__ import annotations

from repro.engine import GdeltStore
from repro.engine.planner import invalidate_cache

import harness
import queries
from workloads import Workload


class AdhocScan(Workload):
    name = "adhoc_scan"

    def setup(self) -> None:
        db = self.build_corpus()
        self.store = GdeltStore.open(db, mode="memory")
        self.stream = queries.adhoc_stream(self.rng, self.truth)
        # Warm-up: zone maps and every group key get built here, not
        # inside the first timed window.
        for _ in range(64):
            queries.run_fluent(self.store, next(self.stream))
        self.kept: list[tuple[queries.Spec, object]] = []

    def run(self, seconds: float) -> dict[str, harness.Phase]:
        self.kept = []
        tracer, store, stream = self.tracer, self.store, self.stream
        every = self.sizes.recheck_every
        state = {"i": 0}

        def op() -> bool:
            spec = next(stream)
            with tracer.span("op", "bench", op=self.next_op()):
                with tracer.span("engine.query", "engine", kind=spec.kind):
                    res = queries.run_fluent(store, spec)
            state["i"] += 1
            if state["i"] % every == 0:
                self.kept.append((spec, res.value))
            return res.plan.cache_status != "hit"  # a hit means a repeated predicate

        return {"closed": harness.closed_loop(1, seconds, lambda _i: op)}

    def verify(self) -> tuple[int, int]:
        """Kept answers vs the same queries with pruning off (byte-identical)."""
        invalidate_cache()
        wrong = 0
        for spec, value in self.kept:
            want = queries.run_fluent(self.store, spec, prune=False).value
            wrong += harness.digest(value) != harness.digest(want)
        return len(self.kept), wrong

    def teardown(self) -> None:
        self.store.release()
        self.kept = []
        super().teardown()
