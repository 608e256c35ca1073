#!/usr/bin/env python3
"""CI smoke check for the sharded serving tier.

Builds a synthetic dataset on disk, splits it into three shards with
the real ``split_dataset`` path, launches one server *subprocess* per
shard, and drives a :class:`~repro.shard.ShardRouter` over them,
asserting the sharding contract end to end:

* scatter-gather results are **byte-identical** to the same queries on
  the unsplit store (integer aggregate columns, so float association
  cannot blur the comparison) — every terminal, filtered and grouped;
* a capture-time-windowed query **prunes at least one whole shard**
  before any network hop (the planner's interval analysis lifted to
  the shard map);
* killing a shard mid-run yields a ``PARTIAL_RESULT`` response naming
  the missing shard — degraded, not failed — when ``partial_ok`` is on.

Emits ``benchmarks/out/BENCH_shard.json`` with the measured numbers.

Run:  PYTHONPATH=src python benchmarks/shard_smoke.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.engine import GdeltStore, col
from repro.engine.terminal import jsonable
from repro.ingest.direct import dataset_to_binary
from repro.serve import ErrorCode
from repro.shard import ShardRouter, launch_shards, split_dataset
from repro.synth import generate_dataset, small_config

OUT = Path(__file__).parent / "out" / "BENCH_shard.json"
ZONE_CHUNK_ROWS = 4_096
N_SHARDS = 3
ROUTED_QUERIES = 120


def canon(value) -> str:
    return json.dumps(jsonable(value), sort_keys=True)


#: Integer-column terminals only (Delay int32, Confidence int16):
#: their sums are exact in float64, so "byte-identical" is literal.
def battery(run):
    return {
        "count": run(op="count", where=col("Delay") > 96),
        "filtered_sum": run(
            op="sum", column="Delay", where=col("Confidence") >= 80
        ),
        "group_count": run(op="count", group_by="Quarter"),
        "group_sum": run(op="sum", column="Delay", group_by="Source"),
        "group_mean": run(op="mean", column="Confidence", group_by="Quarter"),
        "group_stats": run(op="stats", column="Delay", group_by="Quarter"),
        "top": run(op="top", group_by="Source", k=10),
        "windowed": None,  # filled by the pruning check
    }


def local_run(store: GdeltStore):
    def run(op, column=None, group_by=None, k=None, where=None):
        q = store.query("mentions")
        if where is not None:
            q = q.filter(where)
        if group_by is not None:
            g = q.group_by(group_by)
            if op == "top":
                return canon(g.top(k).value)
            if op == "count":
                return canon(g.count().value)
            return canon(getattr(g, op)(column).value)
        if op == "count":
            return canon(q.count().value)
        return canon(getattr(q, op)(column).value)

    return run


def routed_run(router: ShardRouter):
    def run(**kw):
        resp = router.query(**kw)
        assert resp.status == "ok", f"routed query failed: {resp.error}"
        return canon(resp.value)

    return run


def check_identical(store: GdeltStore, router: ShardRouter) -> dict:
    local = battery(local_run(store))
    routed = battery(routed_run(router))
    mismatches = [k for k in local if local[k] != routed[k]]
    assert not mismatches, f"routed results diverged from local: {mismatches}"
    checked = sum(1 for v in local.values() if v is not None)
    print(f"byte-identity: {checked} terminals identical across the split")
    return {"checked": checked, "mismatches": len(mismatches)}


def check_pruning(store: GdeltStore, router: ShardRouter) -> dict:
    mi = store.mentions["MentionInterval"]
    lo, hi = int(mi[0]), int(mi[len(mi) // (2 * N_SHARDS)])
    resp = router.query(op="count", time_range=(lo, hi))
    local = store.query("mentions").time_range(lo, hi).count().value
    assert resp.status == "ok" and resp.value == local, "windowed count diverged"
    pruned = int(resp.stats["shards_pruned"])
    assert pruned >= 1, f"windowed query should skip >= 1 shard, pruned {pruned}"
    assert resp.stats["fanout"] + pruned == N_SHARDS
    print(
        f"pruning: time window [{lo}, {hi}) -> fanout "
        f"{resp.stats['fanout']}/{N_SHARDS}, {pruned} shard(s) skipped"
    )
    return {"shards_pruned": pruned, "fanout": int(resp.stats["fanout"])}


def measure_routed(router: ShardRouter) -> dict:
    """Sequential routed throughput + merge cost over a mixed workload."""
    mix = [
        dict(op="count", where=col("Delay") > 96),
        dict(op="sum", column="Delay", group_by="Quarter"),
        dict(op="top", group_by="Source", k=10),
        dict(op="count", group_by="Quarter", where=col("Confidence") >= 50),
    ]
    merge_ms = []
    t0 = time.perf_counter()
    for i in range(ROUTED_QUERIES):
        resp = router.query(**mix[i % len(mix)])
        assert resp.status == "ok"
        merge_ms.append(float(resp.stats["merge_ms"]))
    wall = time.perf_counter() - t0
    merge_ms.sort()
    out = {
        "queries": ROUTED_QUERIES,
        "throughput_rps": round(ROUTED_QUERIES / wall, 1),
        "merge_ms_p50": merge_ms[len(merge_ms) // 2],
        "merge_ms_max": merge_ms[-1],
    }
    print(
        f"routed: {ROUTED_QUERIES} queries at {out['throughput_rps']} req/s, "
        f"merge p50 {out['merge_ms_p50']}ms"
    )
    return out


def check_partial(router: ShardRouter, procs, store: GdeltStore) -> dict:
    """A killed shard degrades to PARTIAL_RESULT, it does not fail."""
    procs[1].kill()
    resp = router.query(op="count")
    assert resp.status == "partial", f"expected partial, got {resp.status}"
    assert resp.reason == ErrorCode.PARTIAL_RESULT
    assert resp.missing, "partial response must name the missing shard(s)"
    assert 0 < resp.value < store.n_mentions, "partial count should be a subset"
    print(
        f"degraded: killed {resp.missing} -> status=partial, "
        f"count {resp.value}/{store.n_mentions}"
    )
    return {
        "missing_shards": len(resp.missing),
        "partial_value": int(resp.value),
        "full_value": int(store.n_mentions),
    }


def main() -> int:
    import tempfile

    print("building synthetic dataset on disk ...")
    with tempfile.TemporaryDirectory(prefix="shard_smoke_") as tmp:
        root = Path(tmp)
        dataset = dataset_to_binary(
            generate_dataset(small_config()), root / "db",
            zone_chunk_rows=ZONE_CHUNK_ROWS,
        )
        store = GdeltStore.open(dataset)
        print(f"mentions table: {store.n_mentions:,} rows")
        paths = split_dataset(
            dataset, root / "shards", N_SHARDS, zone_chunk_rows=ZONE_CHUNK_ROWS
        )
        procs = launch_shards(paths)
        print(f"launched {len(procs)} shard server processes")
        try:
            with ShardRouter(
                [p.address for p in procs], partial_ok=True
            ) as router:
                report = {
                    "shards": N_SHARDS,
                    "rows": int(store.n_mentions),
                    "identical": check_identical(store, router),
                    "pruning": check_pruning(store, router),
                    "routed": measure_routed(router),
                }
                report["partial"] = check_partial(router, procs, store)
                rstats = router.stats()
                report["router_counts"] = {
                    k: rstats[k]
                    for k in ("submitted", "ok", "partial", "shards_asked",
                              "shards_skipped", "shards_missing")
                }
        finally:
            for p in procs:
                p.kill()

    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
