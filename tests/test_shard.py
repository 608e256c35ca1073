"""repro.shard: partitioning, partial-aggregate merging, the router.

The sharding contract under test:

* ``split_dataset`` partitions mentions into contiguous capture-time
  row ranges and replicates events + dictionaries, so any shard order
  traversal reproduces global row order — streaming the source one
  column slice at a time, yet writing exactly the files a whole-store
  round trip writes;
* the terminal's merge of per-shard partials is byte-identical to
  running the same query on the unsplit store — for every terminal;
* the router prunes whole shards with the planner's own interval
  analysis, degrades to ``PARTIAL_RESULT`` when asked, sheds expired
  deadlines without fan-out, and asks the events replicas in order
  until one answers;
* ``repro.connect()`` gives the local fluent surface over any endpoint.
"""

from __future__ import annotations

import json
import re
import shutil
import time
import tracemalloc

import numpy as np
import pytest

import repro
from repro import faults
from repro.engine import GdeltStore, col
from repro.engine.query import Query, QueryResult
from repro.engine.terminal import TerminalSpec, jsonable
from repro.ingest.direct import dataset_to_binary
from repro.obs import metrics as _metrics
from repro.serve import (
    RETRYABLE_CODES,
    ErrorCode,
    QueryRequest,
    QueryService,
    RemoteError,
    ServeClient,
    ServeServer,
)
from repro.shard import (
    ShardMap,
    ShardProcess,
    ShardRouter,
    launch_shards,
    split_dataset,
)
from repro.shard.map import ShardInfo
from repro.shard.partition import shard_ranges
from repro.shard.router import DEADLINE_FLOOR_S, DEADLINE_FRACTION
from repro.storage.columns import StringDictionary
from repro.storage.format import StorageError, dict_blob_path
from repro.storage.gdelt import write_gdelt_dataset
from repro.storage.verify import file_crc32, verify_dataset

N_SHARDS = 3

#: Split byte-identity cases: ``dataset_to_binary`` options of the source
#: (zone maps of 4096 rows unless given), shard count, and the split's
#: own ``zone_chunk_rows``.
SPLIT_CASES = {
    "tiny-1": ({}, 1, 4096),
    "tiny-3": ({}, 3, 4096),
    "tiny-7": ({}, 7, 4096),
    "compressed": ({"compress": True}, 3, 4096),
    "no-urls": ({"include_urls": False}, 3, 4096),
    "rechunked": ({}, 3, 1000),
}


def canon(value) -> str:
    """Byte-identity comparator: the exact wire form of a value."""
    return json.dumps(jsonable(value), sort_keys=True)


@pytest.fixture(scope="module")
def shard_env(tiny_ds, tmp_path_factory):
    """The tiny corpus on disk, split three ways."""
    root = tmp_path_factory.mktemp("shard")
    dataset = dataset_to_binary(tiny_ds, root / "db", zone_chunk_rows=4096)
    paths = split_dataset(dataset, root / "shards", N_SHARDS, zone_chunk_rows=4096)
    return dataset, paths


@pytest.fixture(scope="module")
def split_source(tiny_ds, tmp_path_factory):
    """``split_source(**dataset_to_binary options)`` → that tiny source
    dataset, written once per module."""
    root = tmp_path_factory.mktemp("split-src")
    built: dict[str, object] = {}

    def build(**kw):
        kw.setdefault("zone_chunk_rows", 4096)
        key = json.dumps(kw, sort_keys=True)
        if key not in built:
            built[key] = dataset_to_binary(tiny_ds, root / f"db{len(built)}", **kw)
        return built[key]

    return build


def _reference_split(src, out, shards, zone_chunk_rows):
    """The split spelled as a store round trip: open the source whole,
    slice its mentions, write each shard with the one dataset writer."""
    store = GdeltStore.open(src)
    dictionaries = store.dictionaries()
    paths = []
    for i, (lo, hi) in enumerate(shard_ranges(store.n_mentions, shards)):
        paths.append(out / f"shard{i}")
        write_gdelt_dataset(
            paths[-1],
            store.events,
            {c: a[lo:hi] for c, a in store.mentions.items()},
            dictionaries,
            zone_chunk_rows=zone_chunk_rows,
            meta=dict(
                store.dataset_meta,
                origin="split",
                shard={"index": i, "count": shards, "row_lo": lo, "row_hi": hi},
            ),
        )
    return paths


def _file_crcs(root) -> dict[str, int]:
    """Every file under a directory → CRC32 of its bytes."""
    return {
        str(p.relative_to(root)): file_crc32(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def full_store(shard_env):
    return GdeltStore.open(shard_env[0])


@pytest.fixture(scope="module")
def backends(shard_env):
    """In-process shard backends: one QueryService + ServeServer each."""
    services, servers = [], []
    for path in shard_env[1]:
        svc = QueryService(GdeltStore.open(path), workers=2)
        services.append(svc)
        servers.append(ServeServer(svc, host="127.0.0.1", port=0))
    yield services, servers
    for srv in servers:
        srv.close()
    for svc in services:
        svc.close(drain=False)


@pytest.fixture()
def router(backends):
    _, servers = backends
    r = ShardRouter([f"127.0.0.1:{s.port}" for s in servers])
    yield r
    r.close()


def _submitted(services) -> int:
    return sum(svc.stats()["submitted"] for svc in services)


class TestShardRanges:
    @pytest.mark.parametrize("rows", [0, 1, 7, 100, 101, 15245])
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_cover_contiguous_balanced(self, rows, shards):
        ranges = shard_ranges(rows, shards)
        assert len(ranges) == shards
        assert ranges[0][0] == 0 and ranges[-1][1] == rows
        sizes = []
        for (lo, hi), (nlo, _) in zip(ranges, ranges[1:]):
            assert hi == nlo
            sizes.append(hi - lo)
        sizes.append(ranges[-1][1] - ranges[-1][0])
        assert all(s >= 0 for s in sizes)
        if rows >= shards:
            assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_rows(self):
        ranges = shard_ranges(2, 5)
        assert sum(hi - lo for lo, hi in ranges) == 2
        assert any(lo == hi for lo, hi in ranges)  # empty tails are legal

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)


class TestSplit:
    def test_placement_contract(self, shard_env, full_store):
        _, paths = shard_env
        stores = [GdeltStore.open(p) for p in paths]
        # events + dictionaries replicated, mentions partitioned.
        assert all(s.n_events == full_store.n_events for s in stores)
        assert sum(s.n_mentions for s in stores) == full_store.n_mentions
        assert list(stores[0].sources) == list(full_store.sources)
        assert list(stores[0].countries) == list(full_store.countries)
        # Shard stamps tile [0, n_mentions).
        stamps = [s._reader.manifest.meta["shard"] for s in stores]
        assert [st["index"] for st in stamps] == list(range(N_SHARDS))
        assert stamps[0]["row_lo"] == 0
        assert stamps[-1]["row_hi"] == full_store.n_mentions
        for a, b in zip(stamps, stamps[1:]):
            assert a["row_hi"] == b["row_lo"]
        # Shard order IS capture-time order (what makes merges exact).
        edges = [
            (int(s.mentions["MentionInterval"][0]),
             int(s.mentions["MentionInterval"][-1]))
            for s in stores
        ]
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi <= lo

    def test_shard_counts_sum_to_global(self, shard_env, full_store):
        _, paths = shard_env
        pred = col("Confidence") >= 80
        total = sum(
            GdeltStore.open(p).query("mentions").filter(pred).count().value
            for p in paths
        )
        assert total == full_store.query("mentions").filter(pred).count().value

    @pytest.mark.parametrize("case", list(SPLIT_CASES), ids=list(SPLIT_CASES))
    def test_split_matches_the_opened_store_written_per_shard(
        self, case, split_source, tmp_path
    ):
        """Streaming the split changes how much it holds, never what it
        writes: every shard file, ``manifest.json`` included, equals the
        store round trip's."""
        source_kw, shards, zone_chunk_rows = SPLIT_CASES[case]
        src = split_source(**source_kw)
        got = split_dataset(src, tmp_path / "got", shards, zone_chunk_rows)
        want = _reference_split(src, tmp_path / "want", shards, zone_chunk_rows)
        assert [p.name for p in got] == [p.name for p in want]
        for p, q in zip(got, want):
            assert _file_crcs(p) == _file_crcs(q), p.name
            assert (p / "manifest.json").read_bytes() == (
                q / "manifest.json"
            ).read_bytes()
        meta = GdeltStore.open(got[0]).dataset_meta
        assert meta["origin"] == "split"
        assert meta["seed"] == GdeltStore.open(src).dataset_meta["seed"]

    def test_split_memory_follows_one_column_slice(self, tiny_arrays, tmp_path):
        """A dataset whose bulk is its URL dictionary: the split's heap
        peak is one copy block plus a few column slices, not the
        dictionary it replicates into every shard."""
        events, mentions, dicts = tiny_arrays
        n = len(mentions["GlobalEventID"])
        urls = StringDictionary.from_strings(
            [f"https://example.org/{i}/{'x' * 600}" for i in range(n)]
        )
        mentions = dict(mentions, UrlId=np.arange(n, dtype=mentions["UrlId"].dtype))
        write_gdelt_dataset(
            tmp_path / "db", events, mentions, dict(dicts, mention_urls=urls)
        )
        assert len(urls.arrays[1]) > 8 << 20  # the dictionary is the dataset
        del urls, mentions
        # The widest column a split holds: an int64 slice of the larger of
        # the replicated events table and one shard's mentions.
        column_slice = 8 * max(len(events["GlobalEventID"]), -(-n // N_SHARDS))
        tracemalloc.start()
        try:
            split_dataset(tmp_path / "db", tmp_path / "shards", N_SHARDS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 20) + 16 * column_slice, peak

    def test_corrupt_source_dictionary_raises_before_commit(
        self, shard_env, tmp_path
    ):
        src = tmp_path / "db"
        shutil.copytree(shard_env[0], src)
        blob = dict_blob_path(src, "mention_urls")
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        blob.write_bytes(bytes(raw))
        corrupt = _metrics.counter("storage_corrupt_files_total", kind="dictionary")
        before = corrupt.value
        with pytest.raises(StorageError, match=re.escape(str(blob))):
            split_dataset(src, tmp_path / "shards", N_SHARDS)
        assert corrupt.value - before == 1
        shard0 = tmp_path / "shards" / "shard0"
        assert not (shard0 / "manifest.json").exists()
        assert not list(shard0.rglob("*.tmp"))

    def test_bitflip_in_a_copied_dictionary_is_caught_by_verify(
        self, shard_env, tmp_path
    ):
        plan = faults.FaultPlan.parse(
            "storage.write:bitflip:key=dict/*,max_injections=1"
        )
        with faults.active(plan) as inj:
            paths = split_dataset(shard_env[0], tmp_path / "shards", N_SHARDS)
        assert inj.receipt.count(kind="bitflip") == 1
        (flipped,) = inj.receipt.keys(kind="bitflip")
        issues = {p.name: verify_dataset(p).issues for p in paths}
        assert [(i.path, i.kind) for i in issues.pop("shard0")] == [(flipped, "crc")]
        assert all(not found for found in issues.values())


class TestMergeVsBruteForce:
    """The merge of real per-shard partials == the unsplit answer."""

    CASES = [
        dict(op="count"),
        dict(op="sum", column="Delay"),
        dict(op="mean", column="Confidence"),
        dict(op="count", group_by="Quarter"),
        dict(op="sum", column="Delay", group_by="Quarter"),
        dict(op="mean", column="Delay", group_by="Source"),
        dict(op="stats", column="Delay", group_by="Quarter"),
        dict(op="stats", column="Confidence", group_by="Source"),
        dict(op="top", group_by="Source", k=7),
        dict(op="top", group_by="Quarter", k=3),
    ]
    FILTERS = [None, col("Delay") > 96, (col("Confidence") >= 50) & (col("Delay") > 24)]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("where", FILTERS)
    def test_merge_matches_single_store(self, backends, full_store, case, where):
        services, _ = backends
        op, group_by = case["op"], case.get("group_by")
        k = case.get("k")
        parts = []
        for svc in services:
            resp = svc.query("mentions", where=where, partials=True, **case)
            assert resp.ok, resp.error
            parts.append(resp.value)
        n_groups = (
            full_store.group_key("mentions", group_by)[2] if group_by else None
        )
        merged = TerminalSpec(op, group=group_by, k=k).bind(n_groups).merge(parts)

        q = full_store.query("mentions")
        if where is not None:
            q = q.filter(where)
        if group_by is None:
            expected = getattr(q, op)(*([case["column"]] if "column" in case else []))
        else:
            g = q.group_by(group_by)
            if op == "top":
                expected = g.top(k)
            elif op == "count":
                expected = g.count()
            else:
                expected = getattr(g, op)(case["column"])
        assert canon(merged) == canon(expected.value)

    def test_randomized_groupby(self, backends, full_store, rng):
        services, _ = backends
        for _ in range(6):
            op = rng.choice(["count", "sum", "mean", "stats", "top"])
            key = rng.choice(["Quarter", "Source"])
            column = rng.choice(["Delay", "Confidence"])
            cut = int(rng.integers(0, 120))
            where = col("Delay") > cut
            kw = dict(op=op, group_by=key)
            if op in ("sum", "mean", "stats"):
                kw["column"] = column
            k = int(rng.integers(1, 9)) if op == "top" else None
            if k is not None:
                kw["k"] = k
            parts = [
                svc.query("mentions", where=where, partials=True, **kw).value
                for svc in services
            ]
            n_groups = full_store.group_key("mentions", key)[2]
            merged = TerminalSpec(op, group=key, k=k).bind(n_groups).merge(parts)
            g = full_store.query("mentions").filter(where).group_by(key)
            expected = (
                g.top(k) if op == "top"
                else g.count() if op == "count"
                else getattr(g, op)(column)
            )
            assert canon(merged) == canon(expected.value)

    def test_zero_value_is_empty_merge(self, full_store):
        n = full_store.group_key("mentions", "Quarter")[2]
        z = TerminalSpec("count", group="Quarter").bind(n).merge([])
        assert canon(z) == canon(np.zeros(n, dtype=np.int64))
        assert TerminalSpec("count").bind().merge([]) == 0


class TestShardMapRouting:
    def _info(self, i, rows, lo, hi):
        return ShardInfo(
            f"s{i}",
            ("127.0.0.1", 7000 + i),
            {
                "tables": {
                    "events": {"rows": 10, "columns": {}},
                    "mentions": {
                        "rows": rows,
                        "columns": {
                            "MentionInterval": {"min": lo, "max": hi, "nulls": 0}
                        },
                    },
                },
                "groups": {},
            },
        )

    @staticmethod
    def _ids(groups):
        return [[s.shard_id for s in group] for group in groups]

    def test_empty_shard_skipped(self):
        smap = ShardMap([self._info(0, 100, 0, 9), self._info(1, 0, None, None)])
        groups, skipped = smap.route("mentions")
        assert self._ids(groups) == [["s0"]]
        assert [(s.shard_id, r) for s, r in skipped] == [("s1", "empty")]

    def test_time_range_prunes_disjoint_shards(self):
        smap = ShardMap(
            [self._info(0, 10, 0, 9), self._info(1, 10, 10, 19),
             self._info(2, 10, 20, 29)]
        )
        groups, skipped = smap.route("mentions", time_range=(10, 20))
        assert self._ids(groups) == [["s1"]]
        assert sorted(r for _, r in skipped) == ["pruned", "pruned"]
        # Boundary: request [9, 10) touches only shard 0.
        groups, _ = smap.route("mentions", time_range=(9, 10))
        assert self._ids(groups) == [["s0"]]

    def test_unknown_column_never_prunes(self):
        smap = ShardMap([self._info(0, 10, 0, 9), self._info(1, 10, 10, 19)])
        groups, skipped = smap.route("mentions", where=col("Mystery") > 5)
        assert self._ids(groups) == [["s0"], ["s1"]] and not skipped
        # ANDed with a window, the unknown side keeps the window's pruning.
        groups, _ = smap.route(
            "mentions", where=col("Mystery") > 5, time_range=(10, 20)
        )
        assert self._ids(groups) == [["s1"]]

    def test_events_are_one_group_of_every_live_replica(self):
        smap = ShardMap(
            [self._info(0, 10, 0, 9), self._info(1, 10, 10, 19),
             self._info(2, 10, 20, 29)]
        )
        groups, skipped = smap.route("events", time_range=(10, 20))
        assert self._ids(groups) == [["s0", "s1", "s2"]] and not skipped
        empty = self._info(3, 10, 30, 39)
        empty.meta["tables"]["events"]["rows"] = 0
        groups, skipped = ShardMap([empty]).route("events")
        assert groups == [] and [r for _, r in skipped] == ["empty"]


class TestRouter:
    def test_results_byte_identical(self, router, full_store):
        pred = (col("Delay") > 96) & (col("Confidence") >= 80)
        resp = router.query(op="count", where=pred)
        assert resp.status == "ok"
        assert resp.value == full_store.query("mentions").filter(pred).count().value
        assert resp.stats["fanout"] == N_SHARDS

        # Integer columns: float64 sums are exact, so identity is literal.
        conf = col("Confidence") >= 80
        resp = router.query(op="sum", column="Delay", where=conf)
        local = full_store.query("mentions").filter(conf).sum("Delay")
        assert canon(resp.value) == canon(local.value)

        resp = router.query(op="sum", column="Delay", group_by="Source")
        local = full_store.query("mentions").group_by("Source").sum("Delay")
        assert canon(resp.value) == canon(local.value)

        resp = router.query(op="count", group_by="Quarter")
        local = full_store.query("mentions").group_by("Quarter").count()
        assert canon(resp.value) == canon(local.value)

        resp = router.query(op="mean", column="Delay", group_by="Quarter")
        local = full_store.query("mentions").group_by("Quarter").mean("Delay")
        assert canon(resp.value) == canon(local.value)

        resp = router.query(op="stats", column="Delay", group_by="Quarter")
        local = full_store.query("mentions").group_by("Quarter").stats("Delay")
        assert canon(resp.value) == canon(local.value)

        resp = router.query(op="top", group_by="Source", k=5)
        local = full_store.query("mentions").group_by("Source").top(5)
        assert canon(resp.value) == canon(local.value)

    def test_time_range_prunes_shards(self, router, full_store):
        mi = full_store.mentions["MentionInterval"]
        lo, hi = int(mi[0]), int(mi[len(mi) // (2 * N_SHARDS)])
        resp = router.query(op="count", time_range=(lo, hi))
        assert resp.status == "ok"
        local = full_store.query("mentions").time_range(lo, hi).count().value
        assert resp.value == local
        assert resp.stats["shards_pruned"] >= 1
        assert resp.stats["fanout"] + resp.stats["shards_pruned"] == N_SHARDS

    def test_all_pruned_answers_without_fanout(self, router, backends, full_store):
        services, _ = backends
        before = _submitted(services)
        # Far beyond the last capture interval: every shard is pruned.
        top = int(full_store.mentions["MentionInterval"][-1])
        resp = router.query(op="count", time_range=(top + 10, top + 20))
        assert resp.status == "ok" and resp.value == 0
        assert resp.stats["fanout"] == 0
        assert _submitted(services) == before  # no network hop happened

        n = full_store.group_key("mentions", "Quarter")[2]
        resp = router.query(
            op="count", group_by="Quarter", time_range=(top + 10, top + 20)
        )
        assert resp.status == "ok"
        assert canon(resp.value) == canon(np.zeros(n, dtype=np.int64))
        assert _submitted(services) == before

    def test_impossible_filter_pruned_by_bounds(self, router, backends):
        services, _ = backends
        before = _submitted(services)
        resp = router.query(op="count", where=col("Confidence") > 100000)
        assert resp.status == "ok" and resp.value == 0
        assert _submitted(services) == before

    def test_expired_deadline_sheds_without_fanout(self, router, backends):
        services, _ = backends
        before = _submitted(services)
        resp = router.query(op="count", deadline_s=1e-6)
        assert resp.status == "shed"
        assert resp.reason == ErrorCode.DEADLINE_EXCEEDED
        assert _submitted(services) == before

    @pytest.mark.parametrize("table", ["mentions", "events"])
    def test_backends_get_a_share_of_the_remaining_deadline(
        self, router, monkeypatch, table
    ):
        """Every backend is handed max(DEADLINE_FLOOR_S,
        DEADLINE_FRACTION * remaining budget)."""
        seen = []
        real = router._call_shard

        def spy(shard, request, conjuncts, deadline_s):
            seen.append(deadline_s)
            return real(shard, request, conjuncts, deadline_s)

        monkeypatch.setattr(router, "_call_shard", spy)
        budget = 5.0
        t0 = time.monotonic()
        resp = router.query(table, op="count", deadline_s=budget)
        elapsed = time.monotonic() - t0
        assert resp.status == "ok"
        assert seen
        for granted in seen:
            assert DEADLINE_FRACTION * (budget - elapsed) <= granted
            assert granted <= DEADLINE_FRACTION * budget

    def test_floor_bounds_the_backend_deadline(self, router):
        # 0.9 x 0.0222 s is below the floor, but 0.0222 s is not.
        granted, expired = router._sub_deadline(
            QueryRequest(op="count", deadline_s=0.0222), time.monotonic()
        )
        assert not expired
        assert granted == DEADLINE_FLOOR_S

    def test_budget_below_floor_sheds_without_fanout(
        self, router, backends, monkeypatch
    ):
        services, _ = backends
        calls = []
        monkeypatch.setattr(router, "_call_shard", lambda *a: calls.append(a))
        before = _submitted(services)
        resp = router.query(op="count", deadline_s=DEADLINE_FLOOR_S / 2)
        assert resp.status == "shed"
        assert resp.reason == ErrorCode.DEADLINE_EXCEEDED
        assert resp.retry_after_s == DEADLINE_FLOOR_S
        assert not calls
        assert _submitted(services) == before

    def test_partials_request_rejected(self, router):
        resp = router.query(op="count", partials=True)
        assert resp.status == "error"
        assert resp.reason == ErrorCode.BAD_REQUEST

    @pytest.mark.parametrize("table", ["mentions", "events"])
    def test_backend_bad_request_is_not_a_shard_failure(self, router, table):
        """A backend's BAD_REQUEST is the client's fault: the router
        answers it as its own and every breaker stays closed, so a run
        of malformed queries cannot refuse the well-formed ones."""
        for _ in range(8):
            resp = router.query(table=table, op="count", group_by="NoSuchKey")
            assert resp.status == "error"
            assert resp.reason == ErrorCode.BAD_REQUEST
            assert "NoSuchKey" in resp.error
        states = router.shard_states()
        assert all(s["breaker"]["state"] == "closed" for s in states.values())
        assert router.query(table=table, op="count").status == "ok"

    def test_refuses_another_router_as_backend(self, router):
        """A router does not serve partials, so an outer router over it
        would fail every scattered query: construction refuses it."""
        with ServeServer(router, host="127.0.0.1", port=0) as inner:
            address = f"127.0.0.1:{inner.port}"
            with pytest.raises(ValueError, match=address):
                ShardRouter([address])

    def test_disjunctive_filter_rejected(self, router):
        resp = router.query(op="count", where=(col("Delay") > 96) | (col("Delay") < 2))
        assert resp.status == "error"
        assert resp.reason == ErrorCode.BAD_REQUEST

    def test_events_routed_to_one_replica(self, router, backends, full_store):
        services, _ = backends
        before = [svc.stats()["submitted"] for svc in services]
        resp = router.query(table="events", op="count", where=col("RootCode") <= 5)
        local = full_store.query("events").filter(col("RootCode") <= 5).count().value
        assert resp.status == "ok" and resp.value == local
        assert resp.stats["fanout"] == 1
        grew = [svc.stats()["submitted"] - n for svc, n in zip(services, before)]
        assert sorted(grew) == [0] * (N_SHARDS - 1) + [1]

    def test_empty_replicated_table_answers_zero(self, tiny_arrays):
        """An events table every replica holds empty is answered like
        an all-pruned mentions query: the merge of no parts, as the
        unsplit store counts it."""
        events, mentions, dicts = tiny_arrays
        events = {c: a[:0] for c, a in events.items()}
        half = len(mentions["MentionInterval"]) // 2
        services, servers = [], []
        for sl in (slice(0, half), slice(half, None)):
            store = GdeltStore.from_arrays(
                events, {c: a[sl] for c, a in mentions.items()}, dicts
            )
            services.append(QueryService(store, workers=1))
            servers.append(ServeServer(services[-1], host="127.0.0.1", port=0))
        try:
            with ShardRouter([f"127.0.0.1:{s.port}" for s in servers]) as router:
                resp = router.query(table="events", op="count")
        finally:
            for srv in servers:
                srv.close()
            for svc in services:
                svc.close(drain=False)
        unsplit = GdeltStore.from_arrays(events, mentions, dicts)
        assert resp.status == "ok", (resp.reason, resp.error)
        assert resp.value == unsplit.query("events").count().value == 0

    def test_meta_merges_cluster(self, router, full_store):
        meta = router.meta()
        assert meta["tables"]["mentions"]["rows"] == full_store.n_mentions
        assert meta["tables"]["events"]["rows"] == full_store.n_events
        assert len(meta["shards"]) == N_SHARDS
        assert router.health()["ready"] is True
        states = router.shard_states()
        assert set(states) == {f"shard{i}" for i in range(N_SHARDS)}
        assert all(s["breaker"]["state"] == "closed" for s in states.values())


class TestRouterDegraded:
    """A dead backend: partial_ok trades completeness for availability."""

    @pytest.fixture()
    def flaky_cluster(self, backends):
        """Fresh servers over the same services, so one can be killed."""
        services, _ = backends
        servers = [ServeServer(svc, host="127.0.0.1", port=0) for svc in services]
        yield servers
        for srv in servers:
            srv.close()

    def test_partial_ok_returns_partial(self, flaky_cluster, full_store):
        addresses = [f"127.0.0.1:{s.port}" for s in flaky_cluster]
        with ShardRouter(addresses, partial_ok=True) as router:
            flaky_cluster[1].close()  # shard1 goes dark after enrollment
            resp = router.query(op="count")
            assert resp.status == "partial"
            assert resp.reason == ErrorCode.PARTIAL_RESULT
            assert resp.missing == ["shard1"]
            assert 0 < resp.value < full_store.n_mentions
            assert resp.stats["shards_missing"] == 1

    def test_events_fail_over_to_the_next_replica(self, flaky_cluster, full_store):
        addresses = [f"127.0.0.1:{s.port}" for s in flaky_cluster]
        with ShardRouter(addresses) as router:
            flaky_cluster[0].close()  # the first replica goes dark
            resp = router.query(table="events", op="count", group_by="Quarter")
            assert resp.status == "ok", (resp.reason, resp.error)
            assert resp.stats["fanout"] == 1
            local = full_store.query("events").group_by("Quarter").count()
            assert canon(resp.value) == canon(local.value)

    def test_partial_not_ok_errors(self, flaky_cluster):
        addresses = [f"127.0.0.1:{s.port}" for s in flaky_cluster]
        with ShardRouter(addresses, partial_ok=False) as router:
            flaky_cluster[2].close()
            resp = router.query(op="count")
            assert resp.status == "error"
            assert resp.reason == ErrorCode.SHARD_UNAVAILABLE
            assert "shard2" in (resp.missing or [])


class TestRemoteStore:
    @pytest.fixture(scope="class")
    def endpoint(self, full_store):
        svc = QueryService(full_store, workers=2)
        srv = ServeServer(svc, host="127.0.0.1", port=0)
        yield f"127.0.0.1:{srv.port}"
        srv.close()
        svc.close(drain=False)

    @pytest.fixture()
    def remote(self, endpoint):
        with repro.connect(endpoint) as store:
            yield store

    def test_meta(self, remote, full_store):
        assert remote.n_mentions == full_store.n_mentions
        assert remote.n_events == full_store.n_events
        assert remote.fingerprint()[0] == full_store.fingerprint()[0]

    def test_quickstart_surface_parity(self, remote, full_store):
        """The exact examples/quickstart.py query code, both backends."""

        def run(store):
            q = (
                store.query("mentions")
                .filter(col("Delay") > 96)
                .filter(col("Confidence") >= 80)
            )
            n = q.count()
            return (
                n.value,
                q.mean("Delay").value,
                n.plan.pruning,
                canon(store.query("mentions").group_by("Quarter").mean("Delay").value),
                canon(store.query("mentions").group_by("Source").top(4).value),
                canon(
                    store.query("mentions")
                    .group_by("Quarter")
                    .stats("Confidence")
                    .value
                ),
                # chained time ranges intersect (and may come out empty)
                store.query("mentions")
                .time_range(0, 50_000)
                .time_range(40_000, 170_000)
                .count()
                .value,
                store.query("mentions")
                .time_range(0, 50_000)
                .time_range(60_000, 170_000)
                .count()
                .value,
            )

        got, want = run(remote), run(full_store)
        assert got == want
        assert 0 < want[-2] < full_store.n_mentions and want[-1] == 0

    def test_result_shape(self, remote):
        assert type(remote.query("mentions")) is Query  # the one builder
        r = remote.query("mentions").filter(col("Delay") > 96).count()
        assert isinstance(r, QueryResult)
        assert r.plan.op == "count"
        assert 0 < r.plan.rows_planned <= r.plan.rows_total
        assert r.stats["rows_planned"] == r.plan.rows_planned
        g = remote.query("mentions").group_by("Quarter").count()
        assert g.plan.op == "groupby_count"
        assert g.value.dtype == np.int64

    def test_validation(self, remote):
        with pytest.raises(ValueError):
            remote.query("mentions").group_by("Source").top(0)
        with pytest.raises(ValueError):
            remote.query("events").time_range(0, 10)
        with pytest.raises(ValueError):
            remote.query("mentions").filter(
                (col("Delay") > 96) | (col("Delay") < 2)
            ).count()
        with pytest.raises(ValueError, match="unknown table"):
            remote.query("nope")
        # What acts on local columns fails loudly, never silently ignored.
        with pytest.raises(TypeError):
            remote.query("mentions").with_pruning(False).count()
        with pytest.raises(TypeError):
            remote.query("mentions").explain()
        with pytest.raises(TypeError):
            remote.query("mentions").mask()

    @pytest.mark.parametrize("key", ["Quarter", "Source", "Delay"])
    def test_group_by_parity(self, remote, full_store, key):
        local = full_store.query("mentions").group_by(key)
        there = remote.query("mentions").group_by(key)
        assert (there.key, there.n_groups) == (local.key, local.n_groups)

    def test_unknown_group_key_raises_at_group_by(self, remote, full_store):
        for store in (remote, full_store):
            with pytest.raises(KeyError, match="NoSuchKey"):
                store.query("mentions").group_by("NoSuchKey")

    def test_wire_request_unchanged(self, endpoint):
        """A filtered, windowed, grouped ``top(k)`` chain sends exactly
        the request dict the dedicated remote builder used to send."""
        with repro.connect(endpoint, deadline_s=2.0, client_id="probe") as store:
            sent = []
            call = store._client.call
            store._client.call = lambda obj: sent.append(dict(obj)) or call(obj)
            (
                store.query("mentions")
                .filter(col("Delay") > 96)
                .filter(col("Confidence") >= 50)
                .time_range(40_000, 170_000)
                .time_range(0, 160_000)
                .group_by("Source")
                .top(5)
            )
        assert sent == [{
            "kind": "query", "table": "mentions", "op": "top",
            "where": ["Delay > 96", "Confidence >= 50"], "group_by": "Source",
            "time_range": [40000, 160000], "deadline_s": 2.0, "k": 5,
            "client_id": "probe", "id": "c1",
        }]

    def test_bad_request_raises_remote_error(self, remote):
        with pytest.raises(RemoteError) as exc:
            remote.query("mentions").sum("NoSuchColumn")
        assert exc.value.reason is None or "BAD" in str(exc.value.reason)

    def test_partial_surfaced_in_stats(self, backends, full_store):
        services, _ = backends
        servers = [ServeServer(svc, host="127.0.0.1", port=0) for svc in services]
        try:
            router = ShardRouter(
                [f"127.0.0.1:{s.port}" for s in servers], partial_ok=True
            )
            front = ServeServer(router, host="127.0.0.1", port=0)
            servers[0].close()
            with repro.connect(f"127.0.0.1:{front.port}") as store:
                r = store.query("mentions").count()
                assert r.stats["missing_shards"] == ["shard0"]
                assert r.stats["reason"] == str(ErrorCode.PARTIAL_RESULT)
                assert r.value < full_store.n_mentions
            front.close()
            router.close()
        finally:
            for srv in servers:
                srv.close()


class TestProtocol:
    def test_error_codes_are_wire_strings(self):
        assert ErrorCode.RATE_LIMITED == "RATE_LIMITED"
        assert str(ErrorCode.PARTIAL_RESULT) == "PARTIAL_RESULT"
        assert json.loads(json.dumps({"reason": str(ErrorCode.QUEUE_FULL)})) == {
            "reason": "QUEUE_FULL"
        }

    def test_partial_result_is_not_retryable(self):
        assert ErrorCode.PARTIAL_RESULT not in RETRYABLE_CODES
        assert ErrorCode.RATE_LIMITED in RETRYABLE_CODES


class TestShardProcess:
    def test_subprocess_lifecycle(self, shard_env):
        _, paths = shard_env
        proc = ShardProcess(paths[0])
        try:
            assert proc.alive()
            host, _, port = proc.address.rpartition(":")
            with ServeClient(host, int(port)) as client:
                assert client.ping() is True
                meta = client.meta()
                assert meta["shard"]["index"] == 0
                assert meta["shard"]["count"] == N_SHARDS
        finally:
            proc.kill()
        assert not proc.alive()

    def test_killed_backend_process_degrades_to_partial(
        self, shard_env, full_store
    ):
        """A real backend process dies; the router answers with the rest."""
        _, paths = shard_env
        procs = launch_shards(paths)
        try:
            addresses = [p.address for p in procs]
            with ShardRouter(addresses, partial_ok=True) as router:
                procs[1].kill()
                resp = router.query(op="count")
            assert resp.status == "partial"
            assert resp.reason == ErrorCode.PARTIAL_RESULT
            assert resp.missing == ["shard1"]
            assert 0 < resp.value < full_store.n_mentions
        finally:
            for proc in procs:
                proc.kill()
