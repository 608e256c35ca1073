"""Cross-surface differential oracle.

One case — a store spec plus a query case dict — is executed on every
surface that can express it and all answers are compared as canonical
JSON bytes:

========== ==================================================== =========
surface    what runs                                            when
========== ==================================================== =========
reference  :func:`repro.qa.reference.reference_value`           always
unpruned   ``store.query(...).with_pruning(False)``             always
pruned     the planner-pruned engine (cache invalidated first)  always
shard      3-shard scatter-gather :class:`ShardRouter`          wire only
remote     ``repro.connect()`` round-trip to one backend        wire only
view       a registered view served through ``QueryService``    wire, no
                                                                time_range
========== ==================================================== =========

"wire only" = the filter survives ``to_conjuncts`` (an AND of
column-vs-finite-constant comparisons and nonempty ``isin``).

Metamorphic invariants ride along on the local surfaces: De Morgan
rewrites, commuted-operand canonicalization, filter-split-then-merge,
and refresh-vs-rebuild view equality.  Shard-count invariance is the
cross-check between the 1-backend remote and the 3-shard router, both
held to the same reference bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.engine.expr import parse_conjuncts, to_conjuncts
from repro.engine.planner import result_cache
from repro.engine.store import GdeltStore
from repro.engine.terminal import jsonable
from repro.qa.generator import StoreSpec, build_store, expr_from_spec, spec_is_wire
from repro.qa.reference import reference_value
from repro.views.definition import ViewDefinition

__all__ = ["canon", "Mismatch", "OracleInfraError", "StoreHarness", "Oracle"]

LOCAL_SURFACES = ("unpruned", "pruned")
HEAVY_SURFACES = ("shard", "remote", "view")


def canon(value) -> str:
    """Canonical JSON bytes of a query value (NaN → null, arrays → lists)."""
    return json.dumps(jsonable(value), sort_keys=True)


class OracleInfraError(RuntimeError):
    """A surface failed to *run* (not a wrong answer): setup bug or
    infrastructure fault.  Never recorded as a mismatch."""


@dataclass
class Mismatch:
    """One broken byte-identity promise."""

    surface: str
    store_spec: dict
    case: dict
    expected: str
    got: str
    detail: str = ""

    def describe(self) -> str:
        head = f"{self.surface}: {self.detail or 'value differs from reference'}"
        return (
            f"{head}\n  case: {json.dumps(self.case, sort_keys=True)}"
            f"\n  expected: {self.expected[:400]}\n  got:      {self.got[:400]}"
        )


class StoreHarness:
    """Every surface for one :class:`StoreSpec`, built once, closed once.

    ``heavy=False`` builds only the in-process store (reference +
    engine surfaces) — what the shrinker and corpus replays use when a
    repro never needed the serving tier.
    """

    def __init__(
        self,
        spec: StoreSpec,
        tmp_dir: str | Path | None = None,
        heavy: bool = False,
        shards: int = 3,
    ) -> None:
        self.spec = spec
        self.heavy = heavy
        self.store: GdeltStore = build_store(spec)
        self._shard_services: list = []
        self._shard_servers: list = []
        self.router = None
        self._remote_service = None
        self._remote_server = None
        self.remote_store = None
        self.view_service = None
        self.view_catalog = None
        self._view_seq = 0
        if not heavy:
            return
        if tmp_dir is None:
            raise ValueError("heavy surfaces need a tmp_dir for shard datasets")

        from repro.serve.remote import connect
        from repro.serve.server import ServeServer
        from repro.serve.service import QueryService
        from repro.shard.partition import split_dataset
        from repro.shard.router import ShardRouter
        from repro.storage.gdelt import write_gdelt_dataset
        from repro.views.catalog import ViewCatalog

        source = Path(tmp_dir) / "source"
        write_gdelt_dataset(
            source, self.store.events, self.store.mentions, self.store.dictionaries()
        )
        shard_dirs = split_dataset(
            source, Path(tmp_dir) / "shards", shards,
            zone_chunk_rows=spec.zone_chunk_rows,
        )
        try:
            for path in shard_dirs:
                svc = QueryService(GdeltStore.open(path), workers=2)
                self._shard_services.append(svc)
                self._shard_servers.append(
                    ServeServer(svc, host="127.0.0.1", port=0)
                )
            self.router = ShardRouter(
                [f"127.0.0.1:{s.port}" for s in self._shard_servers]
            )
            # One full-store backend: the wire round-trip surface, and
            # the 1-shard side of the shard-count-invariance check.
            self._remote_service = QueryService(self.store, workers=2)
            self._remote_server = ServeServer(
                self._remote_service, host="127.0.0.1", port=0
            )
            self.remote_store = connect(f"127.0.0.1:{self._remote_server.port}")
            self.view_catalog = ViewCatalog()
            self.view_service = QueryService(
                self.store, workers=2, views=self.view_catalog
            )
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        if self.view_service is not None:
            self.view_service.close(drain=False)
        if self.remote_store is not None:
            self.remote_store.close()
        if self.router is not None:
            self.router.close()
        if self._remote_server is not None:
            self._remote_server.close()
        if self._remote_service is not None:
            self._remote_service.close(drain=False)
        for srv in self._shard_servers:
            srv.close()
        for svc in self._shard_services:
            svc.close(drain=False)

    def __enter__(self) -> "StoreHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def next_view_name(self) -> str:
        self._view_seq += 1
        return f"fz-{self._view_seq}"


def _terminal(query, case: dict):
    """Apply a case's terminal to a fluent (local or remote) query."""
    op = case["op"]
    group_by = case.get("group_by")
    column = case.get("column")
    if group_by is None:
        if op == "count":
            return query.count().value
        if op == "sum":
            return query.sum(column).value
        return query.mean(column).value
    grouped = query.group_by(group_by)
    if op == "count":
        return grouped.count().value
    if op == "sum":
        return grouped.sum(column).value
    if op == "mean":
        return grouped.mean(column).value
    if op == "stats":
        return grouped.stats(column).value
    return grouped.top(int(case["k"])).value


class Oracle:
    """Runs cases across a harness's surfaces and collects mismatches."""

    def __init__(self, harness: StoreHarness) -> None:
        self.harness = harness
        self.surface_runs: dict[str, int] = {}
        self.invariant_runs: dict[str, int] = {}

    # -- surface runners ----------------------------------------------------

    def _count_run(self, surface: str) -> None:
        self.surface_runs[surface] = self.surface_runs.get(surface, 0) + 1

    def run_local(self, case: dict, prune: bool):
        store = self.harness.store
        q = store.query(case["table"]).with_pruning(prune)
        tr = case.get("time_range")
        if tr is not None:
            q = q.time_range(int(tr[0]), int(tr[1]))
        expr = expr_from_spec(case.get("where"))
        if expr is not None:
            q = q.filter(expr)
        # The in-process served surfaces (the remote backend and the
        # view service) serve this same store and share the process-wide
        # result cache, so invalidate to force this path to execute
        # rather than return a served run's value.
        result_cache().invalidate()
        return _terminal(q, case)

    def run_shard(self, case: dict):
        tr = case.get("time_range")
        resp = self.harness.router.query(
            table=case["table"],
            op=case["op"],
            where=expr_from_spec(case.get("where")),
            column=case.get("column"),
            group_by=case.get("group_by"),
            k=case.get("k"),
            time_range=tuple(tr) if tr is not None else None,
        )
        if resp.status != "ok":
            raise OracleInfraError(
                f"router answered {resp.status}: {resp.reason}"
            )
        return resp.value

    def run_remote(self, case: dict):
        q = self.harness.remote_store.query(case["table"])
        tr = case.get("time_range")
        if tr is not None:
            q = q.time_range(int(tr[0]), int(tr[1]))
        expr = expr_from_spec(case.get("where"))
        if expr is not None:
            q = q.filter(expr)
        return _terminal(q, case)

    def run_view(self, case: dict):
        """Register the case as a view, refresh it, and serve a hit.

        Also asserts the refresh-vs-rebuild invariant: the retained
        incremental state finalizes to the same bytes as a cold rebuild
        on a fresh catalog.
        """
        from repro.views.catalog import ViewCatalog

        harness = self.harness
        expr = expr_from_spec(case.get("where"))
        conjuncts = tuple(to_conjuncts(expr))
        name = harness.next_view_name()
        defn = ViewDefinition(
            name=name,
            table=case["table"],
            op=case["op"],
            where=conjuncts,
            column=case.get("column"),
            group_by=case.get("group_by"),
            k=case.get("k"),
        )
        catalog = harness.view_catalog
        catalog.create(defn)
        try:
            report = catalog.refresh(harness.store, name)
            if report.get(name, {}).get("error"):
                raise OracleInfraError(f"view refresh failed: {report}")
            state = catalog.get(name)
            incremental = canon(state.value())
            # Second refresh: the no-op delta path must not disturb it.
            catalog.refresh(harness.store, name)
            redelta = canon(catalog.get(name).value())
            # Cold rebuild on a fresh catalog, with the result cache
            # emptied so the rebuild rescans instead of reading back the
            # partial the refresh above cached.
            result_cache().invalidate()
            rebuilt_cat = ViewCatalog()
            rebuilt_cat.create(defn)
            rebuilt_cat.refresh(harness.store, name)
            rebuilt = canon(rebuilt_cat.get(name).value())
            if not (incremental == redelta == rebuilt):
                raise _ViewInvariantBroken(
                    f"refresh-vs-rebuild: {incremental[:200]} / "
                    f"{redelta[:200]} / {rebuilt[:200]}"
                )
            self.invariant_runs["refresh-vs-rebuild"] = (
                self.invariant_runs.get("refresh-vs-rebuild", 0) + 1
            )
            # Served hit through the view-enabled service, with the
            # wire-round-tripped filter so canonicals match exactly.
            hits_before = catalog.hits
            resp = harness.view_service.query(
                table=case["table"],
                op=case["op"],
                where=parse_conjuncts(conjuncts),
                column=case.get("column"),
                group_by=case.get("group_by"),
                k=case.get("k"),
            )
            if resp.status != "ok":
                raise OracleInfraError(
                    f"view service answered {resp.status}: {resp.reason}"
                )
            if resp.stats.get("source") != "view" or catalog.hits <= hits_before:
                raise OracleInfraError(
                    f"view {name} did not serve the request "
                    f"(source={resp.stats.get('source')!r})"
                )
            return resp.value
        finally:
            catalog.drop(name)

    # -- case execution -----------------------------------------------------

    def check_case(
        self, case: dict, surfaces: tuple[str, ...] | None = None
    ) -> list[Mismatch]:
        """Run one case everywhere it is expressible; return mismatches."""
        harness = self.harness
        wire = spec_is_wire(case.get("where"))
        if surfaces is None:
            surfaces = LOCAL_SURFACES + (HEAVY_SURFACES if harness.heavy else ())

        expected = canon(reference_value(harness.store, case))
        self._count_run("reference")

        runners = {
            "unpruned": lambda: self.run_local(case, prune=False),
            "pruned": lambda: self.run_local(case, prune=True),
            "shard": lambda: self.run_shard(case),
            "remote": lambda: self.run_remote(case),
            "view": lambda: self.run_view(case),
        }
        mismatches: list[Mismatch] = []
        for surface in surfaces:
            if surface in HEAVY_SURFACES and not harness.heavy:
                continue
            if surface in HEAVY_SURFACES and not wire:
                continue
            if surface == "view" and case.get("time_range") is not None:
                continue
            try:
                got = canon(runners[surface]())
                self._count_run(surface)
            except _ViewInvariantBroken as exc:
                self._count_run(surface)
                mismatches.append(
                    Mismatch(
                        surface=surface,
                        store_spec=harness.spec.to_dict(),
                        case=case,
                        expected=expected,
                        got="",
                        detail=str(exc),
                    )
                )
                continue
            if got != expected:
                mismatches.append(
                    Mismatch(
                        surface=surface,
                        store_spec=harness.spec.to_dict(),
                        case=case,
                        expected=expected,
                        got=got,
                    )
                )
        return mismatches

    # -- metamorphic invariants ---------------------------------------------

    def check_metamorphic(self, case: dict) -> list[Mismatch]:
        """Local metamorphic invariants for cases with a composite filter."""
        spec = case.get("where")
        out: list[Mismatch] = []
        if spec is None or spec["kind"] not in ("and", "or"):
            return out
        flipped = "or" if spec["kind"] == "and" else "and"

        def record(name: str, expected: str, got: str) -> None:
            self.invariant_runs[name] = self.invariant_runs.get(name, 0) + 1
            if got != expected:
                out.append(
                    Mismatch(
                        surface="pruned",
                        store_spec=self.harness.spec.to_dict(),
                        case=case,
                        expected=expected,
                        got=got,
                        detail=f"metamorphic invariant {name} broken",
                    )
                )

        # De Morgan: ~(a AND b) == ~a OR ~b (and the dual).
        neg = dict(case, where={"kind": "not", "a": spec})
        rewritten = dict(
            case,
            where={
                "kind": flipped,
                "a": {"kind": "not", "a": spec["a"]},
                "b": {"kind": "not", "a": spec["b"]},
            },
        )
        record(
            "de-morgan",
            canon(self.run_local(neg, prune=True)),
            canon(self.run_local(rewritten, prune=True)),
        )

        # Commuted operands: same canonical plan, same bytes.
        commuted = dict(case, where=dict(spec, a=spec["b"], b=spec["a"]))
        ea = expr_from_spec(case["where"])
        eb = expr_from_spec(commuted["where"])
        if ea.canonical() != eb.canonical():
            record("commuted-canonical", ea.canonical(), eb.canonical())
        record(
            "commuted-value",
            canon(self.run_local(case, prune=True)),
            canon(self.run_local(commuted, prune=True)),
        )

        # Filter split: q.filter(a AND b) == q.filter(a).filter(b).
        if spec["kind"] == "and":
            store = self.harness.store
            q = store.query(case["table"])
            tr = case.get("time_range")
            if tr is not None:
                q = q.time_range(int(tr[0]), int(tr[1]))
            q = q.filter(expr_from_spec(spec["a"])).filter(
                expr_from_spec(spec["b"])
            )
            result_cache().invalidate()
            record(
                "filter-split",
                canon(self.run_local(case, prune=True)),
                canon(_terminal(q, case)),
            )
        return out


class _ViewInvariantBroken(AssertionError):
    """refresh-vs-rebuild produced different bytes (a real finding)."""
