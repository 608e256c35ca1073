"""The materialized-view catalog: state, refresh, persistence, serving.

One :class:`ViewCatalog` owns a set of named views
(:class:`~repro.views.definition.ViewDefinition`) and, per view, one
retained partial aggregate over the table's rows ``[0, rows)``, in the
terminal's mergeable wire shape (:mod:`repro.engine.terminal`).  A
refresh runs one ``partials=True``
:class:`~repro.engine.query.ExecutableOp` per view over only the rows
published since the last refresh, all of them through one
:func:`~repro.engine.query.run_batch` call (one fused, zone-map-pruned
scan of the new rows), and folds each delta into its view's partial
with the view's own terminal — the fold a scatter-gather router
applies to shard partials.  Counts and integer-column aggregates are
therefore bit-exact against a direct query (float-column sums carry the
usual last-ulp association caveat).  The finalized value is computed
once per refresh, not once per lookup.

Consistency model
-----------------

* **Append-only prefix contract.**  Incremental refresh assumes the
  store's first ``rows`` rows are byte-identical to the rows the
  retained partial was computed from.  That holds for
  :class:`~repro.ingest.stream.LiveFollower` snapshots (accumulators
  strictly extend; the lifecycle validates it) and for in-place appends
  on one store object.  ``refresh(..., assume_prefix=False)`` — what
  :class:`~repro.serve.lifecycle.StoreLifecycle` uses for path-reload
  candidates — drops the partial and rebuilds instead of trusting the
  prefix.
* **Freshness.**  A view is served under the request key
  (:attr:`~repro.engine.query.ExecutableOp.key`) of the whole-table
  request it answers on the generation it was last refreshed against:
  store fingerprint (token + generation), table, row range, canonical
  filter, op and terminal signature.  A request matches only by being
  that request on that exact generation.  The lifecycle refreshes its
  catalog against each candidate before publishing it, so a published
  generation's views are already fresh; a view that is not (its refresh
  failed, or the store was swapped outside a lifecycle) is never served
  — requests simply fall through to the scanning path.

Persistence is atomic temp-file + ``os.replace`` per file:
``catalog.json`` (definitions) plus ``state/<view>.json`` (definition,
store anchor and partial).  A crash mid-write leaves the previous
snapshot intact; an unreadable state file (including one of an older
format) is discarded at load and the view rebuilds from row zero —
state is a cache of the data, never the source of truth.  Each state
file embeds its definition, so a lost ``catalog.json`` is recovered by
scanning the state directory.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.engine.executor import SerialExecutor
from repro.engine.planner import _copy_value
from repro.engine.query import ExecutableOp, run_batch
from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry
from repro.engine.terminal import jsonable
from repro.views.definition import ViewDefinition

__all__ = ["ViewCatalog", "ViewError", "ViewState"]

logger = logging.getLogger(__name__)

#: On-disk state format revision.  Version 1 kept one partial per
#: zone-map chunk; its files are discarded at load and rebuilt.
STATE_VERSION = 2


class ViewError(RuntimeError):
    """A catalog operation failed (unknown view, duplicate name, ...)."""


class ViewState:
    """One view's live state: definition + retained partial + freshness."""

    __slots__ = (
        "definition", "store_token", "store_generation", "rows_total",
        "n_groups", "partial", "_value", "refreshed_unix",
        "refresh_count", "last_refresh_s", "last_delta_rows", "last_error",
        "last_source",
    )

    def __init__(self, definition: ViewDefinition) -> None:
        self.definition = definition
        self.store_token: str | None = None
        self.store_generation: int = 0
        #: Rows of the table ``partial`` covers: ``[0, rows_total)``.
        self.rows_total: int = 0
        #: Global group width at the last refresh (grouped views).
        self.n_groups: int = 0
        #: The terminal's wire-shaped partial over ``[0, rows_total)``
        #: (NumPy arrays after a refresh, JSON lists after a load; a
        #: ``stats`` partial carries its value dtype); ``None`` until
        #: the first refresh.
        self.partial = None
        self._value = None
        self.refreshed_unix: float = 0.0
        self.refresh_count: int = 0
        self.last_refresh_s: float = 0.0
        self.last_delta_rows: int = 0
        self.last_error: str | None = None
        #: Who asked for the last refresh (``initial``, ``poll``,
        #: ``reload``, ``manual``, ...).
        self.last_source: str | None = None

    # -- derived -----------------------------------------------------------

    def _finalize(self):
        terminal = self.definition.spec.bind(self.n_groups or None)
        return terminal.merge([] if self.partial is None else [self.partial])

    def value(self):
        """The view's finalized value (a copy; finalized once per refresh)."""
        if self._value is None:
            self._value = self._finalize()
        return _copy_value(self._value)

    def staleness_s(self, now: float | None = None) -> float:
        if not self.refreshed_unix:
            return float("inf")
        return max(0.0, (now if now is not None else time.time()) - self.refreshed_unix)

    def snapshot(self) -> dict:
        """JSON-ready state summary for ``view list`` and ``/varz``."""
        return {
            "name": self.definition.name,
            "terminal": self.definition.describe(),
            "rows": self.rows_total,
            "generation": self.store_generation,
            "refresh_count": self.refresh_count,
            "refreshed_unix": round(self.refreshed_unix, 3),
            "staleness_s": (
                round(self.staleness_s(), 3) if self.refreshed_unix else None
            ),
            "last_refresh_s": round(self.last_refresh_s, 6),
            "last_delta_rows": self.last_delta_rows,
            "last_source": self.last_source,
            "last_error": self.last_error,
        }

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": STATE_VERSION,
            "definition": self.definition.to_dict(),
            "store": {
                "token": self.store_token,
                "generation": self.store_generation,
                "rows": self.rows_total,
                "n_groups": self.n_groups,
            },
            "partial": jsonable(self.partial),
            "refreshed_unix": self.refreshed_unix,
            "refresh_count": self.refresh_count,
            "last_source": self.last_source,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ViewState":
        """Decode a state file; the partial is finalized here, so a
        damaged one is rejected at load, not at the first lookup.

        Raises:
            ViewError: another format version.
            ValueError / LookupError / TypeError: a damaged document.
        """
        if int(raw.get("version", 0)) != STATE_VERSION:
            raise ViewError(f"unsupported view state version {raw.get('version')!r}")
        state = cls(ViewDefinition.from_dict(raw["definition"]))
        meta = raw["store"]
        state.store_token = meta.get("token")
        state.store_generation = int(meta.get("generation", 0))
        state.rows_total = int(meta.get("rows", 0))
        state.n_groups = int(meta.get("n_groups", 0))
        state.partial = raw["partial"]
        state.refreshed_unix = float(raw.get("refreshed_unix", 0.0))
        state.refresh_count = int(raw.get("refresh_count", 0))
        state.last_source = raw.get("last_source")
        if (state.partial is None) != (state.refresh_count == 0):
            raise ViewError("a refreshed view needs a partial, a new one none")
        state._value = state._finalize()
        return state


def _atomic_write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` with temp-file + rename so a crash never truncates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    os.replace(tmp, path)


class ViewCatalog:
    """Thread-safe registry + maintenance engine for materialized views.

    Args:
        root: directory for the persisted catalog and per-view state
            (created on first write).  ``None`` keeps everything
            in-memory — useful for tests and embedded use.

    Reads (``serve_lookup``, ``get``, ``snapshot``) take a short lock;
    refreshes serialize on their own lock and only mutate state under
    the read lock once the delta scan has finished, so serving is never
    blocked behind a scan.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._lock = threading.RLock()
        self._refresh_lock = threading.Lock()
        self._states: dict[str, ViewState] = {}
        #: Request key -> the view that answers it.
        self._served: dict[tuple, ViewState] = {}
        self._listeners: list = []
        self._hits = 0
        if self.root is not None:
            self._load()

    # -- registration ------------------------------------------------------

    def create(self, definition: ViewDefinition) -> ViewState:
        """Register a view; persists the catalog.

        Raises:
            ViewError: duplicate name.
            ValueError: invalid definition.
        """
        definition.validate()
        with self._lock:
            if definition.name in self._states:
                raise ViewError(f"view {definition.name!r} already exists")
            state = ViewState(definition)
            self._states[definition.name] = state
            self._persist_catalog()
            self._persist_state(state)
        logger.info("registered view %s: %s", definition.name, definition.describe())
        return state

    def drop(self, name: str) -> None:
        """Remove a view and its persisted state.

        Raises:
            ViewError: unknown view.
        """
        with self._lock:
            state = self._states.pop(name, None)
            if state is None:
                raise ViewError(f"no such view {name!r}")
            self._served = {k: s for k, s in self._served.items() if s is not state}
            self._persist_catalog()
            if self.root is not None:
                try:
                    (self._state_path(name)).unlink(missing_ok=True)
                except OSError:
                    pass

    def get(self, name: str) -> ViewState:
        with self._lock:
            state = self._states.get(name)
        if state is None:
            raise ViewError(f"no such view {name!r}")
        return state

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._states)

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._states

    # -- refresh -----------------------------------------------------------

    def refresh(
        self,
        store,
        name: str | None = None,
        assume_prefix: bool = True,
        source: str = "manual",
    ) -> dict:
        """Bring one view (or all) up to date against ``store``.

        ``assume_prefix=True`` trusts the append-only prefix contract
        (see module docstring) and folds a delta over the new rows into
        the retained partial; ``False`` rebuilds from row zero — correct
        against any store at full-refresh cost.  Every view's delta runs
        in one :func:`~repro.engine.query.run_batch` call.  Never raises
        for a failing view: its error is recorded on the state (and in
        the flight recorder) and the other views still refresh.
        ``source`` names who asked (``initial``, ``poll``, ``reload``,
        ``manual``); it is recorded on each view as ``last_source``.

        Returns a summary dict: ``{view: {"rows", "delta_rows",
        "elapsed_s", "rebuilt", "error"}}``.  A view dropped while the
        refresh runs is left out (and stays dropped).
        """
        summary: dict[str, dict] = {}
        with self._refresh_lock:
            if name is not None:
                states = [self.get(name)]  # raises on unknown explicit name
            else:
                with self._lock:
                    states = [self._states[n] for n in sorted(self._states)]
            t0 = time.monotonic()
            jobs: list[tuple[ViewState, bool, ExecutableOp]] = []
            for state in states:
                try:
                    jobs.append((state, *self._delta_op(state, store, assume_prefix)))
                except Exception as exc:  # noqa: BLE001 - unknown column, ...
                    summary[state.definition.name] = self._failed(
                        state, exc, source, t0
                    )
            answers = run_batch([op for _, _, op in jobs], SerialExecutor())
            for (state, extend, op), answer in zip(jobs, answers):
                try:
                    if isinstance(answer, Exception):
                        raise answer
                    info = self._fold(state, op, answer.value, extend, source, t0)
                except Exception as exc:  # noqa: BLE001 - recorded, never propagated
                    info = self._failed(state, exc, source, t0)
                if info is not None:
                    summary[state.definition.name] = info
        return summary

    @staticmethod
    def _delta_op(state: ViewState, store, assume_prefix: bool):
        """``(extend, op)``: the ``partials=True`` op over the rows the
        retained partial does not cover yet (all of them on a rebuild)."""
        d = state.definition
        rows_now = store.n_rows(d.table)
        extend = (
            (assume_prefix or store.fingerprint()[0] == state.store_token)
            and rows_now >= state.rows_total
            and state.refresh_count > 0
        )
        base_rows = state.rows_total if extend else 0
        op = ExecutableOp(
            store, d.table, d.spec, d.parsed_where(),
            slice(base_rows, rows_now), partials=True,
        )
        return extend, op

    def _fold(
        self, state: ViewState, op: ExecutableOp, delta, extend: bool,
        source: str, t0: float,
    ) -> dict | None:
        """Fold ``delta`` into the retained partial, then serve, persist
        and announce the new value.  ``None`` when the view was dropped
        while its delta ran: it is then neither served nor persisted."""
        d = state.definition
        terminal = op.terminal
        parts = [state.partial, delta] if extend else [delta]
        folded = terminal.fold([terminal.from_wire(p) for p in parts])
        value = terminal.finalize(folded)
        token, gen = op.store.fingerprint()
        key = ExecutableOp(
            op.store, d.table, d.spec, op.where, slice(0, op.rows.stop)
        ).key
        with self._lock:
            if self._states.get(d.name) is not state:
                return None
            state.partial = terminal.to_wire(folded)
            state._value = value
            state.store_token = token
            state.store_generation = gen
            state.rows_total = op.rows.stop
            state.n_groups = int(terminal.n_groups or 0)
            state.refreshed_unix = time.time()
            state.refresh_count += 1
            state.last_delta_rows = op.rows.stop - op.rows.start
            state.last_refresh_s = time.monotonic() - t0
            state.last_error = None
            state.last_source = source
            self._served = {k: s for k, s in self._served.items() if s is not state}
            self._served[key] = state
            self._persist_state(state)
        elapsed = time.monotonic() - t0
        _metrics.counter("view_refresh_total", status="ok").inc()
        _metrics.histogram("view_refresh_ms").observe(elapsed * 1000.0)
        if state.last_delta_rows > 0 or not extend:
            self._notify(self._event(state, value))
        return {
            "rows": state.rows_total,
            "delta_rows": state.last_delta_rows,
            "elapsed_s": round(elapsed, 6),
            "rebuilt": not extend,
            "error": None,
        }

    def _failed(self, state: ViewState, exc: Exception, source: str, t0: float) -> dict:
        """Record a failed refresh on the view; its previous value stays
        (and stays fresh only for the store it was computed against)."""
        d = state.definition
        error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            state.last_error = error
            state.last_source = source
        _metrics.counter("view_refresh_total", status="failed").inc()
        _telemetry.flight().record(
            "view_refresh_failed", view=d.name, source=source, error=error,
        )
        logger.error("refresh of view %s failed: %s", d.name, exc)
        return {
            "rows": state.rows_total,
            "delta_rows": 0,
            "elapsed_s": round(time.monotonic() - t0, 6),
            "rebuilt": False,
            "error": error,
        }

    # -- serving -----------------------------------------------------------

    def serve_lookup(self, op) -> tuple[object, dict] | None:
        """Answer a compiled request from a fresh view, if one matches.

        ``op`` is a :class:`~repro.engine.query.ExecutableOp`; it hits
        when its request key is the one a view was refreshed under (see
        the module docstring) — anything else falls through to the scan
        path.  Returns ``(value_copy, meta)`` or ``None``.
        """
        with self._lock:
            state = self._served.get(op.key)
            if state is None:
                return None
            self._hits += 1
            value = state.value()
            name = state.definition.name
            meta = {
                "view": name,
                "view_refreshed_unix": round(state.refreshed_unix, 3),
            }
        _metrics.counter("view_hits_total", view=name).inc()
        return value, meta

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    # -- subscriptions -----------------------------------------------------

    def add_listener(self, fn) -> None:
        """Register ``fn(event_dict)`` called after each changing refresh.

        Listeners run on the refreshing thread — for a lifecycle's
        catalog, the publishing one — so they must only enqueue;
        exceptions are swallowed (a broken subscriber must not fail
        maintenance).
        """
        with self._lock:
            self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    def current_event(self, name: str) -> dict | None:
        """The event a subscriber would have seen for ``name``'s latest
        refresh — replayed to (re)connecting subscribers so a dropped
        connection never strands a client on a stale value.

        Returns ``None`` for a never-refreshed view.

        Raises:
            ViewError: unknown view.
        """
        with self._lock:
            state = self._states.get(name)
            if state is None:
                raise ViewError(f"no such view {name!r}")
            if state.refresh_count == 0:
                return None
            return self._event(state, state.value())

    @staticmethod
    def _event(state: ViewState, value) -> dict:
        return {
            "view": state.definition.name,
            "seq": state.refresh_count,
            "rows": state.rows_total,
            "delta_rows": state.last_delta_rows,
            "generation": state.store_generation,
            "refreshed_unix": round(state.refreshed_unix, 3),
            "value": jsonable(value),
        }

    def _notify(self, event: dict) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for fn in listeners:
            try:
                fn(event)
            except Exception:  # noqa: BLE001
                logger.exception("view listener failed for %s", event.get("view"))

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Catalog state for ``/varz`` and ``view list``."""
        with self._lock:
            return {
                "root": str(self.root) if self.root is not None else None,
                "hits": self._hits,
                "views": {
                    name: state.snapshot()
                    for name, state in sorted(self._states.items())
                },
            }

    def update_staleness_gauges(self) -> None:
        """Set ``view_staleness_s{view}`` to each view's age now (the ops
        plane calls this on every ``/metrics`` scrape)."""
        now = time.time()
        with self._lock:
            states = list(self._states.values())
        for state in states:
            if state.refreshed_unix:
                _metrics.gauge("view_staleness_s", view=state.definition.name).set(
                    round(state.staleness_s(now), 3)
                )

    # -- persistence -------------------------------------------------------

    def _catalog_path(self) -> Path:
        return self.root / "catalog.json"

    def _state_path(self, name: str) -> Path:
        return self.root / "state" / f"{name}.json"

    def _persist_catalog(self) -> None:
        if self.root is None:
            return
        _atomic_write_json(
            self._catalog_path(),
            {
                "version": STATE_VERSION,
                "views": [
                    self._states[name].definition.to_dict()
                    for name in sorted(self._states)
                ],
            },
        )

    def _persist_state(self, state: ViewState) -> None:
        if self.root is None:
            return
        _atomic_write_json(self._state_path(state.definition.name), state.to_dict())

    def _load(self) -> None:
        """Recover catalog + state from disk; tolerant of damage.

        Unreadable per-view state discards to an empty (rebuild-needed)
        state; an unreadable ``catalog.json`` falls back to scanning the
        state directory, whose files embed their definitions.
        """
        definitions: dict[str, ViewDefinition] = {}
        cat_path = self._catalog_path()
        if cat_path.exists():
            try:
                doc = json.loads(cat_path.read_text(encoding="utf-8"))
                for raw in doc.get("views", []):
                    d = ViewDefinition.from_dict(raw)
                    definitions[d.name] = d
            except (ValueError, KeyError, TypeError) as exc:
                logger.warning(
                    "catalog.json unreadable (%s); recovering from state files",
                    exc,
                )
        state_dir = self.root / "state"
        if state_dir.is_dir():
            for path in sorted(state_dir.glob("*.json")):
                name = path.stem
                try:
                    state = ViewState.from_dict(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                    if name != state.definition.name:
                        raise ViewError(
                            f"state file {path.name} holds view "
                            f"{state.definition.name!r}"
                        )
                    # In-process store tokens do not survive a restart:
                    # recovered state serves nothing until its first
                    # refresh re-anchors it to a live store.
                    self._states[name] = state
                    definitions.pop(name, None)
                except (ValueError, LookupError, TypeError, ViewError) as exc:
                    logger.warning(
                        "view state %s unreadable (%s); view will rebuild",
                        path.name, exc,
                    )
                    _telemetry.flight().record(
                        "view_state_discarded", view=name,
                        error=f"{type(exc).__name__}: {exc}",
                    )
        # Definitions with no (usable) state start empty and rebuild.
        for name, d in definitions.items():
            self._states[name] = ViewState(d)
        if self._states:
            logger.info(
                "loaded view catalog: %s", ", ".join(sorted(self._states))
            )
