"""The materialized-view catalog: state, refresh, persistence, serving.

One :class:`ViewCatalog` owns a set of named views
(:class:`~repro.views.definition.ViewDefinition`) and, per view, the
retained per-chunk partial aggregates (:class:`~repro.views.delta
.Segment`) that make maintenance *exact*: a refresh computes partials
over only the rows published since the last refresh
(:func:`~repro.views.delta.compute_segments`) and appends them; the
finalized value is the terminal's merge
(:meth:`repro.engine.terminal.Terminal.merge`) over all retained
segments in row order — the same fold a scatter-gather router applies
to shard partials, so counts and integer-column aggregates are
bit-exact against a direct query (float-column sums carry the usual
last-ulp association caveat).

Consistency model
-----------------

* **Append-only prefix contract.**  Incremental refresh assumes the
  store's first ``rows_total`` rows are byte-identical to the rows the
  retained segments were computed from.  That holds for
  :class:`~repro.ingest.stream.LiveFollower` snapshots (accumulators
  strictly extend; the lifecycle validates it) and for in-place appends
  on one store object.  ``refresh(..., assume_prefix=False)`` — what
  :class:`~repro.serve.lifecycle.StoreLifecycle` uses for path-reload
  candidates — drops the segments and rebuilds instead of trusting the
  prefix.
* **Freshness.**  A view answers a serving request only when it was
  refreshed against the *exact* store generation executing the request
  (fingerprint token + generation + full row coverage).  The lifecycle
  refreshes its catalog against each candidate before publishing it, so
  a published generation's views are already fresh; a view that is
  not (its refresh failed, it was retracted, or the store was swapped
  outside a lifecycle) is never served — requests simply fall through
  to the scanning path.
* **Retraction.**  Because per-chunk partials are retained,
  :meth:`ViewCatalog.retract` can subtract a quarantined/bad chunk by
  dropping its segments and re-merging — no rescan.  A retracted view
  no longer equals a direct query over the full store, so it is marked
  non-servable; the next refresh rebuilds it from the (corrected)
  store and restores servability.

Persistence is atomic temp-file + ``os.replace`` per file:
``catalog.json`` (definitions) plus ``state/<view>.json`` (segments +
freshness).  A crash mid-write leaves the previous snapshot intact; an
unreadable state file is discarded at load and the view rebuilds from
row zero — state is a cache of the data, never the source of truth.
Each state file embeds its definition, so a lost ``catalog.json`` is
recovered by scanning the state directory.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.engine.planner import _copy_value
from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry
from repro.engine.terminal import jsonable
from repro.views.definition import ViewDefinition
from repro.views.delta import Segment, compute_segments, segment_parts

__all__ = ["ViewCatalog", "ViewError", "ViewState"]

logger = logging.getLogger(__name__)

#: On-disk state format revision.
STATE_VERSION = 1


class ViewError(RuntimeError):
    """A catalog operation failed (unknown view, bad retraction, ...)."""


class ViewState:
    """One view's live state: definition + retained segments + freshness."""

    __slots__ = (
        "definition", "store_token", "store_generation", "rows_total",
        "n_groups", "value_dtype", "segments", "retracted", "refreshed_unix",
        "refresh_count", "last_refresh_s", "last_delta_rows", "last_error",
    )

    def __init__(self, definition: ViewDefinition) -> None:
        self.definition = definition
        self.store_token: str | None = None
        self.store_generation: int = 0
        #: Rows of the table covered by the retained segments.
        self.rows_total: int = 0
        #: Global group width at the last refresh (grouped views).
        self.n_groups: int = 0
        #: Aggregated column's dtype name at the last refresh; decides
        #: ``stats``' empty-group sentinels when the table has no rows
        #: and therefore no segment carries the dtype.
        self.value_dtype: str | None = None
        self.segments: list[Segment] = []
        #: Retracted ``[lo, hi)`` row ranges (non-servable until rebuilt).
        self.retracted: list[tuple[int, int]] = []
        self.refreshed_unix: float = 0.0
        self.refresh_count: int = 0
        self.last_refresh_s: float = 0.0
        self.last_delta_rows: int = 0
        self.last_error: str | None = None

    # -- derived -----------------------------------------------------------

    def value(self):
        """Finalize the view: exact merge of retained segments in row order."""
        terminal = self.definition.spec.bind(self.n_groups or None, self.value_dtype)
        return terminal.merge(segment_parts(self.segments))

    def fresh_for(self, store) -> bool:
        """True when this view answers queries against ``store`` exactly."""
        if self.retracted or self.refresh_count == 0:
            return False
        token, gen = store.fingerprint()
        return (
            token == self.store_token
            and gen == self.store_generation
            and self.rows_total == store.n_rows(self.definition.table)
        )

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
            "segments": len(self.segments),
            "retracted": [list(r) for r in self.retracted],
            "generation": self.store_generation,
            "refresh_count": self.refresh_count,
            "refreshed_unix": round(self.refreshed_unix, 3),
            "staleness_s": (
                round(self.staleness_s(), 3) if self.refreshed_unix else None
            ),
            "last_refresh_s": round(self.last_refresh_s, 6),
            "last_delta_rows": self.last_delta_rows,
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
                "value_dtype": self.value_dtype,
            },
            "segments": [s.to_dict() for s in self.segments],
            "retracted": [list(r) for r in self.retracted],
            "refreshed_unix": self.refreshed_unix,
            "refresh_count": self.refresh_count,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ViewState":
        if int(raw.get("version", 0)) != STATE_VERSION:
            raise ViewError(f"unsupported view state version {raw.get('version')!r}")
        state = cls(ViewDefinition.from_dict(raw["definition"]))
        meta = raw.get("store") or {}
        state.store_token = meta.get("token")
        state.store_generation = int(meta.get("generation", 0))
        state.rows_total = int(meta.get("rows", 0))
        state.n_groups = int(meta.get("n_groups", 0))
        state.value_dtype = meta.get("value_dtype")
        state.segments = [Segment.from_dict(s) for s in raw.get("segments", [])]
        state.retracted = [
            (int(lo), int(hi)) for lo, hi in raw.get("retracted", [])
        ]
        state.refreshed_unix = float(raw.get("refreshed_unix", 0.0))
        state.refresh_count = int(raw.get("refresh_count", 0))
        _check_tiling(state.segments, state.retracted, state.rows_total)
        return state


def _check_tiling(
    segments: list[Segment], retracted: list[tuple[int, int]], rows_total: int
) -> None:
    """Segments + retracted ranges must tile ``[0, rows_total)`` exactly."""
    spans = sorted(
        [(s.row_lo, s.row_hi) for s in segments] + [tuple(r) for r in retracted]
    )
    cursor = 0
    for lo, hi in spans:
        if lo != cursor or hi <= lo:
            raise ViewError(
                f"segment coverage broken at row {cursor} (next span [{lo}, {hi}))"
            )
        cursor = hi
    if cursor != rows_total:
        raise ViewError(
            f"segments cover [0, {cursor}) but state claims {rows_total} rows"
        )


def _atomic_write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` with temp-file + rename so a crash never truncates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    os.replace(tmp, path)


class _Serving:
    """One fresh finalized value keyed by its terminal signature."""

    __slots__ = ("name", "fingerprint", "rows", "value", "refreshed_unix")

    def __init__(self, name, fingerprint, rows, value, refreshed_unix) -> None:
        self.name = name
        self.fingerprint = fingerprint
        self.rows = rows
        self.value = value
        self.refreshed_unix = refreshed_unix


class ViewCatalog:
    """Thread-safe registry + maintenance engine for materialized views.

    Args:
        root: directory for the persisted catalog and per-view state
            (created on first write).  ``None`` keeps everything
            in-memory — useful for tests and embedded use.

    Reads (``serve_lookup``, ``get``, ``snapshot``) take a short lock;
    refreshes serialize on their own lock and only mutate state under
    the read lock once the delta pass has finished, so serving is never
    blocked behind a scan.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._lock = threading.RLock()
        self._refresh_lock = threading.Lock()
        self._states: dict[str, ViewState] = {}
        self._serving: dict[tuple, _Serving] = {}
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

    def create_from_query(
        self,
        name: str,
        query,
        op: str,
        column: str | None = None,
        k: int | None = None,
    ) -> ViewState:
        """Register a view captured from a fluent query (see
        :meth:`ViewDefinition.from_query`)."""
        return self.create(ViewDefinition.from_query(name, query, op, column, k))

    def drop(self, name: str) -> None:
        """Remove a view and its persisted state.

        Raises:
            ViewError: unknown view.
        """
        with self._lock:
            state = self._states.pop(name, None)
            if state is None:
                raise ViewError(f"no such view {name!r}")
            self._serving = {
                key: e for key, e in self._serving.items() if e.name != name
            }
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
        (see module docstring) and extends the retained segments with a
        delta pass; ``False`` rebuilds from row zero — correct against
        any store at full-refresh cost.  Never raises for a failing
        view: its error is recorded on the state (and in the flight
        recorder) and the other views still refresh.

        Returns a summary dict: ``{view: {"rows", "delta_rows",
        "elapsed_s", "rebuilt", "error"}}``.
        """
        summary: dict[str, dict] = {}
        with self._refresh_lock:
            if name is not None:
                states = [self.get(name)]  # raises on unknown explicit name
            else:
                with self._lock:
                    states = [self._states[n] for n in sorted(self._states)]
            for state in states:
                summary[state.definition.name] = self._refresh_one(
                    state, store, assume_prefix
                )
        return summary

    def _refresh_one(self, state: ViewState, store, assume_prefix: bool) -> dict:
        d = state.definition
        t0 = time.monotonic()
        try:
            token, gen = store.fingerprint()
            rows_now = store.n_rows(d.table)
            same_store = token == state.store_token
            extend = (
                (same_store or assume_prefix)
                and rows_now >= state.rows_total
                and not state.retracted
                and state.refresh_count > 0
            )
            base_rows = state.rows_total if extend else 0
            new_segments = compute_segments(store, d, base_rows, rows_now)
            terminal = d.terminal(store)
            value = None
            with self._lock:
                if not extend:
                    state.segments = []
                    state.retracted = []
                state.segments.extend(new_segments)
                state.store_token = token
                state.store_generation = gen
                state.rows_total = rows_now
                state.n_groups = int(terminal.n_groups or 0)
                if terminal.value_dtype is not None:
                    state.value_dtype = terminal.value_dtype.name
                state.refreshed_unix = time.time()
                state.refresh_count += 1
                state.last_delta_rows = rows_now - base_rows
                state.last_refresh_s = time.monotonic() - t0
                state.last_error = None
                value = state.value()
                self._install_serving(state, store, value, terminal.signature())
                self._persist_state(state)
            elapsed = time.monotonic() - t0
            _metrics.counter("view_refresh_total", status="ok").inc()
            _metrics.histogram("view_refresh_ms").observe(elapsed * 1000.0)
            changed = state.last_delta_rows > 0 or not extend
            if changed:
                self._notify(
                    {
                        "view": d.name,
                        "seq": state.refresh_count,
                        "rows": state.rows_total,
                        "delta_rows": state.last_delta_rows,
                        "generation": state.store_generation,
                        "refreshed_unix": round(state.refreshed_unix, 3),
                        "value": jsonable(value),
                    }
                )
            return {
                "rows": state.rows_total,
                "delta_rows": state.last_delta_rows,
                "elapsed_s": round(elapsed, 6),
                "rebuilt": not extend,
                "error": None,
            }
        except Exception as exc:  # noqa: BLE001 - recorded, never propagated
            elapsed = time.monotonic() - t0
            with self._lock:
                state.last_error = f"{type(exc).__name__}: {exc}"
            _metrics.counter("view_refresh_total", status="failed").inc()
            _telemetry.flight().record(
                "view_refresh_failed",
                view=d.name,
                error=f"{type(exc).__name__}: {exc}",
            )
            logger.error("refresh of view %s failed: %s", d.name, exc)
            return {
                "rows": state.rows_total,
                "delta_rows": 0,
                "elapsed_s": round(elapsed, 6),
                "rebuilt": False,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def retract(self, name: str, row_lo: int, row_hi: int) -> None:
        """Subtract retained chunks covering ``[row_lo, row_hi)``.

        The range must be exactly tiled by whole retained segments
        (segments are zone-map-chunk aligned, so any chunk range
        qualifies).  The view's value immediately reflects the
        subtraction; it is marked non-servable until a refresh rebuilds
        it against a corrected store.

        Raises:
            ViewError: unknown view or a misaligned range.
        """
        row_lo, row_hi = int(row_lo), int(row_hi)
        if row_hi <= row_lo:
            raise ViewError(f"empty retraction range [{row_lo}, {row_hi})")
        with self._lock:
            state = self._states.get(name)
            if state is None:
                raise ViewError(f"no such view {name!r}")
            inside = [
                s for s in state.segments
                if row_lo <= s.row_lo and s.row_hi <= row_hi
            ]
            covered = sum(s.row_hi - s.row_lo for s in inside)
            if covered != row_hi - row_lo:
                raise ViewError(
                    f"retraction [{row_lo}, {row_hi}) is not tiled by retained "
                    f"segments (covered {covered} of {row_hi - row_lo} rows); "
                    "retract whole zone-map chunks"
                )
            drop = {(s.row_lo, s.row_hi) for s in inside}
            state.segments = [
                s for s in state.segments if (s.row_lo, s.row_hi) not in drop
            ]
            state.retracted.append((row_lo, row_hi))
            state.retracted.sort()
            self._serving = {
                key: e for key, e in self._serving.items() if e.name != name
            }
            self._persist_state(state)
        _telemetry.flight().record(
            "view_retraction", view=name, rows=[row_lo, row_hi]
        )
        logger.warning(
            "view %s: retracted rows [%d, %d) (non-servable until rebuilt)",
            name, row_lo, row_hi,
        )

    # -- serving -----------------------------------------------------------

    @staticmethod
    def _terminal_key(table: str, canonical: str | None, op_name: str, sig) -> tuple:
        return (table, canonical, op_name, tuple(sig) if sig is not None else None)

    def _install_serving(self, state: ViewState, store, value, sig: tuple) -> None:
        """Replace ``state``'s serving entry (caller holds the lock)."""
        self._serving = {
            key: e for key, e in self._serving.items() if e.name != state.definition.name
        }
        if state.retracted:
            return
        d = state.definition
        key = self._terminal_key(d.table, d.where_canonical(), d.spec.op_name, sig)
        self._serving[key] = _Serving(
            name=d.name,
            fingerprint=store.fingerprint(),
            rows=state.rows_total,
            value=value,
            refreshed_unix=state.refreshed_unix,
        )

    def serve_lookup(self, op) -> tuple[object, dict] | None:
        """Answer a compiled request from a fresh view, if one matches.

        ``op`` is a :class:`~repro.engine.query.ExecutableOp`.  A hit
        requires the same terminal signature, the same canonical filter,
        full-table row coverage, and the *exact* store generation the
        view was refreshed against — anything else falls through to the
        scan path.  Returns ``(value_copy, meta)`` or ``None``.
        """
        if op.partials:
            return None
        canonical = op.where.canonical() if op.where is not None else None
        key = self._terminal_key(op.table, canonical, op.op_name, op.sig)
        with self._lock:
            entry = self._serving.get(key)
            if entry is None:
                return None
            if entry.fingerprint != op.store.fingerprint():
                return None
            if op.rows.start != 0 or op.rows.stop != entry.rows:
                return None
            self._hits += 1
            value = _copy_value(entry.value)
            meta = {
                "view": entry.name,
                "view_refreshed_unix": round(entry.refreshed_unix, 3),
            }
        _metrics.counter("view_hits_total", view=entry.name).inc()
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

        Returns ``None`` for a never-refreshed or retracted view.

        Raises:
            ViewError: unknown view.
        """
        with self._lock:
            state = self._states.get(name)
            if state is None:
                raise ViewError(f"no such view {name!r}")
            if state.refresh_count == 0 or state.retracted:
                return None
            return {
                "view": name,
                "seq": state.refresh_count,
                "rows": state.rows_total,
                "delta_rows": state.last_delta_rows,
                "generation": state.store_generation,
                "refreshed_unix": round(state.refreshed_unix, 3),
                "value": jsonable(state.value()),
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
                except (ValueError, KeyError, TypeError, ViewError) as exc:
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
