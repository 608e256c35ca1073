"""Zero-downtime store lifecycle: validated hot reload with generation pinning.

The paper's pipeline rebuilds its dataset offline; a live server cannot —
GDELT lands two new archives every 15 minutes and the ROADMAP north-star
serves queries continuously while they do.  :class:`StoreLifecycle` is
the layer that rolls the dataset forward *under load*:

* It owns the **current** refcounted :class:`~repro.engine.store.GdeltStore`
  generation.  Query paths never touch the store directly — they take a
  :class:`StoreLease` (:meth:`StoreLifecycle.pin`), which retains the
  store so an in-flight scan keeps its arrays, derived caches, and mmaps
  alive even if a reload publishes a successor mid-scan.
* New generations come from :meth:`reload` (an explicit dataset path,
  e.g. after a converter run) or :meth:`poll` (a
  :class:`~repro.ingest.stream.LiveFollower` snapshot).  Every candidate
  is **validated before publish** — storage checksums via
  :func:`repro.storage.verify.verify_dataset` for on-disk candidates,
  plus row-count / zone-map sanity for all of them — and a failed
  candidate is discarded while the old generation keeps serving
  (rollback is the default state, not an action).
* Publishing is an atomic pointer swap under a lock; the lifecycle then
  drops its creator reference on the old store, so the *last pinned
  query* to finish releases its memory.  Planner result-cache keys
  embed the store fingerprint (token, generation), so a response can
  never mix data across generations and stale cache hits are
  structurally impossible.
* A lifecycle built with ``views=`` (a
  :class:`~repro.views.catalog.ViewCatalog`) refreshes those views
  against every validated candidate *before* the swap, on the
  publishing thread, so a generation is published with its views
  already fresh and no request on it falls through to a scan.  A
  ``poll`` candidate extends them incrementally (``_validate`` has just
  checked it strictly extends the live generation); a path ``reload``
  may swap in any dataset, so it rebuilds them.  A failing view is
  recorded on that view and never blocks the publication.

``SIGHUP`` is the conventional reload trigger: the handler only sets a
flag (:meth:`request_reload`), and the serve main loop calls
:meth:`run_pending` — reloading on the signal-handling frame itself
would race the serve workers.  ``/readyz`` surfaces :attr:`reloading` so
load balancers can expect elevated latency during the swap window.
"""

from __future__ import annotations

import logging
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.store import GdeltStore
from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry
from repro.obs.trace import span as _span
from repro.storage.format import StorageError
from repro.storage.verify import verify_dataset

__all__ = ["LifecycleError", "ReloadResult", "StoreLease", "StoreLifecycle"]

logger = logging.getLogger(__name__)

#: Tables every candidate generation must be able to serve.
_TABLES = ("events", "mentions")


class LifecycleError(RuntimeError):
    """A lifecycle operation failed (validation, missing follower, ...)."""


@dataclass(slots=True)
class ReloadResult:
    """Outcome of one :meth:`StoreLifecycle.reload` / :meth:`poll` call."""

    ok: bool
    changed: bool
    generation: int
    rows: dict[str, int] = field(default_factory=dict)
    error: str | None = None
    elapsed_s: float = 0.0
    #: Per-view refresh summary (:meth:`ViewCatalog.refresh`) of a
    #: published generation; empty without a catalog.
    views: dict[str, dict] = field(default_factory=dict)


class StoreLease:
    """A pinned reference to one published store generation.

    Holding a lease guarantees the store's resources stay live for the
    lease's lifetime regardless of reloads.  Release exactly once —
    idempotent, and usable as a context manager::

        with lifecycle.pin() as lease:
            result = lease.store.query("mentions").count()
    """

    __slots__ = ("store", "generation", "_released")

    def __init__(self, store: GdeltStore, generation: int) -> None:
        self.store = store
        self.generation = generation
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.store.release()

    def __enter__(self) -> "StoreLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class StoreLifecycle:
    """Owns the live store generation chain for a serving process.

    Args:
        store: the initial generation (the lifecycle adopts its creator
            reference and releases it when superseded or closed).
        follower: optional :class:`~repro.ingest.stream.LiveFollower`;
            enables :meth:`poll` and makes ``SIGHUP`` poll instead of
            re-opening ``reload_path``.
        reload_path: dataset directory re-opened by ``SIGHUP``-triggered
            reloads when no follower is configured.
        verify_storage: run checksum verification on on-disk candidates
            before publish (skipped for in-memory snapshots, which were
            never serialized).
        mode: ``GdeltStore.open`` mode for path reloads.
        breakers: optional :class:`~repro.serve.breaker.BreakerBoard`;
            reload outcomes feed its ``"reload"`` class, and
            :meth:`run_pending` fast-fails while that breaker is open —
            a wedged reload source stops being retried on every SIGHUP.
        views: optional :class:`~repro.views.catalog.ViewCatalog` served
            beside the store; refreshed against the initial store here
            and against every candidate before it is published.
    """

    def __init__(
        self,
        store: GdeltStore,
        follower=None,
        reload_path: Path | None = None,
        verify_storage: bool = True,
        mode: str = "memory",
        breakers=None,
        views=None,
    ) -> None:
        self._lock = threading.Lock()
        self._current = store
        self._generation = 1
        self._reloading = False
        self._closed = False
        self.follower = follower
        self.reload_path = Path(reload_path) if reload_path is not None else None
        self.verify_storage = verify_storage
        self.mode = mode
        self.breakers = breakers
        self.views = views
        self._reload_requested = threading.Event()
        self._history: list[dict] = [self._entry(store, "initial")]
        _metrics.gauge("store_generation").set(self._generation)
        self._refresh_views(store, "initial")

    # -- pinning -----------------------------------------------------------

    @property
    def current(self) -> GdeltStore:
        """Unpinned peek at the live generation (introspection only).

        Query paths must use :meth:`pin` — this reference can be
        released by a concurrent reload at any moment.
        """
        with self._lock:
            return self._current

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    @property
    def reloading(self) -> bool:
        """True while a candidate is being built/validated/published."""
        with self._lock:
            return self._reloading

    def pin(self) -> StoreLease:
        """Retain the current generation; release via the lease."""
        with self._lock:
            if self._closed:
                raise LifecycleError("lifecycle is closed")
            return StoreLease(self._current.retain(), self._generation)

    # -- reload paths ------------------------------------------------------

    def reload(self, path: Path | None = None) -> ReloadResult:
        """Open, validate, and publish a dataset directory.

        Never raises on a bad candidate: validation failure rolls back
        (the old generation keeps serving), records a ``reload_failed``
        flight event, and returns ``ok=False``.

        Raises:
            LifecycleError: only for caller errors — no path available,
                or the lifecycle already closed.
        """
        path = Path(path) if path is not None else self.reload_path
        if path is None:
            raise LifecycleError("reload needs a dataset path")
        return self._attempt("reload", lambda: self._open_candidate(path), path)

    def poll(self) -> ReloadResult:
        """Poll the follower; publish a validated snapshot if data landed.

        Raises:
            LifecycleError: when no follower is configured or the
                lifecycle already closed.
        """
        if self.follower is None:
            raise LifecycleError("poll needs a LiveFollower")

        def build() -> GdeltStore | None:
            result = self.follower.poll()
            if result.idle:
                return None
            return self.follower.snapshot()

        return self._attempt("poll", build, None)

    def _open_candidate(self, path: Path) -> GdeltStore:
        if self.verify_storage:
            report = verify_dataset(path)
            # "unchecked" (no CRC recorded) degrades to a warning:
            # refusing to serve data we merely cannot attest would turn
            # a metadata gap into an outage.
            hard = [i for i in report.issues if i.kind != "unchecked"]
            if hard:
                raise StorageError(
                    f"candidate {path} failed verification: "
                    + "; ".join(str(i) for i in hard[:5])
                )
            if report.issues:
                logger.warning(
                    "candidate %s has %d unchecked file(s)",
                    path, len(report.issues),
                )
        return GdeltStore.open(path, mode=self.mode)

    def _attempt(self, source: str, build, path: Path | None) -> ReloadResult:
        with self._lock:
            if self._closed:
                raise LifecycleError("lifecycle is closed")
            if self._reloading:
                # One reload at a time; concurrent triggers coalesce.
                return ReloadResult(
                    ok=False, changed=False, generation=self._generation,
                    error="reload already in progress",
                )
            self._reloading = True
        t0 = time.monotonic()
        candidate: GdeltStore | None = None
        try:
            with _span("serve.reload", source=source):
                candidate = build()
                if candidate is None:  # idle poll
                    return ReloadResult(
                        ok=True, changed=False, generation=self.generation,
                        elapsed_s=time.monotonic() - t0,
                    )
                rows = self._validate(candidate, source)
                views = self._refresh_views(candidate, source)
                old, gen = self._publish(candidate, source, rows)
            candidate = None  # published: lifecycle owns the reference now
            old.release()
            elapsed = time.monotonic() - t0
            _metrics.counter("reload_total", status="ok").inc()
            _metrics.histogram("reload_seconds").observe(elapsed)
            _telemetry.flight().record(
                "reload_ok", source=source, generation=gen,
                rows=dict(rows), elapsed_s=round(elapsed, 6),
            )
            logger.info(
                "published store generation %d from %s (%s rows) in %.3fs",
                gen, source, rows, elapsed,
            )
            if self.breakers is not None:
                self.breakers.success("reload")
            return ReloadResult(
                ok=True, changed=True, generation=gen, rows=rows,
                elapsed_s=elapsed, views=views,
            )
        except (StorageError, OSError, ValueError) as exc:
            if candidate is not None:
                candidate.release()
            _metrics.counter("reload_total", status="failed").inc()
            _telemetry.flight().record(
                "reload_failed",
                source=source,
                path=str(path) if path is not None else None,
                error=f"{type(exc).__name__}: {exc}",
            )
            logger.error("reload from %s failed, keeping generation %d: %s",
                         source, self.generation, exc)
            if self.breakers is not None:
                self.breakers.failure("reload")
            return ReloadResult(
                ok=False, changed=False, generation=self.generation,
                error=f"{type(exc).__name__}: {exc}",
                elapsed_s=time.monotonic() - t0,
            )
        finally:
            with self._lock:
                self._reloading = False

    # -- validation + publish ---------------------------------------------

    def _validate(self, candidate: GdeltStore, source: str) -> dict[str, int]:
        """Row-count and zone-map sanity; raises StorageError on failure."""
        rows: dict[str, int] = {}
        for table in _TABLES:
            rows[table] = candidate.n_rows(table)  # raises on ragged/empty
            zm = candidate.zone_maps(table)
            if rows[table] > 0 and (not zm.mins or zm.n_rows != rows[table]):
                raise StorageError(
                    f"candidate table {table!r} zone maps inconsistent: "
                    f"{len(zm.mins)} columns over {zm.n_rows} rows, "
                    f"table has {rows[table]}"
                )
        if source == "poll":
            # Follower snapshots strictly extend: shrinking row counts
            # mean the accumulators (or the master list) went backwards.
            with self._lock:
                current = self._current
            for table, n in rows.items():
                have = current.n_rows(table)
                if n < have:
                    raise StorageError(
                        f"snapshot shrank table {table!r}: {n} < {have}"
                    )
        return rows

    def _publish(
        self, candidate: GdeltStore, source: str, rows: dict[str, int]
    ) -> tuple[GdeltStore, int]:
        with self._lock:
            old = self._current
            self._current = candidate
            self._generation += 1
            gen = self._generation
            entry = self._entry(candidate, source, rows)
            self._history.append(entry)
            if len(self._history) > 32:
                del self._history[:-32]
        _metrics.gauge("store_generation").set(gen)
        return old, gen

    def _entry(
        self, store: GdeltStore, source: str, rows: dict[str, int] | None = None
    ) -> dict:
        if rows is None:
            rows = {t: store.n_rows(t) for t in _TABLES}
        return {
            "generation": self._generation,
            "source": source,
            "fingerprint": list(store.fingerprint()),
            "rows": dict(rows),
            "published_unix": time.time(),
        }

    def _refresh_views(self, store: GdeltStore, source: str) -> dict[str, dict]:
        """Bring the catalog's views up to date against ``store``.

        Only a path ``reload`` rebuilds: the initial store and ``poll``
        snapshots (checked by :meth:`_validate`) extend the prefix the
        views were computed from.  Never raises for a failing view — the
        catalog records (and logs) the error on it.
        """
        if self.views is None:
            return {}
        return self.views.refresh(
            store, assume_prefix=source != "reload", source=source
        )

    # -- SIGHUP plumbing ---------------------------------------------------

    def request_reload(self) -> None:
        """Flag a reload; safe to call from a signal handler."""
        self._reload_requested.set()

    def run_pending(self) -> ReloadResult | None:
        """Perform a requested reload, if any (call from the main loop)."""
        if not self._reload_requested.is_set():
            return None
        self._reload_requested.clear()
        if self.breakers is not None:
            allowed, retry_after = self.breakers.allow("reload")
            if not allowed:
                return ReloadResult(
                    ok=False, changed=False, generation=self.generation,
                    error=f"reload breaker open (retry in {retry_after:.1f}s)",
                )
        if self.follower is not None:
            return self.poll()
        return self.reload()

    def install_sighup(self) -> bool:
        """Route ``SIGHUP`` to :meth:`request_reload` (main thread only).

        Returns False on platforms without SIGHUP or off the main
        thread, where signal handlers cannot be installed.
        """
        if not hasattr(signal, "SIGHUP"):
            return False
        try:
            signal.signal(signal.SIGHUP, lambda signum, frame: self.request_reload())
        except ValueError:  # not the main thread
            return False
        return True

    # -- introspection / teardown -----------------------------------------

    def history(self) -> list[dict]:
        """Publication history (bounded), newest last — for ``/varz``."""
        with self._lock:
            return [dict(e) for e in self._history]

    def snapshot(self) -> dict:
        """Lifecycle state for ``/varz``."""
        with self._lock:
            return {
                "generation": self._generation,
                "reloading": self._reloading,
                "store_refs": self._current.refs,
                "rows": {t: self._current.n_rows(t) for t in _TABLES},
                "history": [dict(e) for e in self._history],
            }

    def close(self) -> None:
        """Drop the creator reference on the live generation; idempotent.

        Pinned leases still in flight keep the store alive until they
        release.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            current = self._current
        current.release()

    def __enter__(self) -> "StoreLifecycle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
