"""The fault injector: deterministic runtime-fault firing.

Instrumented code declares *fault points* — named places where the real
system could fail (a read, a chunk execution, a file commit).  With no
injector installed, :func:`fault_point` is a single ``None`` check.
With one installed, the injector consults the plan: a seeded hash of
``(seed, spec, site, key)`` decides whether this key is afflicted, and
the attempt number decides whether the fault still fires (transient
faults stop after ``fail_attempts``, which is what a retry loop needs
to recover deterministically).

Every injection is recorded in a thread-safe :class:`FaultReceipt` —
the ground truth that resilience tests compare retry/quarantine
counters against.  :meth:`FaultInjector.preview` recomputes the
selection as a pure function, so a test can know which keys a plan
afflicts before it runs anything.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import metrics as _metrics
from repro.obs import telemetry as _telemetry

__all__ = [
    "TransientFault",
    "PermanentFault",
    "InjectedCrash",
    "InjectedFault",
    "FaultReceipt",
    "FaultInjector",
    "install",
    "clear",
    "current",
    "enabled",
    "active",
    "fault_point",
    "site_active",
]


class TransientFault(OSError):
    """An injected error that a retry is expected to absorb."""


class PermanentFault(OSError):
    """An injected error that never goes away; quarantine is the cure."""


class InjectedCrash(RuntimeError):
    """A simulated kill of the whole pipeline (checkpoint-resume tests)."""


@dataclass(frozen=True, slots=True)
class InjectedFault:
    """One recorded injection."""

    site: str
    key: str
    kind: str
    attempt: int
    detail: str | None = None


class FaultReceipt:
    """Thread-safe ledger of every fault actually injected."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[InjectedFault] = []

    def add(self, event: InjectedFault) -> None:
        with self._lock:
            self._events.append(event)

    def events(
        self, site: str | None = None, kind: str | None = None
    ) -> list[InjectedFault]:
        with self._lock:
            return [
                e
                for e in self._events
                if (site is None or e.site == site)
                and (kind is None or e.kind == kind)
            ]

    def count(self, site: str | None = None, kind: str | None = None) -> int:
        return len(self.events(site, kind))

    def keys(self, site: str | None = None, kind: str | None = None) -> set[str]:
        return {e.key for e in self.events(site, kind)}


def _selection_fraction(seed: int, spec: FaultSpec, site: str, key: str) -> float:
    """Stable per-key uniform draw in [0, 1)."""
    import hashlib  # lazy: loads OpenSSL, which only an active plan needs

    token = f"{seed}|{spec.site}|{spec.kind}|{spec.key}|{site}|{key}".encode()
    h = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(h, "big") / 2.0**64


def _flip_bit(path: Path, seed: int, key: str) -> str:
    """Flip one deterministic bit of ``path``; returns a description."""
    size = path.stat().st_size
    if size == 0:
        return f"{path}: empty, not flipped"
    import hashlib

    token = f"{seed}|bitflip|{key}".encode()
    h = hashlib.blake2b(token, digest_size=16).digest()
    offset = int.from_bytes(h[:8], "big") % size
    bit = h[8] % 8
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ (1 << bit)]))
    return f"{path}: bit {bit} of byte {offset} flipped"


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at runtime fault points."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.receipt = FaultReceipt()
        self._lock = threading.Lock()
        self._injected_per_spec = [0] * len(plan.specs)
        self._site_cache: dict[str, tuple[int, ...]] = {}

    # -- selection (pure) --------------------------------------------------

    def _spec_indices(self, site: str) -> tuple[int, ...]:
        cached = self._site_cache.get(site)
        if cached is None:
            cached = tuple(
                i
                for i, s in enumerate(self.plan.specs)
                if fnmatchcase(site, s.site)
            )
            self._site_cache[site] = cached
        return cached

    def site_active(self, site: str) -> bool:
        """Whether any spec can ever fire at ``site`` (cheap, cached)."""
        return bool(self._spec_indices(site))

    def selects(self, spec: FaultSpec, site: str, key: str) -> bool:
        """Pure per-key decision: is ``key`` afflicted by ``spec``?"""
        if not fnmatchcase(site, spec.site):
            return False
        if spec.key is not None and not fnmatchcase(key, spec.key):
            return False
        if spec.prob >= 1.0:
            return True
        return _selection_fraction(self.plan.seed, spec, site, key) < spec.prob

    def preview(self, site: str, keys) -> dict[str, str]:
        """Ground truth computed before anything runs: key → kind of the
        first spec that would fire at attempt 0.  Ignores
        ``max_injections``."""
        out: dict[str, str] = {}
        for key in keys:
            key = str(key)
            for i in self._spec_indices(site):
                if self.selects(self.plan.specs[i], site, key):
                    out[key] = self.plan.specs[i].kind
                    break
        return out

    # -- firing ------------------------------------------------------------

    def fire(
        self, site: str, key: str, attempt: int, path: Path | None = None
    ) -> None:
        """Evaluate every matching spec; raise/sleep/flip as planned."""
        for i in self._spec_indices(site):
            spec = self.plan.specs[i]
            if spec.kind in ("transient", "slow", "bitflip"):
                if attempt >= spec.fail_attempts:
                    continue
            if not self.selects(spec, site, key):
                continue
            with self._lock:
                if (
                    spec.max_injections is not None
                    and self._injected_per_spec[i] >= spec.max_injections
                ):
                    continue
                self._injected_per_spec[i] += 1
            detail: str | None = None
            if spec.kind == "bitflip":
                if path is None:
                    with self._lock:
                        self._injected_per_spec[i] -= 1
                    continue
                detail = _flip_bit(Path(path), self.plan.seed, key)
            self.receipt.add(
                InjectedFault(site=site, key=key, kind=spec.kind,
                              attempt=attempt, detail=detail)
            )
            # Rare events; recorded unconditionally so recovery accounting
            # works without flipping the global observability switch.
            _metrics.counter("faults_injected_total", site=site, kind=spec.kind).inc()
            _telemetry.flight().record(
                "fault", site=site, key=key, fault_kind=spec.kind, attempt=attempt
            )
            if spec.kind == "transient":
                raise TransientFault(f"injected transient fault at {site}:{key}")
            if spec.kind == "permanent":
                raise PermanentFault(f"injected permanent fault at {site}:{key}")
            if spec.kind == "abort":
                raise InjectedCrash(f"injected crash at {site}:{key}")
            if spec.kind == "slow":
                time.sleep(spec.delay_s)
            # bitflip / slow: fall through to later specs.


# --- module-level installation --------------------------------------------

_ACTIVE: list[FaultInjector | None] = [None]


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    _ACTIVE[0] = injector
    return injector


def clear() -> None:
    """Remove any active injector."""
    _ACTIVE[0] = None


def current() -> FaultInjector | None:
    return _ACTIVE[0]


def enabled() -> bool:
    return _ACTIVE[0] is not None


def site_active(site: str) -> bool:
    """Whether injection could fire at ``site`` right now."""
    inj = _ACTIVE[0]
    return inj is not None and inj.site_active(site)


@contextmanager
def active(plan_or_injector: FaultPlan | FaultInjector):
    """Temporarily install an injector (restores the previous one)."""
    inj = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    prev = _ACTIVE[0]
    _ACTIVE[0] = inj
    try:
        yield inj
    finally:
        _ACTIVE[0] = prev


def fault_point(
    site: str, key: str, attempt: int = 0, path: Path | None = None
) -> None:
    """Declare a fault site; near-no-op unless an injector is installed."""
    inj = _ACTIVE[0]
    if inj is None:
        return
    inj.fire(site, str(key), attempt, path)
