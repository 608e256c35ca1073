"""Fault plans: which runtime faults to inject, where, and how often.

A :class:`FaultPlan` is the declarative half of the fault subsystem: a
seed plus a list of :class:`FaultSpec` entries, each naming a fault
*site* pattern (``fetch.read``, ``executor.chunk``, ``storage.write``),
a fault *kind*, and selection knobs.  Selection is deterministic — a
key is afflicted or not as a pure function of ``(seed, spec, site,
key)`` — so a plan doubles as its own ground truth: tests can predict
exactly which archives fail, which chunks raise, and which files get a
flipped byte, independent of thread scheduling.

Plans can also be parsed from the ``REPRO_FAULTS`` environment
variable, which is how CI runs the whole suite under (recoverable)
chaos.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "chaos_plan"]

#: Supported fault kinds.
#:
#: * ``transient`` — raises :class:`~repro.faults.injector.TransientFault`
#:   on attempts ``< fail_attempts``; a retry recovers.
#: * ``permanent`` — raises :class:`~repro.faults.injector.PermanentFault`
#:   on every attempt; only quarantine recovers.
#: * ``slow`` — sleeps ``delay_s`` (straggler / timeout simulation).
#: * ``abort`` — raises :class:`~repro.faults.injector.InjectedCrash`,
#:   simulating a kill of the whole pipeline mid-run.
#: * ``bitflip`` — flips one bit of the file handed to the fault point.
FAULT_KINDS = frozenset({"transient", "permanent", "slow", "abort", "bitflip"})


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One class of injected fault.

    ``site`` and ``key`` are :mod:`fnmatch` patterns; ``prob`` is the
    fraction of matching keys afflicted (chosen per key by a seeded
    hash, so the choice is stable across runs and independent of call
    order).  ``fail_attempts`` bounds transient/slow/bitflip faults to
    the first attempts of a key, which is what makes retry recovery
    deterministic.
    """

    site: str
    kind: str
    key: str | None = None
    prob: float = 1.0
    fail_attempts: int = 1
    delay_s: float = 0.05
    max_injections: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.fail_attempts < 1:
            raise ValueError("fail_attempts must be >= 1")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seed plus the fault specs active under it."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 13

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan from its compact string form.

        ``"chaos"`` (or ``"1"``) gives :func:`chaos_plan`.  Otherwise a
        ``;``-separated list where an optional leading ``seed=N`` sets
        the seed and every other entry is
        ``site:kind[:opt=val,...]``, e.g.::

            seed=101;fetch.read:transient:prob=0.2,fail_attempts=1
        """
        text = text.strip()
        if text.lower() in ("1", "chaos", "on", "true"):
            return chaos_plan()
        seed = 13
        specs: list[FaultSpec] = []
        for entry in filter(None, (e.strip() for e in text.split(";"))):
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
                continue
            parts = entry.split(":")
            if len(parts) < 2:
                raise ValueError(f"bad fault spec {entry!r} (need site:kind)")
            kwargs: dict = {"site": parts[0], "kind": parts[1]}
            if len(parts) > 2 and parts[2]:
                for opt in parts[2].split(","):
                    k, _, v = opt.partition("=")
                    k = k.strip()
                    if k in ("prob", "delay_s"):
                        kwargs[k] = float(v)
                    elif k in ("fail_attempts", "max_injections"):
                        kwargs[k] = int(v)
                    elif k == "key":
                        kwargs[k] = v
                    else:
                        raise ValueError(f"unknown fault option {k!r} in {entry!r}")
            specs.append(FaultSpec(**kwargs))
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def from_env(cls, var: str = "REPRO_FAULTS") -> "FaultPlan | None":
        """Plan from the environment, or ``None`` when the var is unset."""
        value = os.environ.get(var, "").strip()
        if not value or value == "0":
            return None
        return cls.parse(value)


def chaos_plan(seed: int = 13) -> FaultPlan:
    """The standing chaos plan CI runs the suite under.

    Only *recoverable* faults: transient fetch errors that the retrying
    fetcher absorbs, millisecond-scale slow reads, and millisecond-scale
    slow serving requests (the serving layer treats slowness as ordinary
    load — it feeds the admission controller's service-time estimate but
    never changes a result).  Nothing here may change the outcome of a
    correct recovery path, so the whole tier-1 suite must still pass
    with this plan installed.
    """
    return FaultPlan(
        specs=(
            FaultSpec(site="fetch.read", kind="transient", prob=0.15, fail_attempts=1),
            FaultSpec(site="fetch.read", kind="slow", prob=0.05, delay_s=0.005),
            FaultSpec(site="serve.request", kind="slow", prob=0.05, delay_s=0.002),
        ),
        seed=seed,
    )
