"""Deterministic runtime fault injection.

The runtime-fault complement to :mod:`repro.synth.corruption` (which
plants *data* defects): this package injects *operational* failures —
transient and permanent I/O errors, slow reads, whole-run aborts, and
bit flips in written files — at named fault points across ingest,
storage, and execution.

Injection is seeded and order-independent: whether a given key (an
archive name, a chunk range, a file path) is afflicted is a pure
function of the plan seed, so every recovery path the resilience layer
claims to have can be exercised by tests that know the exact ground
truth of what was injected (:class:`FaultReceipt`,
:meth:`FaultInjector.preview`).

Usage::

    from repro import faults

    plan = faults.FaultPlan(specs=(
        faults.FaultSpec(site="fetch.read", kind="transient", prob=0.2),
    ), seed=7)
    with faults.active(plan) as inj:
        convert_raw_to_binary(raw, out)
        assert inj.receipt.count(kind="transient") == retries_observed

Set ``REPRO_FAULTS=chaos`` (or an explicit spec string — see
:meth:`FaultPlan.parse`) to run the whole test suite under recoverable
chaos; the suite's conftest installs the parsed plan session-wide.
"""

from __future__ import annotations

from repro.faults.injector import (
    FaultInjector,
    FaultReceipt,
    InjectedCrash,
    InjectedFault,
    PermanentFault,
    TransientFault,
    active,
    clear,
    current,
    enabled,
    fault_point,
    install,
    site_active,
)
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec, chaos_plan

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "chaos_plan",
    "FaultInjector",
    "FaultReceipt",
    "InjectedFault",
    "TransientFault",
    "PermanentFault",
    "InjectedCrash",
    "install",
    "clear",
    "current",
    "enabled",
    "active",
    "fault_point",
    "site_active",
]
