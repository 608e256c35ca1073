"""The fault-injection subsystem itself: plans, selection, firing."""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults.injector import FaultInjector, _selection_fraction


def _plan(*specs, seed=13):
    return faults.FaultPlan(specs=tuple(specs), seed=seed)


class TestPlanParsing:
    def test_chaos_aliases(self):
        for text in ("chaos", "1", "on", "TRUE"):
            plan = faults.FaultPlan.parse(text)
            assert plan == faults.chaos_plan()

    def test_explicit_specs_and_seed(self):
        plan = faults.FaultPlan.parse(
            "seed=101;fetch.read:transient:prob=0.2,fail_attempts=2;"
            "storage.write:bitflip:key=dict/*,max_injections=1"
        )
        assert plan.seed == 101
        assert len(plan.specs) == 2
        t, b = plan.specs
        assert (t.site, t.kind, t.prob, t.fail_attempts) == (
            "fetch.read", "transient", 0.2, 2
        )
        assert (b.site, b.kind, b.key, b.max_injections) == (
            "storage.write", "bitflip", "dict/*", 1
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("justasite")
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("fetch.read:nosuchkind")
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("fetch.read:transient:bogus=1")
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("executor.chunk:crash")
        with pytest.raises(ValueError):
            faults.FaultSpec(site="x", kind="transient", prob=1.5)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("X_FAULTS", raising=False)
        assert faults.FaultPlan.from_env("X_FAULTS") is None
        monkeypatch.setenv("X_FAULTS", "0")
        assert faults.FaultPlan.from_env("X_FAULTS") is None
        monkeypatch.setenv("X_FAULTS", "chaos")
        assert faults.FaultPlan.from_env("X_FAULTS") == faults.chaos_plan()


class TestSelection:
    def test_deterministic_and_order_independent(self):
        spec = faults.FaultSpec(site="fetch.read", kind="transient", prob=0.3)
        inj = FaultInjector(_plan(spec, seed=7))
        keys = [f"chunk-{i}.zip" for i in range(200)]
        first = [inj.selects(spec, "fetch.read", k) for k in keys]
        second = [
            inj.selects(spec, "fetch.read", k) for k in reversed(keys)
        ][::-1]
        assert first == second
        frac = sum(first) / len(first)
        assert 0.15 < frac < 0.45  # ~prob, seeded so it never flakes

    def test_seed_changes_selection(self):
        spec = faults.FaultSpec(site="s", kind="transient", prob=0.5)
        keys = [str(i) for i in range(64)]
        a = [_selection_fraction(1, spec, "s", k) < 0.5 for k in keys]
        b = [_selection_fraction(2, spec, "s", k) < 0.5 for k in keys]
        assert a != b

    def test_site_and_key_patterns(self):
        spec = faults.FaultSpec(site="fetch.*", kind="transient", key="*.zip")
        inj = FaultInjector(_plan(spec))
        assert inj.selects(spec, "fetch.read", "a.zip")
        assert not inj.selects(spec, "fetch.read", "a.tar")
        assert not inj.selects(spec, "storage.write", "a.zip")
        assert inj.site_active("fetch.read")
        assert not inj.site_active("executor.chunk")

    def test_preview_matches_firing(self):
        spec = faults.FaultSpec(site="s", kind="transient", prob=0.4)
        inj = FaultInjector(_plan(spec, seed=3))
        keys = [f"k{i}" for i in range(50)]
        previewed = inj.preview("s", keys)
        fired = set()
        with faults.active(inj):
            for k in keys:
                try:
                    faults.fault_point("s", key=k)
                except faults.TransientFault:
                    fired.add(k)
        assert set(previewed) == fired
        assert all(kind == "transient" for kind in previewed.values())


class TestFiring:
    def test_transient_respects_fail_attempts(self):
        spec = faults.FaultSpec(site="s", kind="transient", fail_attempts=2)
        with faults.active(_plan(spec)) as inj:
            for attempt in (0, 1):
                with pytest.raises(faults.TransientFault):
                    faults.fault_point("s", key="k", attempt=attempt)
            faults.fault_point("s", key="k", attempt=2)  # recovered
        assert inj.receipt.count(site="s", kind="transient") == 2

    def test_permanent_fires_every_attempt(self):
        with faults.active(_plan(faults.FaultSpec(site="s", kind="permanent"))):
            for attempt in range(5):
                with pytest.raises(faults.PermanentFault):
                    faults.fault_point("s", key="k", attempt=attempt)

    def test_abort_raises_injected_crash(self):
        with faults.active(_plan(faults.FaultSpec(site="s", kind="abort"))):
            with pytest.raises(faults.InjectedCrash):
                faults.fault_point("s", key="k")

    def test_max_injections_caps_firing(self):
        spec = faults.FaultSpec(
            site="s", kind="permanent", max_injections=2
        )
        with faults.active(_plan(spec)) as inj:
            hits = 0
            for i in range(10):
                try:
                    faults.fault_point("s", key=f"k{i}")
                except faults.PermanentFault:
                    hits += 1
        assert hits == 2
        assert inj.receipt.count() == 2

    def test_bitflip_flips_exactly_one_bit(self, tmp_path):
        victim = tmp_path / "col.bin"
        original = bytes(range(256)) * 4
        victim.write_bytes(original)
        spec = faults.FaultSpec(site="w", kind="bitflip")
        with faults.active(_plan(spec)) as inj:
            faults.fault_point("w", key="col.bin", path=victim)
        mutated = victim.read_bytes()
        assert len(mutated) == len(original)
        diff = [
            (a ^ b) for a, b in zip(original, mutated) if a != b
        ]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1
        assert inj.receipt.count(kind="bitflip") == 1
        # Deterministic: same seed+key flips the same bit back.
        with faults.active(_plan(spec)):
            faults.fault_point("w", key="col.bin", path=victim)
        assert victim.read_bytes() == original

    def test_slow_sleeps_without_raising(self):
        spec = faults.FaultSpec(site="s", kind="slow", delay_s=0.0)
        with faults.active(_plan(spec)) as inj:
            faults.fault_point("s", key="k")
        assert inj.receipt.count(kind="slow") == 1

    def test_no_injector_is_noop(self):
        prev = faults.current()
        faults.clear()
        try:
            faults.fault_point("anything", key="k")
            assert not faults.enabled()
            assert not faults.site_active("anything")
        finally:
            if prev is not None:
                faults.install(prev)

    def test_active_restores_previous(self):
        prev = faults.current()
        with faults.active(_plan(faults.FaultSpec(site="a", kind="slow"))):
            inner = faults.current()
            assert inner is not prev
            with faults.active(_plan(faults.FaultSpec(site="b", kind="slow"))):
                assert faults.current() is not inner
            assert faults.current() is inner
        assert faults.current() is prev
