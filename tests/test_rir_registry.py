"""Unit tests for the Registry state machine and policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn import IanaLedger
from repro.rir import (
    DEFAULT_POLICIES,
    Registry,
    RegistryError,
    Status,
    default_policy,
)
from repro.simulation import WorldSimulator, tiny
from repro.timeline import from_iso

D0 = from_iso("2004-01-01")


def make_registry(name="ripencc", **overrides):
    policy = default_policy(name)
    if overrides:
        policy = policy.with_overrides(**overrides)
    return Registry(name=name, policy=policy, ledger=IanaLedger())


class _ScanRegistry(Registry):
    """The oracle: a ``tick`` that scans every reserved ASN each day."""

    def tick(self, day):
        self._advance(day)
        due = [asn for asn, res in self.reserved.items() if res.release_day <= day]
        for asn in due:
            del self.reserved[asn]
            self._push_available(asn, day)
        return due


def _apply(reg, day, op, pick, flag):
    """Run one random operation on ``reg``; its result, for comparison."""
    if op == "allocate":
        return reg.allocate(day, f"ORG-{pick}", "IT", thirty_two_bit=flag,
                            prefer_recycled=pick % 2 == 0).asn
    if op == "tick":
        return sorted(reg.tick(day))
    if op == "return_to_owner":
        held = sorted(a for a, res in reg.reserved.items() if res.previous)
        if held:
            return reg.return_to_owner(day, held[pick % len(held)]).asn
        return None
    allocated = sorted(reg.allocated)
    if not allocated:
        return None
    asn = allocated[pick % len(allocated)]
    method = reg.deallocate if op == "deallocate" else reg.reserve_for_issue
    return method(day, asn).release_day


_OPS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(
            ["allocate", "deallocate", "reserve_for_issue", "return_to_owner", "tick"]
        ),
        st.integers(0, 50),
        st.booleans(),
    ),
    max_size=120,
)


class TestReleaseHeap:
    """``tick`` pops a release heap; the oracle scans ``reserved``."""

    @staticmethod
    def _pair(quarantine_days):
        policy = default_policy("ripencc").with_overrides(
            quarantine_days=quarantine_days
        )
        return (
            Registry(name="ripencc", policy=policy, ledger=IanaLedger()),
            _ScanRegistry(name="ripencc", policy=policy, ledger=IanaLedger()),
        )

    @settings(max_examples=200, deadline=None)
    @given(quarantine_days=st.integers(1, 6), ops=_OPS)
    def test_heap_releases_what_a_full_scan_releases(self, quarantine_days, ops):
        heap, scan = self._pair(quarantine_days)
        day = D0
        for step, op, pick, flag in ops:
            day += step
            assert _apply(heap, day, op, pick, flag) == _apply(scan, day, op, pick, flag)
            assert list(heap.reserved) == list(scan.reserved)
        # release order reaches nothing: per-ASN history (key order
        # included), the min-heap pools and every later pick agree
        day += quarantine_days
        assert sorted(heap.tick(day)) == sorted(scan.tick(day))
        assert list(heap.history.items()) == list(scan.history.items())
        for pool in ("fresh16", "fresh32", "recycled16", "recycled32"):
            assert sorted(getattr(heap, pool)) == sorted(getattr(scan, pool))
        assert heap.current_records(extended=True) == scan.current_records(extended=True)
        for flag in (False, True):
            for pick in range(3):
                assert _apply(heap, day, "allocate", pick, flag) == _apply(
                    scan, day, "allocate", pick, flag
                )

    def test_returned_then_rereserved_waits_for_the_later_release(self):
        heap, scan = self._pair(10)
        for reg in (heap, scan):
            asn = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False).asn
            reg.reserve_for_issue(D0 + 1, asn)  # release D0 + 11
            reg.return_to_owner(D0 + 2, asn)
            reg.reserve_for_issue(D0 + 5, asn)  # release D0 + 15
        for day in range(D0 + 6, D0 + 20):
            released = heap.tick(day)
            assert released == scan.tick(day)
            assert released == ([asn] if day == D0 + 15 else [])
        assert heap.history == scan.history


class TestPolicies:
    def test_all_five_present(self):
        assert set(DEFAULT_POLICIES) == {"afrinic", "apnic", "arin", "lacnic", "ripencc"}

    def test_afrinic_is_the_regdate_exception(self):
        assert not DEFAULT_POLICIES["afrinic"].keeps_regdate_on_return
        for other in ("apnic", "arin", "lacnic", "ripencc"):
            assert DEFAULT_POLICIES[other].keeps_regdate_on_return

    def test_only_apnic_uses_nirs(self):
        # APNIC alone delegates whole blocks to National Internet
        # Registries (§4.1); every such life sits under an NIR org id
        world = WorldSimulator(tiny(seed=11)).run()
        nir = [life for life in world.lives if life.via_nir]
        assert nir
        assert {life.registry for life in nir} == {"apnic"}
        assert all(life.org_id.startswith("NIR-") for life in nir)

    def test_unknown_registry_rejected(self):
        with pytest.raises(ValueError):
            default_policy("internic")

    def test_with_overrides(self):
        p = default_policy("arin").with_overrides(quarantine_days=42)
        assert p.quarantine_days == 42
        assert default_policy("arin").quarantine_days != 42

    def test_validation(self):
        with pytest.raises(ValueError):
            default_policy("arin").with_overrides(quarantine_days=0)
        with pytest.raises(ValueError):
            default_policy("arin").with_overrides(same_or_next_day_share=1.5)


class TestAllocationLifecycle:
    def test_allocate_pulls_iana_block(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        assert alloc.asn == 1  # lowest ASN of the first block
        assert reg.alive_count() == 1
        assert reg.ledger.blocks_of("ripencc")

    def test_allocate_sets_regdate_default(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        assert alloc.reg_date == D0

    def test_allocate_32bit(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=True)
        assert alloc.asn >= 65536

    def test_deallocate_enters_quarantine(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        res = reg.deallocate(D0 + 100, alloc.asn)
        assert res.release_day == D0 + 100 + reg.policy.quarantine_days
        assert alloc.asn in reg.reserved
        assert reg.alive_count() == 0

    def test_deallocate_unallocated_rejected(self):
        reg = make_registry()
        with pytest.raises(RegistryError):
            reg.deallocate(D0, 9999)

    def test_tick_releases_after_quarantine(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        reg.deallocate(D0 + 10, alloc.asn)
        release = D0 + 10 + reg.policy.quarantine_days
        assert reg.tick(release - 1) == []
        assert reg.tick(release) == [alloc.asn]
        assert alloc.asn not in reg.reserved
        reg.check_invariants()

    def test_released_asn_reallocated_when_reuse_preferred(self):
        reg = make_registry()
        a1 = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        reg.allocate(D0, "ORG-2", "FR", thirty_two_bit=False)
        reg.deallocate(D0 + 10, a1.asn)
        reg.tick(D0 + 10 + reg.policy.quarantine_days)
        a3 = reg.allocate(
            D0 + 500, "ORG-3", "DE", thirty_two_bit=False, prefer_recycled=True
        )
        assert a3.asn == a1.asn  # reuse (the paper's re-allocation)
        assert a3.reg_date == D0 + 500  # new life, new date

    def test_fresh_pool_preferred_by_default(self):
        reg = make_registry()
        a1 = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        reg.deallocate(D0 + 10, a1.asn)
        reg.tick(D0 + 10 + reg.policy.quarantine_days)
        a2 = reg.allocate(D0 + 500, "ORG-2", "DE", thirty_two_bit=False)
        assert a2.asn != a1.asn  # a fresh number, not the recycled one

    def test_recycled_preference_falls_back_to_fresh(self):
        reg = make_registry()
        alloc = reg.allocate(
            D0, "ORG-1", "IT", thirty_two_bit=False, prefer_recycled=True
        )
        assert alloc.asn == 1  # nothing recycled yet: fresh pool used

    def test_days_must_not_go_backwards(self):
        reg = make_registry()
        reg.allocate(D0 + 5, "ORG-1", "IT", thirty_two_bit=False)
        with pytest.raises(RegistryError):
            reg.allocate(D0, "ORG-2", "FR", thirty_two_bit=False)


class TestReturnToOwner:
    def test_keeps_regdate_for_most_rirs(self):
        reg = make_registry("ripencc")
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        reg.reserve_for_issue(D0 + 100, alloc.asn)
        back = reg.return_to_owner(D0 + 130, alloc.asn)
        assert back.org_id == "ORG-1"
        assert back.reg_date == D0  # original date kept

    def test_afrinic_issues_new_date(self):
        reg = make_registry("afrinic")
        alloc = reg.allocate(D0, "ORG-1", "ZA", thirty_two_bit=False)
        reg.reserve_for_issue(D0 + 100, alloc.asn)
        back = reg.return_to_owner(D0 + 130, alloc.asn)
        assert back.org_id == "ORG-1"
        assert back.reg_date == D0 + 130  # the AfriNIC exception

    def test_requires_previous_holder(self):
        reg = make_registry()
        with pytest.raises(RegistryError):
            reg.return_to_owner(D0, 1)


class TestTransfers:
    def test_inter_rir_transfer(self):
        ledger = IanaLedger()
        arin = Registry("arin", default_policy("arin"), ledger)
        ripe = Registry("ripencc", default_policy("ripencc"), ledger)
        alloc = arin.allocate(D0, "ORG-1", "US", thirty_two_bit=False)
        out = arin.transfer_out(D0 + 300, alloc.asn)
        moved = ripe.transfer_in(D0 + 300, out, keep_regdate=True)
        assert moved.reg_date == D0
        assert alloc.asn in ripe.allocated
        assert alloc.asn not in arin.allocated
        # origin history records the departure
        assert arin.history[alloc.asn][-1][1] is None

    def test_transfer_in_date_override(self):
        ledger = IanaLedger()
        arin = Registry("arin", default_policy("arin"), ledger)
        ripe = Registry("ripencc", default_policy("ripencc"), ledger)
        alloc = arin.allocate(D0, "ORG-1", "US", thirty_two_bit=False)
        out = arin.transfer_out(D0 + 10, alloc.asn)
        placeholder = from_iso("1993-09-01")
        moved = ripe.transfer_in(D0 + 10, out, reg_date_override=placeholder)
        assert moved.reg_date == placeholder

    def test_transfer_in_rejects_duplicate(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        with pytest.raises(RegistryError):
            reg.transfer_in(D0 + 1, alloc)

    def test_correct_regdate(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        fixed = reg.correct_regdate(D0 + 10, alloc.asn, D0 - 100)
        assert fixed.reg_date == D0 - 100
        assert reg.allocated[alloc.asn].reg_date == D0 - 100


class TestNirBlocks:
    def test_apnic_nir_block(self):
        # the world hands out an NIR block one ASN at a time
        reg = make_registry("apnic")
        allocs = [
            reg.allocate(D0, "NIR-JPNIC", "JP", thirty_two_bit=False, via_nir=True)
            for _ in range(10)
        ]
        assert len({a.asn for a in allocs}) == 10
        assert all(reg.allocated[a.asn].via_nir for a in allocs)
        assert all(a.org_id == "NIR-JPNIC" for a in allocs)


class TestSnapshots:
    def test_extended_snapshot_lists_pool(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        reg.allocate(D0, "ORG-2", "FR", thirty_two_bit=False)
        reg.deallocate(D0 + 5, alloc.asn)
        snap = reg.snapshot(D0 + 5, extended=True)
        counts = snap.count_by_status()
        assert counts[Status.ALLOCATED] == 1
        assert counts[Status.RESERVED] == 1
        assert counts[Status.AVAILABLE] > 0

    def test_regular_snapshot_lists_only_delegated(self):
        reg = make_registry()
        reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        snap = reg.snapshot(D0, extended=False)
        assert len(snap.records) == 1
        assert snap.records[0].status is Status.ALLOCATED
        assert snap.records[0].opaque_id is None  # regular rows carry no org id

    def test_history_change_points(self):
        reg = make_registry()
        alloc = reg.allocate(D0, "ORG-1", "IT", thirty_two_bit=False)
        reg.deallocate(D0 + 5, alloc.asn)
        reg.tick(D0 + 5 + reg.policy.quarantine_days)
        statuses = [r.status for _, r in reg.history[alloc.asn] if r is not None]
        assert statuses == [
            Status.AVAILABLE,
            Status.ALLOCATED,
            Status.RESERVED,
            Status.AVAILABLE,
        ]
