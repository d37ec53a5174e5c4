"""The RIR state machine that *emits* delegation data.

Rather than hand-writing delegation files, the simulation drives one
:class:`Registry` per RIR through the state transitions a real registry
performs — IANA block intake, allocation, deallocation into reserved
quarantine, release back to the available pool, returns to the previous
holder, internal and inter-RIR transfers, registration-date corrections
— and the delegation files are *snapshots* of the resulting state.
This guarantees archives are internally consistent, so every §3.1
defect found later is by construction an injected corruption whose
ground truth is known.

Every transition appends to a per-ASN history of
``(day, DelegationRecord)`` change points; the archive layer
materializes daily files (or per-ASN stint timelines) from these.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..asn.blocks import BlockDelegation, IanaLedger
from ..asn.numbers import ASN, is_16bit
from ..timeline.dates import Day
from .model import DelegationRecord, DelegationSnapshot, Status
from .policies import RirPolicy

__all__ = ["Allocation", "Reservation", "Registry", "RegistryError"]


class RegistryError(RuntimeError):
    """Raised when a transition is requested from the wrong state."""


@dataclass
class Allocation:
    """A live delegation of one ASN to one organization."""

    asn: ASN
    org_id: str
    cc: str
    reg_date: Day
    allocated_on: Day
    via_nir: bool = False


@dataclass
class Reservation:
    """An ASN sitting in reserved quarantine."""

    asn: ASN
    since: Day
    release_day: Day
    previous: Optional[Allocation] = None


@dataclass
class Registry:
    """State machine for one RIR's ASN pool.

    All mutating methods take the current simulation ``day`` explicitly;
    the registry never consults a clock.  Days must not go backwards.
    """

    name: str
    policy: RirPolicy
    ledger: IanaLedger
    #: Fresh (never-delegated) and recycled (returned) available pools,
    #: kept apart so callers can express the registry's reuse eagerness
    #: (§5: ARIN and RIPE NCC re-allocate far more than the others).
    fresh16: List[ASN] = field(default_factory=list)  # min-heap
    fresh32: List[ASN] = field(default_factory=list)  # min-heap
    recycled16: List[ASN] = field(default_factory=list)  # min-heap
    recycled32: List[ASN] = field(default_factory=list)  # min-heap
    allocated: Dict[ASN, Allocation] = field(default_factory=dict)
    reserved: Dict[ASN, Reservation] = field(default_factory=dict)
    #: per-ASN change points: (day, record) — record reflects the row the
    #: *extended* file would carry from that day on; ``None`` means the
    #: ASN left this registry's pool entirely (transfer out).
    history: Dict[ASN, List[Tuple[Day, Optional[DelegationRecord]]]] = field(
        default_factory=dict
    )
    _available_set: set = field(default_factory=set)
    #: (release_day, asn) for every quarantine entered; an entry whose
    #: reservation has since been returned or replaced is stale and
    #: skipped when popped
    _release_heap: List[Tuple[Day, ASN]] = field(
        default_factory=list, repr=False, compare=False
    )
    _ever_delegated: set = field(default_factory=set)
    _last_day: Day = 0

    # -- invariant helpers ----------------------------------------------

    def _advance(self, day: Day) -> None:
        if day < self._last_day:
            raise RegistryError(
                f"{self.name}: day went backwards ({day} < {self._last_day})"
            )
        self._last_day = day

    def _record(self, day: Day, rec: DelegationRecord) -> None:
        self.history.setdefault(rec.asn, []).append((day, rec))

    def _record_gone(self, day: Day, asn: ASN) -> None:
        self.history.setdefault(asn, []).append((day, None))

    # -- pool intake ------------------------------------------------------

    def add_block(self, block: BlockDelegation, day: Day) -> int:
        """Take delivery of an IANA block into the available pool.

        Returns the number of delegable ASNs added (bogons are skipped).
        """
        self._advance(day)
        count = 0
        for asn in block.asns():
            self._push_available(asn, day)
            count += 1
        return count

    def request_block(self, day: Day, *, thirty_two_bit: bool) -> Optional[BlockDelegation]:
        """Ask IANA for one more block and absorb it; ``None`` if exhausted."""
        self._advance(day)
        block = (
            self.ledger.delegate_32bit(self.name, day)
            if thirty_two_bit
            else self.ledger.delegate_16bit(self.name, day)
        )
        if block is not None:
            self.add_block(block, day)
        return block

    def _push_available(self, asn: ASN, day: Day) -> None:
        if asn in self._available_set or asn in self.allocated or asn in self.reserved:
            raise RegistryError(f"{self.name}: AS{asn} already in a pool")
        if asn in self._ever_delegated:
            heap = self.recycled16 if is_16bit(asn) else self.recycled32
        else:
            heap = self.fresh16 if is_16bit(asn) else self.fresh32
        heapq.heappush(heap, asn)
        self._available_set.add(asn)
        self._record(
            day,
            DelegationRecord(
                registry=self.name,
                cc="",
                asn=asn,
                reg_date=None,
                status=Status.AVAILABLE,
            ),
        )

    def _pop_available(
        self, *, thirty_two_bit: bool, prefer_recycled: bool = False
    ) -> Optional[ASN]:
        if thirty_two_bit:
            heaps = [self.recycled32, self.fresh32] if prefer_recycled else [self.fresh32, self.recycled32]
        else:
            heaps = [self.recycled16, self.fresh16] if prefer_recycled else [self.fresh16, self.recycled16]
        for heap in heaps:
            while heap:
                asn = heapq.heappop(heap)
                if asn in self._available_set:
                    self._available_set.discard(asn)
                    return asn
        return None

    # -- allocation lifecycle ---------------------------------------------

    def allocate(
        self,
        day: Day,
        org_id: str,
        cc: str,
        *,
        thirty_two_bit: bool,
        reg_date: Optional[Day] = None,
        via_nir: bool = False,
        prefer_recycled: bool = False,
    ) -> Allocation:
        """Delegate the lowest available ASN of the requested class.

        ``prefer_recycled`` draws from the returned-ASN pool first
        (falling back to fresh numbers), modelling the reuse practices
        that differ so much between registries (§5).  Requests a fresh
        IANA block transparently when both pools are dry.  ``reg_date``
        defaults to ``day``; the simulator may push it a few days
        earlier to model registration-to-publication lag.
        """
        self._advance(day)
        asn = self._pop_available(
            thirty_two_bit=thirty_two_bit, prefer_recycled=prefer_recycled
        )
        if asn is None:
            block = self.request_block(day, thirty_two_bit=thirty_two_bit)
            if block is None:
                raise RegistryError(
                    f"{self.name}: IANA pool exhausted for "
                    f"{'32' if thirty_two_bit else '16'}-bit ASNs"
                )
            asn = self._pop_available(thirty_two_bit=thirty_two_bit)
            if asn is None:
                raise RegistryError(f"{self.name}: fresh block yielded no ASNs")
        return self._allocate_specific(day, asn, org_id, cc, reg_date, via_nir)

    def _allocate_specific(
        self,
        day: Day,
        asn: ASN,
        org_id: str,
        cc: str,
        reg_date: Optional[Day],
        via_nir: bool,
    ) -> Allocation:
        alloc = Allocation(
            asn=asn,
            org_id=org_id,
            cc=cc,
            reg_date=day if reg_date is None else reg_date,
            allocated_on=day,
            via_nir=via_nir,
        )
        self.allocated[asn] = alloc
        self._ever_delegated.add(asn)
        self._record(
            day,
            DelegationRecord(
                registry=self.name,
                cc=cc,
                asn=asn,
                reg_date=alloc.reg_date,
                status=Status.ALLOCATED,
                opaque_id=org_id,
            ),
        )
        return alloc

    def deallocate(self, day: Day, asn: ASN) -> Reservation:
        """End a delegation: the ASN enters reserved quarantine."""
        self._advance(day)
        alloc = self.allocated.pop(asn, None)
        if alloc is None:
            raise RegistryError(f"{self.name}: AS{asn} is not allocated")
        res = Reservation(
            asn=asn,
            since=day,
            release_day=day + self.policy.quarantine_days,
            previous=alloc,
        )
        self.reserved[asn] = res
        heapq.heappush(self._release_heap, (res.release_day, asn))
        self._record(
            day,
            DelegationRecord(
                registry=self.name,
                cc="",
                asn=asn,
                reg_date=None,
                status=Status.RESERVED,
            ),
        )
        return res

    def reserve_for_issue(self, day: Day, asn: ASN) -> Reservation:
        """Move an allocated ASN to reserved over an administrative issue
        (§4.1: "administrative issues with the organization holding it").

        Unlike :meth:`deallocate`, the expectation is that the ASN may
        return to the same holder; the previous allocation is kept.
        """
        return self.deallocate(day, asn)

    def tick(self, day: Day) -> List[ASN]:
        """Release quarantined ASNs whose reservation expired.

        Returns the ASNs that moved back to the available pool, in
        ``(release_day, asn)`` order.  Call once per simulated day
        (idempotent within a day).
        """
        self._advance(day)
        due: List[ASN] = []
        heap, reserved = self._release_heap, self.reserved
        while heap and heap[0][0] <= day:
            release_day, asn = heapq.heappop(heap)
            res = reserved.get(asn)
            if res is None or res.release_day != release_day:
                continue  # returned to its owner, or re-reserved since
            del reserved[asn]
            self._push_available(asn, day)
            due.append(asn)
        return due

    def return_to_owner(self, day: Day, asn: ASN) -> Allocation:
        """Re-allocate a reserved ASN to its previous holder.

        Registration date follows policy: kept everywhere except
        AfriNIC, which issues a fresh one (§2, §4.1).
        """
        self._advance(day)
        res = self.reserved.pop(asn, None)
        if res is None or res.previous is None:
            raise RegistryError(f"{self.name}: AS{asn} has no previous holder to return to")
        prev = res.previous
        reg_date = prev.reg_date if self.policy.keeps_regdate_on_return else day
        return self._allocate_specific(day, asn, prev.org_id, prev.cc, reg_date, prev.via_nir)

    def correct_regdate(self, day: Day, asn: ASN, new_date: Day) -> Allocation:
        """Administrative correction of the registration date (§4.1:
        "Allocated ASN suddenly changing registration date")."""
        self._advance(day)
        alloc = self.allocated.get(asn)
        if alloc is None:
            raise RegistryError(f"{self.name}: AS{asn} is not allocated")
        return self._allocate_specific(
            day, asn, alloc.org_id, alloc.cc, new_date, alloc.via_nir
        )

    # -- inter-registry movement -------------------------------------------

    def transfer_out(self, day: Day, asn: ASN) -> Allocation:
        """Release a live delegation for transfer to another registry."""
        self._advance(day)
        alloc = self.allocated.pop(asn, None)
        if alloc is None:
            raise RegistryError(f"{self.name}: AS{asn} is not allocated")
        self._record_gone(day, asn)
        return alloc

    def transfer_in(
        self,
        day: Day,
        alloc: Allocation,
        *,
        keep_regdate: bool = True,
        reg_date_override: Optional[Day] = None,
    ) -> Allocation:
        """Accept an allocation transferred from another registry.

        ERX transfers (§3.1 step v) kept — or were supposed to keep —
        the original registration date; ``reg_date_override`` lets the
        simulator model the RIPE NCC placeholder-date defect.
        """
        self._advance(day)
        if alloc.asn in self.allocated or alloc.asn in self.reserved or alloc.asn in self._available_set:
            raise RegistryError(f"{self.name}: AS{alloc.asn} already present")
        if reg_date_override is not None:
            reg_date = reg_date_override
        elif keep_regdate:
            reg_date = alloc.reg_date
        else:
            reg_date = day
        return self._allocate_specific(
            day, alloc.asn, alloc.org_id, alloc.cc, reg_date, alloc.via_nir
        )

    # -- snapshots ---------------------------------------------------------

    def current_records(self, *, extended: bool) -> List[DelegationRecord]:
        """The rows a delegation file generated *now* would contain."""
        records: List[DelegationRecord] = []
        for asn, alloc in self.allocated.items():
            records.append(
                DelegationRecord(
                    registry=self.name,
                    cc=alloc.cc,
                    asn=asn,
                    reg_date=alloc.reg_date,
                    status=Status.ALLOCATED,
                    opaque_id=alloc.org_id if extended else None,
                )
            )
        if extended:
            for asn in self.reserved:
                records.append(
                    DelegationRecord(
                        registry=self.name, cc="", asn=asn,
                        reg_date=None, status=Status.RESERVED,
                    )
                )
            for asn in self._available_set:
                records.append(
                    DelegationRecord(
                        registry=self.name, cc="", asn=asn,
                        reg_date=None, status=Status.AVAILABLE,
                    )
                )
        records.sort(key=lambda r: r.asn)
        return records

    def snapshot(self, day: Day, *, extended: bool, serial: int = 0) -> DelegationSnapshot:
        """Materialize the delegation file for ``day`` from current state."""
        return DelegationSnapshot(
            registry=self.name,
            file_day=day,
            extended=extended,
            records=self.current_records(extended=extended),
            serial=serial,
        )

    # -- views -------------------------------------------------------------

    def alive_count(self) -> int:
        """Number of currently allocated ASNs."""
        return len(self.allocated)

    def holdings(self) -> Iterable[ASN]:
        """Every ASN currently in any of this registry's pools."""
        yield from self.allocated
        yield from self.reserved
        yield from self._available_set

    def check_invariants(self) -> None:
        """Assert the pools are disjoint (used by tests and the simulator)."""
        a, r, v = set(self.allocated), set(self.reserved), set(self._available_set)
        if a & r or a & v or r & v:
            raise AssertionError(f"{self.name}: pools overlap")
