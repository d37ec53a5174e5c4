"""IANA → RIR AS-number block delegations.

IANA does not hand individual AS numbers to organizations; it delegates
*blocks* to the five RIRs as their free pools run low (§2).  Each RIR
may only allocate numbers from blocks it holds — the paper's §3.1 step
(vi) even finds "mistaken (apparent) allocations, some by RIRs who have
not been assigned those ASN blocks from IANA".

:class:`IanaLedger` models that central registry: a ledger of
``(first, last, rir, day)`` rows.  The world simulator requests blocks
on behalf of RIR state machines; the restoration pipeline consults the
ledger to rule out impossible allocations.

Block sizes follow IANA practice: 1,024 numbers per block in both the
16-bit and 32-bit spaces (32-bit delegations begin at AS 131072; the
65536..131071 range was delegated in the 2007-2009 trial period and is
modelled the same way).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..timeline.dates import Day
from .bogons import iter_bogon_ranges
from .numbers import AS16_MAX, AS32_MAX, ASN, validate_asn

__all__ = ["BLOCK_SIZE", "BlockDelegation", "IanaLedger"]

#: Numbers per IANA block delegation.
BLOCK_SIZE = 1024

#: First 32-bit-only AS number IANA delegates from.
_FIRST_32BIT_BLOCK_START = 65536

#: ``(first, last)`` of every special-use range, ascending and disjoint.
_SPECIAL_USE_SPANS = iter_bogon_ranges()


@dataclass(frozen=True)
class BlockDelegation:
    """A contiguous block of AS numbers delegated to one RIR on a day."""

    first: ASN
    last: ASN
    rir: str
    day: Day

    def __contains__(self, asn: ASN) -> bool:
        return self.first <= asn <= self.last

    @property
    def size(self) -> int:
        return self.last - self.first + 1

    def asns(self) -> Iterator[ASN]:
        """Yield the delegable (non-bogon) AS numbers of the block.

        The block's range with every special-use range cut out, in
        ascending order: no per-ASN bogon test.
        """
        validate_asn(self.first)
        validate_asn(self.last)
        cursor = self.first
        for lo, hi in _SPECIAL_USE_SPANS:
            if lo > self.last:
                break
            if hi >= cursor:
                yield from range(cursor, lo)
                cursor = hi + 1
        yield from range(cursor, self.last + 1)


@dataclass
class IanaLedger:
    """The central ledger of AS-number blocks delegated to RIRs.

    The ledger only appends: IANA never claws a block back within our
    observation window.  ``delegate_16bit``/``delegate_32bit`` pick the
    next free block; ``grant`` records a block chosen by the caller
    (used to seed historical pre-2003 delegations).
    """

    delegations: List[BlockDelegation] = field(default_factory=list)
    _starts: List[ASN] = field(default_factory=list, repr=False)

    def grant(self, first: ASN, last: ASN, rir: str, day: Day) -> BlockDelegation:
        """Record a block delegation chosen explicitly by the caller."""
        if last < first:
            raise ValueError("block last precedes first")
        if last > AS32_MAX:
            raise ValueError("block exceeds the 32-bit AS space")
        for existing in self.delegations:
            if first <= existing.last and existing.first <= last:
                raise ValueError(
                    f"block {first}-{last} overlaps existing "
                    f"{existing.first}-{existing.last} ({existing.rir})"
                )
        block = BlockDelegation(first, last, rir, day)
        idx = bisect.bisect_left(self._starts, first)
        self._starts.insert(idx, first)
        self.delegations.insert(idx, block)
        return block

    def delegate_16bit(self, rir: str, day: Day) -> Optional[BlockDelegation]:
        """Delegate the lowest free 16-bit block, or ``None`` if exhausted.

        The final 16-bit block is truncated to stop at 65535; exhaustion
        of this space is what Appendix A's "16-bit exhaustion" analysis
        measures.  Holes left between explicit grants are filled first,
        matching IANA's practice of delegating from its remaining pool.
        """
        first = self._find_free(1, AS16_MAX)
        if first is None:
            return None
        last = min(first + BLOCK_SIZE - 1, AS16_MAX)
        return self.grant(first, last, rir, day)

    def delegate_32bit(self, rir: str, day: Day) -> Optional[BlockDelegation]:
        """Delegate the lowest free 32-bit block."""
        first = self._find_free(_FIRST_32BIT_BLOCK_START, AS32_MAX)
        if first is None:
            return None
        last = first + BLOCK_SIZE - 1
        return self.grant(first, last, rir, day)

    def _find_free(self, start: ASN, limit: ASN) -> Optional[ASN]:
        cursor = start
        while cursor <= limit:
            conflict = self._block_overlapping(cursor, cursor + BLOCK_SIZE - 1)
            if conflict is None:
                return cursor
            cursor = conflict.last + 1
        return None

    def _block_overlapping(self, first: ASN, last: ASN) -> Optional[BlockDelegation]:
        idx = bisect.bisect_right(self._starts, last)
        for block in self.delegations[max(0, idx - 2) : idx]:
            if first <= block.last and block.first <= last:
                return block
        return None

    def rir_of(self, asn: ASN, day: Optional[Day] = None) -> Optional[str]:
        """Return the RIR holding the block containing ``asn``.

        With ``day`` given, only delegations made on or before that day
        count — an allocation of an ASN before its block existed is the
        §3.1(vi) "mistaken allocation" defect.
        """
        idx = bisect.bisect_right(self._starts, asn) - 1
        if idx < 0:
            return None
        block = self.delegations[idx]
        if asn not in block:
            return None
        if day is not None and block.day > day:
            return None
        return block.rir

    def blocks_of(self, rir: str) -> List[BlockDelegation]:
        """All blocks delegated to one RIR, in ascending ASN order."""
        return [b for b in self.delegations if b.rir == rir]

    def sixteen_bit_totals(self) -> Dict[str, int]:
        """Per-RIR count of delegated 16-bit AS numbers."""
        totals: Dict[str, int] = {}
        for block in self.delegations:
            if block.last <= AS16_MAX:
                totals[block.rir] = totals.get(block.rir, 0) + block.size
        return totals

    def undelegated_16bit(self) -> int:
        """Count of 16-bit ASNs in no block (IANA's remaining pool)."""
        covered = sum(b.size for b in self.delegations if b.last <= AS16_MAX)
        return AS16_MAX + 1 - covered

    def spans(self) -> List[Tuple[ASN, ASN, str]]:
        """Return ``(first, last, rir)`` rows in ascending order."""
        return [(b.first, b.last, b.rir) for b in self.delegations]
