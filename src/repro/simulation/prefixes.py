"""Deterministic prefix assignment for the synthetic Internet.

Every active ASN originates a prefix carved from dedicated /8s so that
assignments never collide; hijack and leak events draw from separate
/8s, making MOAS conflicts an explicit, intentional construction (the
digit-typo events *want* a MOAS with their victim).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..asn.numbers import ASN
from ..net.prefix import Prefix

__all__ = ["PrefixPlan"]

#: /8s used for legitimate per-ASN originations (as /20s: 4096 each).
_LEGIT_BASES = (
    Prefix.parse("10.0.0.0/8"),
    Prefix.parse("45.0.0.0/8"),
    Prefix.parse("57.0.0.0/8"),
    Prefix.parse("99.0.0.0/8"),
)
_SLOTS_PER_BASE = 1 << 12  # /8 -> /20
_HIJACK_BASE = Prefix.parse("24.0.0.0/8")
_LEAK_BASE = Prefix.parse("33.0.0.0/8")


class PrefixPlan:
    """Hands out non-overlapping prefixes, deterministically in call order."""

    def __init__(self) -> None:
        self._own: Dict[ASN, Prefix] = {}
        self._own_cursor = 0
        self._hijack_cursor = 0
        self._leak_cursor = 0

    def own_prefix(self, asn: ASN) -> Prefix:
        """The /20 an ASN originates when active (stable per ASN)."""
        prefix = self._own.get(asn)
        if prefix is None:
            base_index, slot = divmod(self._own_cursor, _SLOTS_PER_BASE)
            base = _LEGIT_BASES[base_index % len(_LEGIT_BASES)]
            prefix = base.subprefix(slot, 20)
            self._own_cursor += 1
            self._own[asn] = prefix
        return prefix

    def hijack_prefixes(self, count: int) -> Tuple[Prefix, ...]:
        """Fresh /20s for a squat/hijack event (paper: tens of /16-/20s)."""
        out: List[Prefix] = []
        for _ in range(count):
            out.append(_HIJACK_BASE.subprefix(self._hijack_cursor % (1 << 12), 20))
            self._hijack_cursor += 1
        return tuple(out)

    def leak_pair(self) -> Tuple[Prefix, Prefix]:
        """(covering /12, leaked /24 inside it) for an internal-leak event."""
        covering = _LEAK_BASE.subprefix(self._leak_cursor % (1 << 4), 12)
        leaked = covering.subprefix((self._leak_cursor * 7) % (1 << 12), 24)
        self._leak_cursor += 1
        return covering, leaked
