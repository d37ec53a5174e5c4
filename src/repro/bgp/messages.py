"""BGP record types, shaped after CAIDA BGPStream elements.

The paper processes "one full RIB dump per collector and all update
dumps available" per day through BGPStream (§3.2).  Our synthetic
stream yields the same element shape: RIB entries (``R``), announcements
(``A``) and withdrawals (``W``), each tagged with the project/collector
/peer that observed it.

Times are day ordinals plus an intra-day sequence number — the entire
analysis is daily, so sub-day timing only needs to be ordered, not
realistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..asn.numbers import ASN
from ..net.prefix import Prefix
from ..timeline.dates import Day

__all__ = [
    "RIB",
    "ANNOUNCE",
    "WITHDRAW",
    "BgpElement",
    "path_has_loop",
    "distinct_path_asns",
]

RIB = "R"
ANNOUNCE = "A"
WITHDRAW = "W"


def path_has_loop(as_path: Tuple[ASN, ...]) -> bool:
    """True when an ASN repeats non-consecutively in the path.

    Consecutive repetitions are legitimate AS-path prepending; the same
    ASN appearing again after a different hop indicates a routing loop,
    which §3.2 discards as "often related to misconfigurations".
    """
    seen = set()
    previous: Optional[ASN] = None
    for asn in as_path:
        if asn == previous:
            continue
        if asn in seen:
            return True
        seen.add(asn)
        previous = asn
    return False


def distinct_path_asns(as_path: Tuple[ASN, ...]) -> Tuple[ASN, ...]:
    """Distinct ASNs of a path, in order of first appearance.

    Backs :meth:`BgpElement.path_asns`, which caches it per element.
    The columnar activity engine needs no dedup: it counts per (ASN,
    peer) code, and a decorated path's codes go into a set.
    """
    out = []
    seen = set()
    for asn in as_path:
        if asn not in seen:
            seen.add(asn)
            out.append(asn)
    return tuple(out)


@dataclass(frozen=True)
class BgpElement:
    """One observed BGP element, as a BGPStream consumer would see it."""

    elem_type: str  # RIB / ANNOUNCE / WITHDRAW
    day: Day
    sequence: int
    project: str
    collector: str
    peer_asn: ASN
    prefix: Prefix
    as_path: Tuple[ASN, ...] = ()

    def __post_init__(self) -> None:
        if self.elem_type not in (RIB, ANNOUNCE, WITHDRAW):
            raise ValueError(f"unknown element type {self.elem_type!r}")
        if self.elem_type != WITHDRAW and not self.as_path:
            raise ValueError("RIB/announce elements need an AS path")

    @property
    def origin(self) -> Optional[ASN]:
        """The origin ASN (last hop of the path); ``None`` on withdrawals."""
        return self.as_path[-1] if self.as_path else None

    @property
    def has_loop(self) -> bool:
        cached = self.__dict__.get("_has_loop")
        if cached is None:
            cached = path_has_loop(self.as_path)
            object.__setattr__(self, "_has_loop", cached)
        return cached

    def path_asns(self) -> Tuple[ASN, ...]:
        """Distinct ASNs on the path, in order of first appearance.

        Every ASN in the path counts as "seen in BGP" that day (§3.2
        tracks "ASNs that appear in BGP paths", transit included).
        Memoized per element: sanitization, visibility accounting, and
        the role analyses all decode the same path, and the element is
        frozen, so the decode is paid once.
        """
        cached = self.__dict__.get("_path_asns")
        if cached is None:
            cached = distinct_path_asns(self.as_path)
            object.__setattr__(self, "_path_asns", cached)
        return cached

    def describe(self) -> str:
        """Compact human-readable rendering for examples and logs."""
        path = " ".join(str(a) for a in self.as_path) or "-"
        return (
            f"{self.elem_type}|{self.collector}|peer {self.peer_asn}|"
            f"{self.prefix}|{path}"
        )
