"""Anomalous BGP behaviors the paper discovers, as injectable events.

§6 catalogues behaviors visible only through the joint admin/BGP lens:
squatting of dormant ASNs used for prefix hijacks (§6.1.2), squatting
of freshly *deallocated* ASNs (§6.4), fat-finger origin typos — failed
prepends and one-digit MOAS partners (§6.4), internal numbering leaks
of huge unallocated ASNs (§6.4), and benign dangling announcements
after deallocation (§6.2).

The simulation schedules these as :class:`AnomalyEvent` ground truth;
on any given day an event expands into the BGP announcements that
realize it.  The §6 detectors are then scored against the event log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..asn.numbers import ASN
from ..net.prefix import Prefix
from ..timeline.dates import Day
from ..timeline.intervals import Interval
from .stream import Announcement

__all__ = [
    "SQUAT_DORMANT",
    "SQUAT_POST_DEALLOC",
    "FAT_FINGER_PREPEND",
    "FAT_FINGER_DIGIT",
    "INTERNAL_LEAK",
    "DANGLING",
    "MALICIOUS_KINDS",
    "MISCONFIG_KINDS",
    "AnomalyEvent",
]

#: A dormant-but-allocated ASN wakes up to originate hijacked prefixes.
SQUAT_DORMANT = "squat_dormant"
#: A recently deallocated ASN is squatted for hijacks (§6.4).
SQUAT_POST_DEALLOC = "squat_post_dealloc"
#: Failed AS-path prepend: origin is the first hop's digits repeated.
FAT_FINGER_PREPEND = "fat_finger_prepend"
#: Origin one digit away from the victim's ASN, causing a MOAS.
FAT_FINGER_DIGIT = "fat_finger_digit"
#: A huge internally-used (never-allocated) ASN leaks to the Internet.
INTERNAL_LEAK = "internal_leak"
#: Announcements persisting after deallocation (benign, §6.2).
DANGLING = "dangling"
#: Short appearances of never-allocated ASNs with no identified cause —
#: the unexplained bulk of the §6.4 never-allocated population.
NOISE_ORIGIN = "noise_origin"

MALICIOUS_KINDS = frozenset({SQUAT_DORMANT, SQUAT_POST_DEALLOC})
MISCONFIG_KINDS = frozenset({FAT_FINGER_PREPEND, FAT_FINGER_DIGIT, INTERNAL_LEAK})


@dataclass(frozen=True)
class AnomalyEvent:
    """One scheduled anomalous episode.

    ``origin`` is the origin ASN observers will see in paths; when it
    differs from ``announcer`` (the actual BGP speaker), the speaker is
    forging — exactly how squatting and fat-finger origins appear in
    the wild.  ``victim`` is the legitimate party, when one exists (the
    MOAS counterpart, or the prefix holder being hijacked).
    """

    kind: str
    interval: Interval
    origin: ASN
    announcer: ASN
    prefixes: Tuple[Prefix, ...]
    victim: Optional[ASN] = None
    note: str = ""
    #: Side announcements emitted alongside the event — e.g. the
    #: covering aggregate a large operator legitimately announces while
    #: an internal ASN leaks a more-specific inside it (§6.4).
    extra_announcements: Tuple[Announcement, ...] = ()

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ValueError(f"{self.kind} event needs at least one prefix")

    @property
    def is_forged(self) -> bool:
        """True when the visible origin is not the actual speaker."""
        return self.origin != self.announcer

    @property
    def is_malicious(self) -> bool:
        return self.kind in MALICIOUS_KINDS

    def active_on(self, day: Day) -> bool:
        return day in self.interval

    def announcements(self, day: Day) -> List[Announcement]:
        """The BGP announcements this event contributes on ``day``."""
        if not self.active_on(day):
            return []
        forged = self.origin if self.is_forged else None
        out = [
            Announcement(announcer=self.announcer, prefix=prefix, forged_origin=forged)
            for prefix in self.prefixes
        ]
        out.extend(self.extra_announcements)
        return out

    def describe(self) -> str:
        return (
            f"{self.kind}: origin AS{self.origin} via AS{self.announcer}, "
            f"{len(self.prefixes)} prefix(es), days "
            f"[{self.interval.start}..{self.interval.end}]"
            + (f", victim AS{self.victim}" if self.victim is not None else "")
        )
