"""Defect overlay applied on top of clean registry histories.

The §3.1 restoration effort exists because real delegation archives are
imperfect.  We reproduce that imperfection *separably*: registries emit
internally-consistent data, and an :class:`ArchiveOverlay` describes
the corruptions the archive layer applies when materializing files or
timelines.  Because the overlay is explicit, every experiment knows the
ground truth and the restoration pipeline can be scored.

Defect classes map one-to-one onto §3.1:

===========================  ==============================================
overlay primitive            paper defect (§3.1 step that repairs it)
===========================  ==============================================
``missing_days``             file absent from the FTP site (i)
``corrupt_days``             file unreadable/truncated (i)
``record_drops``             groups of ASNs vanishing for a few days (ii)
``stale_days``               regular/extended same-day divergence (iii)
``extra_records``            duplicate/stale/mistaken rows (iv, vi)
``date_overrides``           future/backward/placeholder reg dates (v)
===========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..asn.numbers import ASN
from ..timeline.dates import Day
from ..timeline.intervals import Interval
from .model import DelegationRecord

__all__ = ["SourceKey", "REGULAR", "EXTENDED", "ArchiveOverlay"]

#: A data source is one registry's stream of one file kind.
SourceKey = Tuple[str, str]

REGULAR = "regular"
EXTENDED = "extended"


@dataclass
class ArchiveOverlay:
    """All injected defects, keyed by source.

    Instances are normally produced by
    :class:`repro.rir.pitfalls.PitfallInjector`, which also keeps the
    human-readable ground-truth log; building one by hand is supported
    for targeted tests.
    """

    missing_days: Dict[SourceKey, Set[Day]] = field(default_factory=dict)
    corrupt_days: Dict[SourceKey, Set[Day]] = field(default_factory=dict)
    stale_days: Dict[SourceKey, Set[Day]] = field(default_factory=dict)
    record_drops: Dict[SourceKey, Dict[ASN, List[Interval]]] = field(default_factory=dict)
    extra_records: Dict[SourceKey, Dict[ASN, List[Tuple[Interval, DelegationRecord]]]] = (
        field(default_factory=dict)
    )
    date_overrides: Dict[SourceKey, Dict[ASN, List[Tuple[Interval, Optional[Day]]]]] = (
        field(default_factory=dict)
    )

    # -- builders --------------------------------------------------------

    def mark_missing(self, source: SourceKey, day: Day) -> None:
        """The file for ``day`` never made it to the FTP site."""
        self.missing_days.setdefault(source, set()).add(day)

    def mark_corrupt(self, source: SourceKey, day: Day) -> None:
        """The file for ``day`` exists but cannot be parsed."""
        self.corrupt_days.setdefault(source, set()).add(day)

    def mark_stale(self, source: SourceKey, day: Day) -> None:
        """The file for ``day`` was not regenerated: it repeats the
        previous day's content (same-day regular/extended divergence)."""
        self.stale_days.setdefault(source, set()).add(day)

    def drop_record(self, source: SourceKey, asn: ASN, interval: Interval) -> None:
        """The ASN's row is absent from the files during ``interval``."""
        self.record_drops.setdefault(source, {}).setdefault(asn, []).append(interval)

    def add_record(
        self, source: SourceKey, interval: Interval, record: DelegationRecord
    ) -> None:
        """An extra (duplicate/stale/mistaken) row appears during
        ``interval``, alongside whatever legitimate row exists."""
        self.extra_records.setdefault(source, {}).setdefault(record.asn, []).append(
            (interval, record)
        )

    def override_date(
        self, source: SourceKey, asn: ASN, interval: Interval, date: Optional[Day]
    ) -> None:
        """The registration date shown during ``interval`` is wrong
        (future, placeholder, or travelled back in time)."""
        self.date_overrides.setdefault(source, {}).setdefault(asn, []).append(
            (interval, date)
        )

    # -- queries ---------------------------------------------------------

    def unavailable_days(self, source: SourceKey) -> Set[Day]:
        """Days with no usable file (missing or corrupt)."""
        return self.missing_days.get(source, set()) | self.corrupt_days.get(source, set())

    def defect_count(self) -> int:
        """Total number of injected defect entries (for reports)."""
        total = sum(len(v) for v in self.missing_days.values())
        total += sum(len(v) for v in self.corrupt_days.values())
        total += sum(len(v) for v in self.stale_days.values())
        total += sum(len(ivs) for per in self.record_drops.values() for ivs in per.values())
        total += sum(len(rows) for per in self.extra_records.values() for rows in per.values())
        total += sum(len(ovr) for per in self.date_overrides.values() for ovr in per.values())
        return total
