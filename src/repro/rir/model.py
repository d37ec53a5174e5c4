"""Core data model for RIR delegation data.

Five Regional Internet Registries manage AS-number delegations (§2).
Each publishes daily "delegation files" listing the status of the
resources it is responsible for.  Two formats exist:

* the **regular** format (2004-) lists only *delegated* resources
  (status ``allocated``/``assigned``);
* the **extended** format (2008-2013 onward depending on the RIR) lists
  the registry's whole pool — ``available`` and ``reserved`` resources
  too — and adds an ``opaque_id`` identifying the holding organization
  within the file.

This module defines the record/snapshot value types shared by the
format codecs, the registry state machine, the pitfall injector, and
the restoration pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..asn.numbers import ASN
from ..timeline.dates import Day, from_iso, to_iso

__all__ = [
    "RIR_NAMES",
    "FIRST_REGULAR_FILE",
    "FIRST_EXTENDED_FILE",
    "ARIN_REGULAR_STOP",
    "Status",
    "DelegationRecord",
    "DelegationSnapshot",
]

#: Sets a field of a frozen slotted row, whose own ``__setattr__`` raises.
_set = object.__setattr__

#: Canonical lowercase registry identifiers, as used inside the files.
RIR_NAMES: Tuple[str, ...] = ("afrinic", "apnic", "arin", "lacnic", "ripencc")

#: First day a regular delegation file exists per RIR (paper Table 1).
FIRST_REGULAR_FILE: Dict[str, Day] = {
    "afrinic": from_iso("2005-02-18"),
    "apnic": from_iso("2003-10-09"),
    "arin": from_iso("2003-11-20"),
    "lacnic": from_iso("2004-01-01"),
    "ripencc": from_iso("2003-11-26"),
}

#: First day an extended delegation file exists per RIR (paper Table 1).
FIRST_EXTENDED_FILE: Dict[str, Day] = {
    "afrinic": from_iso("2012-10-02"),
    "apnic": from_iso("2008-02-14"),
    "arin": from_iso("2013-03-05"),
    "lacnic": from_iso("2012-06-28"),
    "ripencc": from_iso("2010-04-22"),
}

#: ARIN stopped publishing the regular file after this day (§3.1 fn. 3).
ARIN_REGULAR_STOP: Day = from_iso("2013-08-12")


class Status(enum.Enum):
    """Delegation status of a resource in a delegation file.

    ``ALLOCATED``/``ASSIGNED`` both mean "delegated to an organization";
    the distinction (direct vs. through an LIR) is irrelevant to the
    paper's lifetimes and both are treated as the administrative life
    being *on*.  ``AVAILABLE`` and ``RESERVED`` only appear in extended
    files.
    """

    ALLOCATED = "allocated"
    ASSIGNED = "assigned"
    AVAILABLE = "available"
    RESERVED = "reserved"

    @property
    def is_delegated(self) -> bool:
        """True for statuses that mean "held by an organization"."""
        return self is _ALLOCATED or self is _ASSIGNED

    @classmethod
    def parse(cls, text: str) -> "Status":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown delegation status {text!r}") from None


# Module-level aliases of the delegated members: a global read costs a
# fraction of an enum member lookup, and the checks below run per row.
_ALLOCATED = Status.ALLOCATED
_ASSIGNED = Status.ASSIGNED


@dataclass(frozen=True, init=False)
class DelegationRecord:
    """One ASN row of a delegation file.

    ``reg_date`` is the registration date field; for ``available``
    records the real files leave it empty (``None`` here).  ``opaque_id``
    is only present in extended files (``None`` by default).  ``cc`` is
    the ISO country code of the holding organization (empty for pool
    resources).

    A run builds one record per change point, so the class is slotted
    and sets its fields in a hand-written ``__init__`` (DESIGN.md §5,
    decision 11).  It stays a frozen dataclass: ``fields``, equality
    and ``repr`` are the generated ones.
    """

    __slots__ = ("registry", "cc", "asn", "reg_date", "status", "opaque_id")

    registry: str
    cc: str
    asn: ASN
    reg_date: Optional[Day]
    status: Status
    opaque_id: Optional[str]

    def __init__(
        self,
        registry: str,
        cc: str,
        asn: ASN,
        reg_date: Optional[Day],
        status: Status,
        opaque_id: Optional[str] = None,
    ) -> None:
        if registry not in RIR_NAMES:
            raise ValueError(f"unknown registry {registry!r}")
        if reg_date is None and (status is _ALLOCATED or status is _ASSIGNED):
            raise ValueError(f"delegated record for AS{asn} lacks a date")
        _set(self, "registry", registry)
        _set(self, "cc", cc)
        _set(self, "asn", asn)
        _set(self, "reg_date", reg_date)
        _set(self, "status", status)
        _set(self, "opaque_id", opaque_id)

    def __hash__(self) -> int:
        return hash(
            (self.registry, self.cc, self.asn, self.reg_date, self.status, self.opaque_id)
        )

    def __reduce__(self):
        # the default slot state cannot be set back on a frozen object
        # (its __setattr__ raises), so a record pickles as a call
        return (
            DelegationRecord,
            (self.registry, self.cc, self.asn, self.reg_date, self.status, self.opaque_id),
        )

    def __setstate__(self, state: Dict[str, object]) -> None:
        # pickles written before the class had slots carry a field dict
        for name, value in state.items():
            _set(self, name, value)

    @property
    def is_delegated(self) -> bool:
        status = self.status
        return status is _ALLOCATED or status is _ASSIGNED

    def with_date(self, reg_date: Optional[Day]) -> "DelegationRecord":
        """Copy with a different registration date (restoration step v)."""
        return DelegationRecord(
            self.registry, self.cc, self.asn, reg_date, self.status, self.opaque_id
        )

    def with_status(self, status: Status) -> "DelegationRecord":
        """Copy with a different status (pitfall/restoration use)."""
        return DelegationRecord(
            self.registry, self.cc, self.asn, self.reg_date, status, self.opaque_id
        )

    def key_fields(self) -> Tuple[str, str, Optional[Day], str, Optional[str]]:
        """Everything except the ASN, for run-length file compression."""
        return (self.registry, self.cc, self.reg_date, self.status.value, self.opaque_id)

    def describe(self) -> str:
        """Human-readable one-liner for reports and examples."""
        date = to_iso(self.reg_date) if self.reg_date is not None else "-"
        who = f" org={self.opaque_id}" if self.opaque_id else ""
        return f"AS{self.asn} {self.status.value} by {self.registry} ({self.cc or '??'}) reg {date}{who}"


@dataclass
class DelegationSnapshot:
    """The parsed content of one delegation file for one day.

    ``file_day`` is the day in the file header; ``serial`` a publication
    serial (the real files carry one; the §3.1 step (iii) "same day file
    update" tie-break uses the newest header).  ``extended`` tells which
    format the snapshot came from.  ``records`` holds only ASN records —
    the real files also carry IPv4/IPv6 rows, which the codec skips.
    """

    registry: str
    file_day: Day
    extended: bool
    records: List[DelegationRecord]
    serial: int = 0

    def __post_init__(self) -> None:
        if self.registry not in RIR_NAMES:
            raise ValueError(f"unknown registry {self.registry!r}")

    def asns(self) -> List[ASN]:
        """All ASNs mentioned, in file order (may contain duplicates —
        the AfriNIC duplicate-record pitfall of §3.1 step (iv))."""
        return [r.asn for r in self.records]

    def by_asn(self) -> Dict[ASN, List[DelegationRecord]]:
        """Index records by ASN, preserving duplicates."""
        out: Dict[ASN, List[DelegationRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.asn, []).append(rec)
        return out

    def delegated_records(self) -> List[DelegationRecord]:
        """Only the rows with a delegated (allocated/assigned) status."""
        return [r for r in self.records if r.is_delegated]

    def count_by_status(self) -> Dict[Status, int]:
        out: Dict[Status, int] = {}
        for rec in self.records:
            out[rec.status] = out.get(rec.status, 0) + 1
        return out
