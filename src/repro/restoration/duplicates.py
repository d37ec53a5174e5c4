"""§3.1 step (iv): resolve contradictory duplicate records.

"In the AfriNIC files, we find duplicate records with inconsistent
information (e.g., allocated and reserved) persisting over periods of
up to 6 months ... By manually looking at the history of each ASN ...
we gather strong evidence disambiguating the inconsistent information."

The automated analogue: when two stints of one ASN overlap in time with
different content, the row consistent with the surrounding history wins
— measured as the total adjacent coverage by compatible stints.  On a
tie, the delegated row wins (BGP evidence in the paper generally
favored the allocation being real).
"""

from __future__ import annotations

from typing import Dict, List

from ..rir.archive import Stint
from .compat import records_compatible
from .report import RestorationReport
from .view import RegistryView

__all__ = ["resolve_duplicate_records"]


def _context_support(stints: List[Stint], candidate: Stint) -> int:
    """Days of non-overlapping adjacent stints compatible with the
    candidate's record (the "history" evidence)."""
    support = 0
    for other in stints:
        if other is candidate:
            continue
        if other.start <= candidate.end and candidate.start <= other.end:
            continue
        if records_compatible(other.record, candidate.record):
            support += other.duration
    return support


def resolve_duplicate_records(
    views: Dict[str, RegistryView], report: RestorationReport
) -> None:
    """Drop the less-supported row of every overlapping pair (in place)."""
    step = report.step("iv-duplicate-records")
    for registry, view in sorted(views.items()):
        affected = 0
        rows_dropped = 0
        for asn, stints in view.stints.items():
            changed = False
            while True:
                clash = _find_overlap(stints)
                if clash is None:
                    break
                a, b = clash
                _keep, drop = _pick_winner(stints, stints[a], stints[b])
                stints.remove(drop)
                rows_dropped += 1
                changed = True
            if changed:
                affected += 1
        if affected:
            step.bump(f"{registry}_asns_deduplicated", affected)
            # row-level twin of the ASN count: the dataflow ledger
            # balances per-registry row conservation against this
            step.bump(f"{registry}_duplicate_rows_dropped", rows_dropped)


def _find_overlap(stints: List[Stint]):
    # compares the stints' dates directly: building an Interval per
    # stint here was a measurable share of restoration
    for i in range(len(stints) - 1):
        a, b = stints[i], stints[i + 1]
        if a.start <= b.end and b.start <= a.end:
            return i, i + 1
    return None


def _pick_winner(stints: List[Stint], a: Stint, b: Stint):
    support_a = _context_support(stints, a)
    support_b = _context_support(stints, b)
    if support_a != support_b:
        return (a, b) if support_a > support_b else (b, a)
    if a.record.is_delegated != b.record.is_delegated:
        return (a, b) if a.record.is_delegated else (b, a)
    # final tie-break: the longer-observed row
    return (a, b) if a.duration >= b.duration else (b, a)
