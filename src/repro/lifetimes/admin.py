"""§4.1 administrative lifetime inference.

From the restored observation timeline, lifetimes are built with the
paper's rules:

* a lifetime starts when an ASN (re)appears delegated;
* it ends when the ASN becomes available, reserved, or disappears;
* an ASN reappearing **with the same registration date** was returned
  to its previous holder — the spans merge into one lifetime;
* **AfriNIC exception**: reserved then re-allocated *without passing
  through available* merges even with a fresh registration date;
* a registration date changing while the ASN stays delegated is an
  administrative correction, not a new lifetime;
* an inter-RIR transfer keeps the lifetime whole iff there is no gap
  between the two registries' delegations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..asn.numbers import ASN
from ..rir.archive import Stint
from ..rir.model import Status
from ..restoration.pipeline import RestoredDelegations
from ..timeline.dates import Day
from .records import AdminLifetime

__all__ = ["build_admin_lifetimes", "admin_lifetimes_for_stints"]


@dataclass
class _Run:
    """A maximal block of contiguous delegated days."""

    start: Day
    end: Day
    registries: List[str] = field(default_factory=list)
    first_reg_date: Optional[Day] = None
    last_reg_date: Optional[Day] = None
    cc: str = ""
    org_id: Optional[str] = None
    via_nir: bool = False

    def absorb(self, stint: Stint) -> None:
        self.end = max(self.end, stint.end)
        rec = stint.record
        if not self.registries or self.registries[-1] != rec.registry:
            self.registries.append(rec.registry)
        self.last_reg_date = rec.reg_date
        if rec.cc:
            self.cc = rec.cc
        if rec.opaque_id:
            self.org_id = rec.opaque_id


def _build_runs(stints: Sequence[Stint]) -> List[_Run]:
    runs: List[_Run] = []
    for stint in stints:
        if not stint.record.is_delegated:
            continue
        if runs and stint.start <= runs[-1].end + 1:
            runs[-1].absorb(stint)
            continue
        run = _Run(
            start=stint.start,
            end=stint.end,
            registries=[stint.record.registry],
            first_reg_date=stint.record.reg_date,
            last_reg_date=stint.record.reg_date,
            cc=stint.record.cc,
            org_id=stint.record.opaque_id,
        )
        runs.append(run)
    return runs


def _was_available_between(
    stints: Sequence[Stint], registry: str, start: Day, end: Day
) -> bool:
    """True when the ASN touched the *available* pool of ``registry``
    anywhere in (start, end) — which forbids the AfriNIC merge."""
    for stint in stints:
        if stint.record.registry != registry:
            continue
        if stint.record.status is not Status.AVAILABLE:
            continue
        if stint.start <= end and start <= stint.end:
            return True
    return False


def _should_merge(prev: _Run, nxt: _Run, stints: Sequence[Stint]) -> bool:
    if prev.registries[-1] != nxt.registries[0]:
        # cross-registry reappearance with a gap: distinct lifetimes
        # (gap-free transfers never split into two runs)
        return False
    if (
        prev.last_reg_date is not None
        and nxt.first_reg_date is not None
        and prev.last_reg_date == nxt.first_reg_date
    ):
        # same registration date: returned to the previous holder
        return True
    if prev.registries[-1] == "afrinic":
        # AfriNIC exception: merge if never available in between
        return not _was_available_between(
            stints, "afrinic", prev.end + 1, nxt.start - 1
        )
    return False


def admin_lifetimes_for_stints(
    asn: ASN, stints: Sequence[Stint], end_day: Day
) -> List[AdminLifetime]:
    """Lifetimes of a single ASN from its restored stint timeline."""
    runs = _build_runs(stints)
    if not runs:
        return []
    merged: List[List[_Run]] = [[runs[0]]]
    for run in runs[1:]:
        if _should_merge(merged[-1][-1], run, stints):
            merged[-1].append(run)
        else:
            merged.append([run])
    lifetimes: List[AdminLifetime] = []
    for group in merged:
        registries: List[str] = []
        for run in group:
            for registry in run.registries:
                if not registries or registries[-1] != registry:
                    registries.append(registry)
        first = group[0]
        last = group[-1]
        reg_date = first.first_reg_date if first.first_reg_date is not None else first.start
        lifetimes.append(
            AdminLifetime(
                asn=asn,
                start=first.start,
                end=last.end,
                reg_date=reg_date,
                registries=tuple(registries),
                cc=last.cc or first.cc,
                org_id=last.org_id or first.org_id,
                open_ended=last.end >= end_day,
                via_nir=first.via_nir,
            )
        )
    return lifetimes


def build_admin_lifetimes(
    restored: RestoredDelegations,
) -> Dict[ASN, List[AdminLifetime]]:
    """Administrative lifetimes for every ASN in the restored data.

    The paper derives 126,953 lifetimes over 106,873 ASNs from its full
    archive; the same construction here is linear in the number of
    stints.  The returned mapping is ASN-sorted.

    Lifetimes whose first observation falls on a registry's very first
    delegation file are *left-censored*: the ASN was allocated before
    files existed (registration dates reach back to 1992, Appendix A),
    so the lifetime is back-dated to its registration date.  Without
    this, every pre-2004 network active at the window edge would be
    misclassified as a §6.2 "operational life starting before the
    allocation".
    """
    first_file_day = {
        registry: view.first_day for registry, view in restored.views.items()
    }
    out: Dict[ASN, List[AdminLifetime]] = {}
    for asn, stints in sorted(restored.stints.items()):
        lifetimes = admin_lifetimes_for_stints(asn, stints, restored.end_day)
        if not lifetimes:
            continue
        first = lifetimes[0]
        window_start = first_file_day.get(first.registries[0])
        if (
            window_start is not None
            and first.start == window_start
            and first.reg_date < first.start
        ):
            lifetimes[0] = replace(first, start=first.reg_date, left_censored=True)
        out[asn] = lifetimes
    return out
