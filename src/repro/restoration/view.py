"""Per-registry observation views assembled from the two file kinds.

A registry publishes up to two parallel feeds (regular + extended); the
restoration pipeline works on a single *view* per registry: for each
day, the authoritative feed is the extended one once it exists ("we
consider the information from the extended delegation file", §3.1),
and the regular one before that.  The regular feed remains available to
later steps as a recovery source (§3.1 step ii).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..asn.numbers import ASN
from ..rir.archive import DelegationArchive, Stint
from ..rir.overlay import EXTENDED, REGULAR
from ..timeline.dates import Day

__all__ = ["RegistryView", "build_registry_view"]


@dataclass
class RegistryView:
    """One registry's merged observations plus recovery metadata.

    ``stints`` is the authoritative per-ASN timeline (era-stitched);
    ``regular_stints`` the full regular-feed timeline (recovery source);
    ``unavailable_days`` the days on which the authoritative feed had
    no usable file; ``extended_start`` the first extended-era day (or
    ``None`` if the registry never published extended files in window).
    """

    registry: str
    stints: Dict[ASN, List[Stint]] = field(default_factory=dict)
    regular_stints: Dict[ASN, List[Stint]] = field(default_factory=dict)
    unavailable_days: Set[Day] = field(default_factory=set)
    extended_start: Optional[Day] = None
    first_day: Day = 0
    last_day: Day = 0
    regular_first_day: Optional[Day] = None
    regular_last_day: Optional[Day] = None
    regular_unavailable_days: Set[Day] = field(default_factory=set)

    def prune_recovery_state(self) -> None:
        """Drop the regular-feed recovery data once restoration is done.

        ``regular_stints`` is a full second timeline consulted only by
        the §3.1 recovery steps (ii) and same-day measurement; after the
        pipeline has run, keeping it roughly doubles the view's pickled
        size for no consumer.  Downstream analyses read only the
        authoritative ``stints`` and the window metadata.
        """
        self.regular_stints = {}
        self.regular_unavailable_days = set()


def _clip_stints(stints: List[Stint], lo: Day, hi: Day) -> List[Stint]:
    """The stints cut to ``[lo, hi]``; an uncut stint is kept as is."""
    out = []
    for stint in stints:
        if lo <= stint.start and stint.end <= hi:
            out.append(stint)
            continue
        start, end = max(stint.start, lo), min(stint.end, hi)
        if start <= end:
            out.append(Stint(start, end, stint.record))
    return out


def build_registry_view(archive: DelegationArchive, registry: str) -> RegistryView:
    """Assemble the per-registry view from the published feeds."""
    regular_key = (registry, REGULAR)
    extended_key = (registry, EXTENDED)
    has_regular = archive.has_source(regular_key)
    has_extended = archive.has_source(extended_key)
    if not has_regular and not has_extended:
        raise ValueError(f"{registry} publishes no delegation files")

    view = RegistryView(registry=registry)
    regular_window = archive.window(regular_key) if has_regular else None
    extended_window = archive.window(extended_key) if has_extended else None
    view.first_day = min(
        w.first_day for w in (regular_window, extended_window) if w is not None
    )
    view.last_day = max(
        w.last_day for w in (regular_window, extended_window) if w is not None
    )
    view.extended_start = extended_window.first_day if extended_window else None

    if has_regular:
        # the views own their timelines: restoration reads each source
        # once, so nothing is memoized on the archive
        view.regular_stints = archive.build_timeline(regular_key)
        view.regular_first_day = regular_window.first_day
        view.regular_last_day = regular_window.last_day
        view.regular_unavailable_days = set(archive.unavailable_days(regular_key))

    # authoritative timeline: regular before the extended era, extended after
    merged: Dict[ASN, List[Stint]] = {}
    if has_regular:
        regular_hi = (
            min(regular_window.last_day, view.extended_start - 1)
            if view.extended_start is not None
            else regular_window.last_day
        )
        if regular_hi >= regular_window.first_day:
            for asn, stints in view.regular_stints.items():
                clipped = _clip_stints(stints, regular_window.first_day, regular_hi)
                if clipped:
                    merged[asn] = clipped
    if has_extended:
        for asn, stints in archive.build_timeline(extended_key).items():
            clipped = _clip_stints(
                stints, extended_window.first_day, extended_window.last_day
            )
            if clipped:
                merged.setdefault(asn, []).extend(clipped)
    for stints in merged.values():
        if len(stints) > 1:
            stints.sort(key=lambda s: (s.start, s.end))
    view.stints = merged

    # days with no usable authoritative file
    if has_regular:
        regular_hi = (
            view.extended_start - 1 if view.extended_start is not None else None
        )
        for day in archive.unavailable_days(regular_key):
            if regular_hi is None or day <= regular_hi:
                view.unavailable_days.add(day)
    if has_extended:
        view.unavailable_days |= archive.unavailable_days(extended_key)
    return view
