"""Delegation archives: 17 years of daily files, materialized lazily.

A real archive is ~31,000 files (5 RIRs × 2 kinds × ~6,300 days).
Holding them all as text is wasteful, so the archive stores the per-ASN
*change points* produced by the registry state machines and materializes
either

* a :class:`~repro.rir.model.DelegationSnapshot` (or its exact NRO text)
  for any single day — the slow, file-faithful path used by tests,
  examples, and the format round-trip checks; or
* a per-ASN **stint timeline** for a whole source — the fast path the
  restoration pipeline and lifetime builders consume at scale.

Both paths apply the same :class:`~repro.rir.overlay.ArchiveOverlay`, so
they agree (equivalence-tested in ``tests/test_rir_archive.py``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..asn.numbers import ASN
from ..timeline.dates import Day
from ..timeline.intervals import Interval
from .formats import serialize_snapshot
from .model import (
    ARIN_REGULAR_STOP,
    FIRST_EXTENDED_FILE,
    FIRST_REGULAR_FILE,
    DelegationRecord,
    DelegationSnapshot,
)
from .overlay import EXTENDED, REGULAR, ArchiveOverlay, SourceKey
from .registry import Registry

__all__ = ["FileState", "Stint", "SourceWindow", "DelegationArchive"]


class FileState:
    """Tri-state availability of one day's file."""

    PRESENT = "present"
    MISSING = "missing"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class Stint:
    """A maximal span of days during which one source showed the same
    row for one ASN.  ``record`` carries the row content."""

    start: Day
    end: Day
    record: DelegationRecord

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.end)

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class SourceWindow:
    """Publication window of one source (first/last day a file exists)."""

    source: SourceKey
    first_day: Day
    last_day: Day

    def covers(self, day: Day) -> bool:
        return self.first_day <= day <= self.last_day


class DelegationArchive:
    """Lazy view over the delegation files of all five RIRs.

    Parameters
    ----------
    registries:
        The registry state machines whose histories back the archive.
        Their histories must be complete up to ``end_day``.
    end_day:
        Last day of the archive (the paper uses 2021-03-01).
    overlay:
        Injected defects; ``None`` means a pristine archive.
    """

    def __init__(
        self,
        registries: Mapping[str, Registry],
        end_day: Day,
        overlay: Optional[ArchiveOverlay] = None,
    ) -> None:
        self._registries = dict(registries)
        self._end_day = end_day
        self._overlay = overlay if overlay is not None else ArchiveOverlay()
        self._windows: Dict[SourceKey, SourceWindow] = {}
        for name in self._registries:
            reg_first = FIRST_REGULAR_FILE[name]
            reg_last = ARIN_REGULAR_STOP if name == "arin" else end_day
            self._windows[(name, REGULAR)] = SourceWindow(
                (name, REGULAR), reg_first, min(reg_last, end_day)
            )
            ext_first = FIRST_EXTENDED_FILE[name]
            if ext_first <= end_day:
                self._windows[(name, EXTENDED)] = SourceWindow(
                    (name, EXTENDED), ext_first, end_day
                )
        self._timeline_cache: Dict[SourceKey, Dict[ASN, List[Stint]]] = {}

    def __getstate__(self) -> dict:
        """Pickle without the memoized timelines.

        The cache is pure derived state: a loaded archive recomputes
        exactly the timelines it needs, and stripping it keeps on-disk
        artifact-cache entries small.
        """
        state = self.__dict__.copy()
        state["_timeline_cache"] = {}
        return state

    # -- introspection -----------------------------------------------------

    @property
    def end_day(self) -> Day:
        return self._end_day

    @property
    def overlay(self) -> ArchiveOverlay:
        return self._overlay

    def registries(self) -> Sequence[str]:
        return tuple(sorted(self._registries))

    def sources(self) -> Sequence[SourceWindow]:
        """All published sources, regular before extended per registry."""
        return tuple(self._windows[k] for k in sorted(self._windows))

    def window(self, source: SourceKey) -> SourceWindow:
        return self._windows[source]

    def has_source(self, source: SourceKey) -> bool:
        return source in self._windows

    def file_state(self, source: SourceKey, day: Day) -> str:
        """PRESENT / MISSING / CORRUPT for a day inside the window."""
        window = self._windows[source]
        if not window.covers(day):
            raise ValueError(f"{source} publishes no file on day {day}")
        if day in self._overlay.missing_days.get(source, set()):
            return FileState.MISSING
        if day in self._overlay.corrupt_days.get(source, set()):
            return FileState.CORRUPT
        return FileState.PRESENT

    def unavailable_days(self, source: SourceKey) -> Set[Day]:
        """Days with no usable file inside the window."""
        window = self._windows[source]
        return {
            d
            for d in self._overlay.unavailable_days(source)
            if window.covers(d)
        }

    def file_count(self, registry: str) -> int:
        """Number of files the registry's FTP site holds (both kinds,
        missing days excluded) — the Table 1 'Number of files' column."""
        total = 0
        for kind in (REGULAR, EXTENDED):
            key = (registry, kind)
            if key not in self._windows:
                continue
            window = self._windows[key]
            span = window.last_day - window.first_day + 1
            total += span - len(
                {
                    d
                    for d in self._overlay.missing_days.get(key, set())
                    if window.covers(d)
                }
            )
        return total

    def day_count(self, registry: str) -> int:
        """Days with at least one usable file for the registry.

        This matches the paper's Table 1 "Number of files" semantics —
        the per-RIR totals there (5,791..6,345) equal the day coverage
        of each registry's archive, not the regular+extended file sum.
        """
        total = 0
        regular = (registry, REGULAR)
        extended = (registry, EXTENDED)
        windows = [self._windows[k] for k in (regular, extended) if k in self._windows]
        if not windows:
            return 0
        first = min(w.first_day for w in windows)
        last = max(w.last_day for w in windows)
        for day in range(first, last + 1):
            for key in (regular, extended):
                if key not in self._windows or not self._windows[key].covers(day):
                    continue
                if day not in self._overlay.unavailable_days(key):
                    total += 1
                    break
        return total

    # -- fast path: per-ASN stint timelines ---------------------------------

    def timeline(self, source: SourceKey) -> Dict[ASN, List[Stint]]:
        """Per-ASN stints for a source, with the overlay applied.

        Stints reflect *observation*: boundaries falling on missing or
        corrupt days are degraded to the nearest usable day, dropped
        records are punched out, extra records appear as additional
        (possibly overlapping) stints, and date overrides rewrite the
        registration date for their span — exactly what a day-by-day
        parse of the published files would yield.
        """
        if source in self._timeline_cache:
            return self._timeline_cache[source]
        if source not in self._windows:
            raise ValueError(f"source {source} is not published")
        registry_name, kind = source
        window = self._windows[source]
        registry = self._registries[registry_name]
        stale = self._overlay.stale_days.get(source, set())
        unavailable = self.unavailable_days(source)
        drops = self._overlay.record_drops.get(source, {})
        extras = self._overlay.extra_records.get(source, {})
        overrides = self._overlay.date_overrides.get(source, {})

        out: Dict[ASN, List[Stint]] = {}
        for asn, changes in registry.history.items():
            stints = self._base_stints(changes, kind, window, stale)
            if not stints and asn not in extras:
                continue
            if asn in overrides:
                stints = _apply_date_overrides(stints, overrides[asn])
            if asn in drops:
                stints = _punch_intervals(stints, drops[asn])
            stints = _degrade_boundaries(stints, unavailable, window)
            if asn in extras:
                stints = stints + _extra_stints(extras[asn], window, kind)
                stints.sort(key=lambda s: (s.start, s.end))
            if stints:
                out[asn] = stints
        # extras for ASNs the registry never touched (mistaken allocations)
        for asn, rows in extras.items():
            if asn in out or asn in registry.history:
                continue
            stints = _extra_stints(rows, window, kind)
            if stints:
                out[asn] = sorted(stints, key=lambda s: (s.start, s.end))
        self._timeline_cache[source] = out
        return out

    def _base_stints(
        self,
        changes: Sequence[Tuple[Day, Optional[DelegationRecord]]],
        kind: str,
        window: SourceWindow,
        stale: Set[Day],
    ) -> List[Stint]:
        """Turn raw change points into clamped stints for one kind."""
        stints: List[Stint] = []
        for idx, (day, record) in enumerate(changes):
            if stale:
                day = _effective_day(day, stale, window.last_day)
            next_day = (
                _effective_day(changes[idx + 1][0], stale, window.last_day)
                if idx + 1 < len(changes)
                else window.last_day + 1
            )
            if record is None:
                continue
            if kind == REGULAR and not record.is_delegated:
                continue
            if kind == REGULAR and record.opaque_id is not None:
                record = DelegationRecord(
                    registry=record.registry,
                    cc=record.cc,
                    asn=record.asn,
                    reg_date=record.reg_date,
                    status=record.status,
                    opaque_id=None,
                )
            start = max(day, window.first_day)
            end = min(next_day - 1, window.last_day)
            if start > end:
                continue
            if stints and stints[-1].end + 1 >= start and stints[-1].record == record:
                stints[-1] = Stint(stints[-1].start, end, record)
            else:
                stints.append(Stint(start, end, record))
        return stints

    # -- slow path: whole files ---------------------------------------------

    def snapshot(self, source: SourceKey, day: Day) -> Optional[DelegationSnapshot]:
        """Materialize one day's file; ``None`` when missing/corrupt.

        The snapshot is assembled from the timelines, so it reflects
        every overlay defect, including stale days (whose content and
        serial repeat the previous day's).
        """
        state = self.file_state(source, day)
        if state != FileState.PRESENT:
            return None
        registry_name, kind = source
        effective = day
        stale = self._overlay.stale_days.get(source, set())
        while effective in stale:
            effective -= 1
        records = [
            stint.record
            for stints in self.timeline(source).values()
            for stint in stints
            if stint.start <= effective <= stint.end
        ]
        records.sort(key=lambda r: (r.asn, r.status.value))
        return DelegationSnapshot(
            registry=registry_name,
            file_day=effective,
            extended=kind == EXTENDED,
            records=records,
            serial=effective,
        )

    def file_text(self, source: SourceKey, day: Day) -> Optional[str]:
        """The exact NRO text of one day's file.

        Returns ``None`` for missing days and deterministic garbage for
        corrupt days (a truncated render, which the parser rejects —
        letting end-to-end pipelines exercise the corrupt-file branch).
        """
        state = self.file_state(source, day)
        if state == FileState.MISSING:
            return None
        if state == FileState.CORRUPT:
            snap = DelegationSnapshot(
                registry=source[0],
                file_day=day,
                extended=source[1] == EXTENDED,
                records=[],
                serial=day,
            )
            text = serialize_snapshot(snap)
            cut = (zlib.crc32(f"{source}{day}".encode()) % 20) + 5
            return text[: max(len(text) - cut, 10)]
        snap = self.snapshot(source, day)
        assert snap is not None
        return serialize_snapshot(snap)

    def iter_days(self, source: SourceKey) -> Iterable[Day]:
        """Every day in the source's publication window."""
        window = self._windows[source]
        return range(window.first_day, window.last_day + 1)


# -- stint surgery helpers ----------------------------------------------


def _effective_day(day: Day, stale: Set[Day], last_day: Day) -> Day:
    """A change landing on a stale day only becomes visible on the next
    regenerated file."""
    while day in stale and day <= last_day:
        day += 1
    return day


def _apply_date_overrides(
    stints: List[Stint],
    overrides: Sequence[Tuple[Interval, Optional[Day]]],
) -> List[Stint]:
    out = stints
    for span, date in overrides:
        nxt: List[Stint] = []
        for stint in out:
            hit = stint.interval.intersection(span)
            if hit is None or not stint.record.is_delegated:
                nxt.append(stint)
                continue
            if stint.start < hit.start:
                nxt.append(Stint(stint.start, hit.start - 1, stint.record))
            if date is not None:
                nxt.append(Stint(hit.start, hit.end, stint.record.with_date(date)))
            else:
                nxt.append(Stint(hit.start, hit.end, stint.record))
            if hit.end < stint.end:
                nxt.append(Stint(hit.end + 1, stint.end, stint.record))
        out = nxt
    return out


def _punch_intervals(stints: List[Stint], holes: Sequence[Interval]) -> List[Stint]:
    out = stints
    for hole in holes:
        nxt: List[Stint] = []
        for stint in out:
            hit = stint.interval.intersection(hole)
            if hit is None:
                nxt.append(stint)
                continue
            if stint.start < hit.start:
                nxt.append(Stint(stint.start, hit.start - 1, stint.record))
            if hit.end < stint.end:
                nxt.append(Stint(hit.end + 1, stint.end, stint.record))
        out = nxt
    return out


def _degrade_boundaries(
    stints: List[Stint], unavailable: Set[Day], window: SourceWindow
) -> List[Stint]:
    """Move stint edges off missing/corrupt days.

    A row can only be *observed* on days with a usable file, so a stint
    that starts (ends) on an unusable day is first seen (last seen) on
    the nearest usable day inside it.  Stints fully inside an unusable
    span vanish.
    """
    if not unavailable:
        return stints
    out: List[Stint] = []
    for stint in stints:
        start, end = stint.start, stint.end
        while start <= end and start in unavailable:
            start += 1
        while end >= start and end in unavailable:
            end -= 1
        if start <= end:
            out.append(Stint(start, end, stint.record))
    return out


def _extra_stints(
    rows: Sequence[Tuple[Interval, DelegationRecord]],
    window: SourceWindow,
    kind: str,
) -> List[Stint]:
    out: List[Stint] = []
    for span, record in rows:
        if kind == REGULAR and not record.is_delegated:
            continue
        clipped = span.clamp(window.first_day, window.last_day)
        if clipped is not None:
            out.append(Stint(clipped.start, clipped.end, record))
    return out
