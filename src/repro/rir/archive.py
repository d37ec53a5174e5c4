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

#: Sets a field of a frozen slotted row, whose own ``__setattr__`` raises.
_set = object.__setattr__


class FileState:
    """Tri-state availability of one day's file."""

    PRESENT = "present"
    MISSING = "missing"
    CORRUPT = "corrupt"


@dataclass(frozen=True, init=False)
class Stint:
    """A maximal span of days during which one source showed the same
    row for one ASN.  ``record`` carries the row content.

    Slotted with a hand-written ``__init__``, like the record it holds
    (DESIGN.md §5, decision 11).
    """

    __slots__ = ("start", "end", "record")

    start: Day
    end: Day
    record: DelegationRecord

    def __init__(self, start: Day, end: Day, record: DelegationRecord) -> None:
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "record", record)

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.record))

    def __reduce__(self):
        # the default slot state cannot be set back on a frozen object
        # (its __setattr__ raises), so a stint pickles as a call
        return (Stint, (self.start, self.end, self.record))

    def __setstate__(self, state: Dict[str, object]) -> None:
        # pickles written before the class had slots carry a field dict
        for name, value in state.items():
            _set(self, name, value)

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
        #: Each source's stints in file-row order, for :meth:`snapshot`.
        self._snapshot_rows: Dict[SourceKey, List[Stint]] = {}

    def __getstate__(self) -> dict:
        """Pickle without the memoized timelines and snapshot rows.

        Both caches are pure derived state: a loaded archive recomputes
        exactly the timelines it needs, and stripping them keeps on-disk
        artifact-cache entries small.
        """
        state = self.__dict__.copy()
        state["_timeline_cache"] = {}
        state["_snapshot_rows"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        """Load; an archive pickled before ``_snapshot_rows`` existed
        gets it empty."""
        state.setdefault("_snapshot_rows", {})
        self.__dict__.update(state)

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
        unavailable = {
            key: self._overlay.unavailable_days(key) for key in (regular, extended)
        }
        for day in range(first, last + 1):
            for key in (regular, extended):
                if key not in self._windows or not self._windows[key].covers(day):
                    continue
                if day not in unavailable[key]:
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

        Memoized: every call returns the same dict.  A caller that reads
        each source once should take :meth:`build_timeline` instead.
        """
        out = self._timeline_cache.get(source)
        if out is None:
            out = self._timeline_cache[source] = self.build_timeline(source)
        return out

    def build_timeline(self, source: SourceKey) -> Dict[ASN, List[Stint]]:
        """:meth:`timeline`, built afresh and kept by no one but the caller."""
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

        regular = kind == REGULAR
        first_day, last_day = window.first_day, window.last_day
        out: Dict[ASN, List[Stint]] = {}
        for asn, changes in registry.history.items():
            if regular and not _has_delegated_row(changes):
                # most histories are pool rows only, which the regular
                # feed never lists
                stints = []
            elif not regular and len(changes) == 1 and not stale:
                # a single change point shows its row to the window's end
                day, record = changes[0]
                start = max(day, first_day)
                if record is not None and start <= last_day:
                    stints = [Stint(start, last_day, record)]
                else:
                    stints = []
            else:
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
        return out

    def _base_stints(
        self,
        changes: Sequence[Tuple[Day, Optional[DelegationRecord]]],
        kind: str,
        window: SourceWindow,
        stale: Set[Day],
    ) -> List[Stint]:
        """Turn raw change points into clamped stints for one kind."""
        first_day, last_day = window.first_day, window.last_day
        if stale:
            days = [_effective_day(day, stale, last_day) for day, _ in changes]
        else:
            days = [day for day, _ in changes]
        days.append(last_day + 1)
        regular = kind == REGULAR
        stints: List[Stint] = []
        for idx, (_, record) in enumerate(changes):
            if record is None:
                continue
            if regular:
                if not record.is_delegated:
                    continue
                if record.opaque_id is not None:
                    record = DelegationRecord(
                        registry=record.registry,
                        cc=record.cc,
                        asn=record.asn,
                        reg_date=record.reg_date,
                        status=record.status,
                        opaque_id=None,
                    )
            start = max(days[idx], first_day)
            end = min(days[idx + 1] - 1, last_day)
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
        rows = self._snapshot_rows.get(source)
        if rows is None:
            # sorted once: a stable sort commutes with the day filter
            rows = self._snapshot_rows[source] = sorted(
                (stint for stints in self.timeline(source).values()
                 for stint in stints),
                key=lambda s: (s.record.asn, s.record.status.value),
            )
        records = [
            stint.record for stint in rows
            if stint.start <= effective <= stint.end
        ]
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


def _has_delegated_row(
    changes: Sequence[Tuple[Day, Optional[DelegationRecord]]],
) -> bool:
    for _, record in changes:
        if record is not None and record.is_delegated:
            return True
    return False


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
            lo = max(stint.start, span.start)
            hi = min(stint.end, span.end)
            if lo > hi or not stint.record.is_delegated:
                nxt.append(stint)
                continue
            if stint.start < lo:
                nxt.append(Stint(stint.start, lo - 1, stint.record))
            if date is not None:
                nxt.append(Stint(lo, hi, stint.record.with_date(date)))
            else:
                nxt.append(Stint(lo, hi, stint.record))
            if hi < stint.end:
                nxt.append(Stint(hi + 1, stint.end, stint.record))
        out = nxt
    return out


def _punch_intervals(stints: List[Stint], holes: Sequence[Interval]) -> List[Stint]:
    out = stints
    for hole in holes:
        nxt: List[Stint] = []
        for stint in out:
            if hole.end < stint.start or stint.end < hole.start:
                nxt.append(stint)
                continue
            if stint.start < hole.start:
                nxt.append(Stint(stint.start, hole.start - 1, stint.record))
            if hole.end < stint.end:
                nxt.append(Stint(hole.end + 1, stint.end, stint.record))
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
        if start == stint.start and end == stint.end:
            out.append(stint)
        elif start <= end:
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
