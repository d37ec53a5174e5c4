"""Closed integer intervals and disjoint interval sets.

Administrative and operational lifetimes are both *closed* day
intervals: ``Interval(start, end)`` covers every day from ``start`` to
``end`` inclusive.  :class:`IntervalSet` maintains a sorted, disjoint,
non-adjacent-merged collection of them and provides the algebra every
joint analysis in the paper needs — union, intersection, gaps, coverage
ratios, containment tests.

The joint analyses (§5, §6) are essentially interval algebra at scale,
so these types are deliberately small, immutable where cheap, and well
tested (including property-based tests against a brute-force day-set
model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .dates import Day, to_iso

__all__ = ["Interval", "IntervalSet"]

#: Sets a field of a frozen slotted row, whose own ``__setattr__`` raises.
_set = object.__setattr__


@dataclass(frozen=True, order=True, init=False)
class Interval:
    """A closed day interval ``[start, end]`` (both inclusive).

    Slotted with a hand-written ``__init__``, like the other per-row
    types (DESIGN.md §5, decision 11); the generated equality, ordering
    and ``repr`` are kept.
    """

    __slots__ = ("start", "end")

    start: Day
    end: Day

    def __init__(self, start: Day, end: Day) -> None:
        if end < start:
            raise ValueError(
                f"interval end {to_iso(end)} precedes start {to_iso(start)}"
            )
        _set(self, "start", start)
        _set(self, "end", end)

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __reduce__(self):
        # the default slot state cannot be set back on a frozen object
        # (its __setattr__ raises), so an interval pickles as a call
        return (Interval, (self.start, self.end))

    def __setstate__(self, state: Dict[str, Day]) -> None:
        # pickles written before the class had slots carry a field dict
        for name, value in state.items():
            _set(self, name, value)

    @property
    def duration(self) -> int:
        """Inclusive length in days; a single-day interval has duration 1."""
        return self.end - self.start + 1

    def __contains__(self, d: Day) -> bool:
        return self.start <= d <= self.end

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely within this interval."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """True when the two closed intervals share at least one day."""
        return self.start <= other.end and other.start <= self.end

    def touches(self, other: "Interval") -> bool:
        """True when the intervals overlap or are adjacent (gap of 0 days)."""
        return self.start <= other.end + 1 and other.start <= self.end + 1

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """Return the shared span, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def gap_to(self, other: "Interval") -> int:
        """Days strictly between two disjoint intervals (0 when adjacent
        or overlapping).

        Used for the BGP inactivity-timeout segmentation (§4.2): two
        activity bursts belong to the same operational life when the gap
        between them does not exceed the timeout.
        """
        if self.overlaps(other):
            return 0
        if self.end < other.start:
            return other.start - self.end - 1
        return self.start - other.end - 1

    def shift(self, n: int) -> "Interval":
        """Return a copy moved ``n`` days (negative = earlier)."""
        return Interval(self.start + n, self.end + n)

    def clamp(self, lo: Day, hi: Day) -> Optional["Interval"]:
        """Clip to ``[lo, hi]``; ``None`` when nothing remains."""
        return self.intersection(Interval(lo, hi))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{to_iso(self.start)} .. {to_iso(self.end)}]"


class IntervalSet:
    """A set of days stored as sorted, disjoint, merged closed intervals.

    Adjacent intervals are always coalesced, so the representation is
    canonical: two ``IntervalSet``s covering the same days compare
    equal.  All read operations are O(log n) or O(n); construction from
    an unsorted iterable is O(n log n).
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._ivs: List[Interval] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> List[Interval]:
        ivs = sorted(intervals, key=lambda iv: iv.start)
        merged: List[Interval] = []
        for iv in ivs:
            if merged and merged[-1].touches(iv):
                last = merged[-1]
                if iv.end > last.end:
                    merged[-1] = Interval(last.start, iv.end)
            else:
                merged.append(iv)
        return merged

    @classmethod
    def from_days(cls, days: Iterable[Day]) -> "IntervalSet":
        """Build from an iterable of individual days (need not be sorted).

        This is how daily BGP activity observations are turned into raw
        activity spans before timeout segmentation.
        """
        return cls.from_sorted_days(sorted(set(days)))

    @classmethod
    def from_sorted_days(cls, days: Sequence[Day]) -> "IntervalSet":
        """Build from days already in ascending order.

        Skips the ``sorted(set(...))`` pass of :meth:`from_days` — the
        per-day pipelines iterate days in order, so re-sorting their
        output is pure overhead at scale.  Duplicates are tolerated
        (adjacent equal days collapse); a descending pair raises.
        """
        out = cls()
        if not days:
            return out
        ivs: List[Interval] = []
        run_start = prev = days[0]
        for d in days[1:]:
            if d == prev or d == prev + 1:
                prev = d
                continue
            if d < prev:
                raise ValueError("from_sorted_days requires ascending days")
            ivs.append(Interval(run_start, prev))
            run_start = prev = d
        ivs.append(Interval(run_start, prev))
        out._ivs = ivs
        return out

    @classmethod
    def union_all(cls, sets: Iterable["IntervalSet"]) -> "IntervalSet":
        """Union of many sets in one k-way normalize.

        Folding ``a.union(b).union(c)...`` re-sorts and re-merges the
        accumulated intervals at every step (quadratic in the number of
        sets); collecting everything and normalizing once is a single
        O(n log n) pass.
        """
        ivs: List[Interval] = []
        for s in sets:
            ivs.extend(s._ivs)
        return cls(ivs)

    @classmethod
    def _from_flat(cls, flat: Tuple[Day, ...]) -> "IntervalSet":
        """Rebuild from the flat ``(start, end, start, end, ...)`` form.

        Pickle counterpart of :meth:`__reduce__`; trusts the encoded
        intervals to be canonical (they came from a live set) and skips
        normalization.
        """
        out = cls.__new__(cls)
        it = iter(flat)
        out._ivs = [Interval(s, e) for s, e in zip(it, it)]
        return out

    def __reduce__(self):
        # Pickle as a flat int tuple instead of a list of Interval
        # objects: dataset bundles hold tens of thousands of interval
        # sets, and skipping the per-Interval object overhead makes
        # cached artifacts ~2x smaller and measurably faster to load.
        flat: List[Day] = []
        for iv in self._ivs:
            flat.append(iv.start)
            flat.append(iv.end)
        return (IntervalSet._from_flat, (tuple(flat),))

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._ivs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(str(iv) for iv in self._ivs)
        return f"IntervalSet({inner})"

    @property
    def intervals(self) -> Sequence[Interval]:
        """The sorted, disjoint intervals (read-only view)."""
        return tuple(self._ivs)

    @property
    def total_days(self) -> int:
        """Total number of distinct days covered."""
        return sum(iv.duration for iv in self._ivs)

    @property
    def span(self) -> Optional[Interval]:
        """Smallest single interval covering the whole set, or ``None``."""
        if not self._ivs:
            return None
        return Interval(self._ivs[0].start, self._ivs[-1].end)

    def __contains__(self, d: Day) -> bool:
        lo, hi = 0, len(self._ivs) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._ivs[mid]
            if d < iv.start:
                hi = mid - 1
            elif d > iv.end:
                lo = mid + 1
            else:
                return True
        return False

    def covers(self, iv: Interval) -> bool:
        """True when every day of ``iv`` is in the set.

        Because the representation is merged, a covered span must lie
        inside a *single* stored interval, so this is one binary search
        — O(log n) against the O(duration) of a day-by-day membership
        scan.
        """
        lo, hi = 0, len(self._ivs) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            candidate = self._ivs[mid]
            if iv.start < candidate.start:
                hi = mid - 1
            elif iv.start > candidate.end:
                lo = mid + 1
            else:
                return iv.end <= candidate.end
        return False

    # -- algebra -------------------------------------------------------

    @staticmethod
    def _merge_sorted(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
        """Linear merge of two already-canonical interval lists.

        Both inputs are sorted, disjoint and adjacency-merged (the
        class invariant), so a two-pointer walk with the same
        ``touches`` coalescing rule as :meth:`_normalize` produces the
        canonical union in O(n + m) — no re-sort.  The serve append
        path unions per-day activity sets repeatedly, which made the
        old concatenate-and-normalize union an O(n log n) hot spot.
        """
        out: List[Interval] = []
        i = j = 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i].start <= b[j].start):
                iv = a[i]
                i += 1
            else:
                iv = b[j]
                j += 1
            if out and out[-1].touches(iv):
                last = out[-1]
                if iv.end > last.end:
                    out[-1] = Interval(last.start, iv.end)
            else:
                out.append(iv)
        return out

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Days in either set (linear merge of the two sorted lists)."""
        result = IntervalSet()
        result._ivs = self._merge_sorted(self._ivs, other._ivs)
        return result

    def add(self, iv: Interval) -> "IntervalSet":
        """Return a new set with ``iv`` merged in."""
        result = IntervalSet()
        result._ivs = self._merge_sorted(self._ivs, [iv])
        return result

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Days in both sets (linear merge of the two sorted lists)."""
        out: List[Interval] = []
        i = j = 0
        a, b = self._ivs, other._ivs
        while i < len(a) and j < len(b):
            hit = a[i].intersection(b[j])
            if hit is not None:
                out.append(hit)
            if a[i].end < b[j].end:
                i += 1
            else:
                j += 1
        result = IntervalSet()
        result._ivs = out  # already sorted & disjoint
        return result

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Days in this set but not in ``other``."""
        out: List[Interval] = []
        j = 0
        b = other._ivs
        for iv in self._ivs:
            cur = iv.start
            while j < len(b) and b[j].end < cur:
                j += 1
            k = j
            while k < len(b) and b[k].start <= iv.end:
                blocker = b[k]
                if blocker.start > cur:
                    out.append(Interval(cur, blocker.start - 1))
                cur = max(cur, blocker.end + 1)
                if cur > iv.end:
                    break
                k += 1
            if cur <= iv.end:
                out.append(Interval(cur, iv.end))
        result = IntervalSet()
        result._ivs = result._normalize(out)
        return result

    def gaps(self) -> "IntervalSet":
        """The spans strictly between consecutive intervals.

        The distribution of per-ASN activity gaps (Fig. 3, red line) is
        computed from these.
        """
        out: List[Interval] = []
        for prev, nxt in zip(self._ivs, self._ivs[1:]):
            out.append(Interval(prev.end + 1, nxt.start - 1))
        result = IntervalSet()
        result._ivs = out
        return result

    def overlap_days(self, iv: Interval) -> int:
        """Number of covered days falling inside ``iv``."""
        total = 0
        for mine in self._ivs:
            hit = mine.intersection(iv)
            if hit is not None:
                total += hit.duration
            elif mine.start > iv.end:
                break
        return total

    def coverage_of(self, iv: Interval) -> float:
        """Fraction of ``iv`` covered by this set (0.0 .. 1.0).

        This is the paper's *utilization* of an administrative lifetime
        (Fig. 7) when the set holds the ASN's operational lifetimes.
        """
        return self.overlap_days(iv) / iv.duration

    def clamp(self, lo: Day, hi: Day) -> "IntervalSet":
        """Clip every interval to ``[lo, hi]``."""
        window = Interval(lo, hi)
        out: List[Interval] = []
        for iv in self._ivs:
            hit = iv.intersection(window)
            if hit is not None:
                out.append(hit)
        result = IntervalSet()
        result._ivs = out
        return result

    def merge_gaps(self, max_gap: int) -> "IntervalSet":
        """Coalesce intervals separated by gaps of at most ``max_gap`` days.

        This implements the §4.2 inactivity-timeout rule: with the
        paper's 30-day timeout, activity bursts less than or equal to 30
        days apart form a single operational lifetime.
        """
        if max_gap < 0:
            raise ValueError("max_gap must be >= 0")
        if not self._ivs:
            return IntervalSet()
        out: List[Interval] = [self._ivs[0]]
        for iv in self._ivs[1:]:
            last = out[-1]
            if iv.start - last.end - 1 <= max_gap:
                out[-1] = Interval(last.start, max(last.end, iv.end))
            else:
                out.append(iv)
        result = IntervalSet()
        result._ivs = out
        return result

    def days(self) -> Iterator[Day]:
        """Yield every covered day in ascending order."""
        for iv in self._ivs:
            yield from range(iv.start, iv.end + 1)

    def gap_lengths(self) -> List[int]:
        """Lengths (in days) of the gaps between consecutive intervals."""
        return [nxt.start - prev.end - 1 for prev, nxt in zip(self._ivs, self._ivs[1:])]
