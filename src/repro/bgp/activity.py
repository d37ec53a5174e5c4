"""Columnar BGP activity engine: interned paths, peer bitsets, day diffs.

The object-stream pipeline (§3.2 → §4.2), kept as the test oracle,
materializes one :class:`~repro.bgp.messages.BgpElement` per
(collector, peer, announcement) per day and rebuilds
``Dict[ASN, Set[ASN]]`` visibility maps from scratch every day, even
though consecutive days share almost all announcements.  This engine
exploits that redundancy the way long-lived BGP studies diff snapshots
instead of re-reading them:

* **Path interning** — every propagated AS path is interned once in a
  :class:`~repro.bgp.stream.PathTable`; the distinct ASNs it makes
  visible and its sanitizer verdict (loop) are computed at intern time
  and read back by dense id.
* **Contribution interning** — an announcement's entire sanitized
  element fan-out (which (path id, peer) pairs survive §3.2, how many
  elements each drop reason removes) is a pure function of the
  announcement under a static topology, so it is computed once and
  replayed as flat integer arrays.
* **Incremental day diffing** — each day's announcement multiset is
  diffed against the previous day's; only the (path, peer) pairs that
  appear or disappear touch the counters, and only ASNs whose
  supporting paths changed have their visibility class re-derived.
* **Peer bitset counters** — per-ASN visibility is an integer row of
  live-pair counts per peer slot plus a running visible-peer count; a
  day is classified (observed / single-peer / silent) by comparing
  that count to the threshold, with no set churn.

Output is **byte-identical** to the oracle's: for every day in the
window, the engine's per-ASN classes equal what
``peer_visibility(sanitize(stream.elements_for_day(day)))`` derives
(announce updates duplicate RIB pairs and withdrawals carry no path,
so only the RIB pass shapes visibility).  The equivalence is pinned by
property tests and by the scaling benchmark's determinism asserts.

A window is replayed in one pass (:meth:`ActivityEngine.replay`): one
engine applies the announcement multiset live on the first day, then
every later day's diff, so the contribution index and the counters are
built once per window.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..asn.numbers import ASN
from ..timeline.dates import Day
from ..timeline.intervals import Interval, IntervalSet
from .collector import Collector, all_peer_asns
from .sanitize import REASON_LOOP, REASON_PREFIX_LENGTH
from .stream import Announcement, PathOracle, PathTable, decorate_path
from .topology import AsTopology
from .visibility import DEFAULT_MIN_PEERS

__all__ = [
    "Contribution",
    "ContributionIndex",
    "ActivityEngine",
    "ActivityReport",
    "AnnouncementSchedule",
    "schedule_from_day_source",
    "schedule_from_world",
    "build_activity_tables",
    "build_world_activity_tables",
]

#: Multiset as (announcement, count) pairs — the form schedules use.
_Items = List[Tuple[Announcement, int]]

#: Engine run class → ledger bucket name (class 2 = observed by ≥
#: ``min_corroboration`` peers, class 1 = single-peer).
_CLASS_NAMES = {2: "observed", 1: "single_peer"}


@dataclass(frozen=True)
class Contribution:
    """One announcement's sanitized element fan-out, computed once.

    ``pairs`` holds the surviving (path id, peer index) pairs packed as
    ``pid * n_peers + peer_index`` — distinct and sorted, since
    visibility is idempotent in duplicate elements.  ``kept`` and
    ``dropped`` count the elements one RIB pass of the object stream
    would have materialized, so sanitize accounting stays exact.
    """

    pairs: Tuple[int, ...]
    kept: int
    dropped: Tuple[Tuple[str, int], ...]

    @property
    def elements(self) -> int:
        """Elements of one RIB pass (kept + dropped)."""
        return self.kept + sum(n for _, n in self.dropped)


class ContributionIndex:
    """announcement → :class:`Contribution`, interned once each.

    Replicates ``SyntheticBgpStream._emit`` + :func:`sanitize` exactly:
    per collector peer, the propagated path is looked up (or the
    spurious single-peer path synthesized), decorated, and checked
    against the §3.2 prefix-length and loop rules.  All of it happens
    once per unique announcement; afterwards a day's worth of elements
    is a handful of integer reads.
    """

    def __init__(
        self,
        topology: AsTopology,
        collectors: Sequence[Collector],
    ) -> None:
        self._collectors = list(collectors)
        self.oracle = PathOracle(topology, all_peer_asns(collectors))
        self.peers: List[ASN] = sorted(all_peer_asns(collectors))
        self._peer_index: Dict[ASN, int] = {p: i for i, p in enumerate(self.peers)}
        self._cache: Dict[Announcement, Contribution] = {}
        #: Wall time spent computing new contributions (the columnar
        #: equivalent of the object path's stream + sanitize work).
        self.compute_seconds = 0.0

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    def __len__(self) -> int:
        """Unique announcements interned so far."""
        return len(self._cache)

    @property
    def table(self) -> PathTable:
        return self.oracle.table

    def contribution(self, ann: Announcement) -> Contribution:
        cached = self._cache.get(ann)
        if cached is None:
            start = perf_counter()
            cached = self._compute(ann)
            self.compute_seconds += perf_counter() - start
            self._cache[ann] = cached
        return cached

    def _compute(self, ann: Announcement) -> Contribution:
        table = self.oracle.table
        raw_ids = self.oracle.path_ids_for(ann.announcer)
        routable = ann.prefix.is_globally_routable_length()
        plain = (
            ann.forged_origin is None
            and not ann.prepend
            and not ann.corrupt_loop
        )
        n_peers = len(self.peers)
        peer_index = self._peer_index
        pairs: Set[int] = set()
        kept = 0
        dropped_prefix = 0
        dropped_loop = 0
        for collector in self._collectors:
            for peer in collector.peer_asns:
                if ann.only_peer is not None and peer != ann.only_peer:
                    continue
                pid = raw_ids.get(peer)
                if pid is None:
                    if ann.only_peer is not None and peer == ann.only_peer:
                        # spurious data: the peer leaks a path nobody
                        # else can corroborate
                        pid = table.intern((peer, ann.announcer))
                    else:
                        continue
                if not plain:
                    pid = table.intern(decorate_path(table.paths[pid], ann))
                if not routable:
                    dropped_prefix += 1
                    continue
                if table.has_loop[pid]:
                    dropped_loop += 1
                    continue
                kept += 1
                pairs.add(pid * n_peers + peer_index[peer])
        dropped: List[Tuple[str, int]] = []
        if dropped_loop:
            dropped.append((REASON_LOOP, dropped_loop))
        if dropped_prefix:
            dropped.append((REASON_PREFIX_LENGTH, dropped_prefix))
        return Contribution(
            pairs=tuple(sorted(pairs)), kept=kept, dropped=tuple(dropped)
        )


class ActivityEngine:
    """Incremental per-day visibility classifier over announcement diffs.

    Feed it ascending-day multiset diffs via :meth:`apply`; it maintains
    live (path, peer) pair counts, per-ASN peer-bitset counter rows, and
    open activity runs, and closes runs only when an ASN's visibility
    class actually changes.  :meth:`finish` returns the per-ASN runs
    ``[(class, start, end), ...]`` where class 2 = observed (≥
    ``min_corroboration`` peers) and class 1 = single-peer;
    :meth:`replay` drives a whole :class:`AnnouncementSchedule` through
    both.
    """

    def __init__(
        self,
        topology: AsTopology,
        collectors: Sequence[Collector],
        *,
        min_corroboration: int = DEFAULT_MIN_PEERS,
    ) -> None:
        if min_corroboration < 1:
            raise ValueError("min_corroboration must be at least 1")
        self._index = ContributionIndex(topology, collectors)
        self._min_corr = min_corroboration
        self._n_peers = self._index.n_peers
        self._zero_row = array("i", bytes(4 * (self._n_peers + 1)))
        # live state
        self._live: Counter = Counter()
        self._pair_count: Dict[int, int] = {}
        self._rows: Dict[ASN, array] = {}
        # run bookkeeping
        self._run_class: Dict[ASN, int] = {}
        self._run_start: Dict[ASN, Day] = {}
        self._runs: Dict[ASN, List[Tuple[int, Day, Day]]] = {}
        self._last_day: Optional[Day] = None
        # sanitize accounting: current per-day rates and day-weighted totals
        self._rate_kept = 0
        self._rate_dropped: Counter = Counter()
        self.kept = 0
        self.dropped: Counter = Counter()

    @property
    def index(self) -> ContributionIndex:
        return self._index

    @property
    def elements(self) -> int:
        """Day-weighted element count the object stream would have built."""
        return self.kept + sum(self.dropped.values())

    # -- per-day driving ---------------------------------------------------

    def apply(
        self,
        day: Day,
        added: Iterable[Announcement] = (),
        removed: Iterable[Announcement] = (),
    ) -> None:
        """Apply one day's announcement diff (multisets; ascending days)."""
        if self._last_day is not None and day <= self._last_day:
            raise ValueError("apply() days must be strictly ascending")
        self._advance(day)
        added = added if isinstance(added, Counter) else Counter(added)
        removed = removed if isinstance(removed, Counter) else Counter(removed)
        change = sum(added.values()) + sum(removed.values())
        if not change:
            return
        for ann, count in removed.items():
            left = self._live[ann] - count
            if left < 0:
                raise ValueError(f"removing more {ann!r} than live")
            if left:
                self._live[ann] = left
            else:
                del self._live[ann]
        self._live.update(added)
        touched: Set[ASN] = set()
        for ann, count in removed.items():
            self._apply_contribution(ann, -count, touched)
        for ann, count in added.items():
            self._apply_contribution(ann, count, touched)
        self._commit(day, touched)

    def finish(self, end: Day) -> Dict[ASN, List[Tuple[int, Day, Day]]]:
        """Close all open runs at ``end`` and return the per-ASN runs."""
        self._advance(end + 1)
        for asn, cls in self._run_class.items():
            self._runs.setdefault(asn, []).append((cls, self._run_start[asn], end))
        self._run_class.clear()
        self._run_start.clear()
        return self._runs

    def replay(
        self, schedule: "AnnouncementSchedule"
    ) -> Dict[ASN, List[Tuple[int, Day, Day]]]:
        """Apply a schedule's base and every change, then :meth:`finish`
        at its end; returns the per-ASN runs."""
        self.apply(schedule.start, Counter(dict(schedule.base)))
        for day, added, removed in schedule.changes:
            self.apply(day, Counter(dict(added)), Counter(dict(removed)))
        return self.finish(schedule.end)

    # -- internals ---------------------------------------------------------

    def _advance(self, day: Day) -> None:
        """Accumulate day-weighted sanitize totals up to (excluding) ``day``."""
        if self._last_day is not None:
            span = day - self._last_day
            self.kept += self._rate_kept * span
            for reason, n in self._rate_dropped.items():
                if n:
                    self.dropped[reason] += n * span
        self._last_day = day

    def _apply_contribution(
        self, ann: Announcement, delta: int, touched: Set[ASN]
    ) -> None:
        contrib = self._index.contribution(ann)
        self._rate_kept += delta * contrib.kept
        for reason, n in contrib.dropped:
            self._rate_dropped[reason] += delta * n
        n_peers = self._n_peers
        pair_count = self._pair_count
        distinct = self._index.table.distinct
        rows = self._rows
        zero = self._zero_row
        for key in contrib.pairs:
            old = pair_count.get(key, 0)
            new = old + delta
            if new:
                pair_count[key] = new
            else:
                del pair_count[key]
            if (old == 0) == (new == 0):
                continue  # pair liveness unchanged
            live_delta = 1 if old == 0 else -1
            pid, peer = divmod(key, n_peers)
            for asn in distinct[pid]:
                row = rows.get(asn)
                if row is None:
                    row = array("i", zero)
                    rows[asn] = row
                count = row[peer] + live_delta
                row[peer] = count
                if count == (1 if live_delta > 0 else 0):
                    row[n_peers] += live_delta
                    touched.add(asn)

    def _commit(self, day: Day, touched: Set[ASN]) -> None:
        """Open/close activity runs for ASNs whose class changed today."""
        n_peers = self._n_peers
        min_corr = self._min_corr
        for asn in touched:
            row = self._rows.get(asn)
            visible = row[n_peers] if row is not None else 0
            new_class = 2 if visible >= min_corr else (1 if visible == 1 else 0)
            old_class = self._run_class.get(asn, 0)
            if new_class == old_class:
                continue
            if old_class:
                self._runs.setdefault(asn, []).append(
                    (old_class, self._run_start[asn], day - 1)
                )
            if new_class:
                self._run_class[asn] = new_class
                self._run_start[asn] = day
            else:
                del self._run_class[asn]
                del self._run_start[asn]


# -- schedules --------------------------------------------------------------


@dataclass
class AnnouncementSchedule:
    """Event-compressed announcement timeline for a day window.

    ``base`` is the announcement multiset live on ``start``;
    ``changes`` lists, for the (strictly ascending) days in
    ``(start, end]`` where the multiset changes, the added and removed
    announcement multisets.  This is the engine's native input: days
    absent from ``changes`` cost nothing at all.
    """

    start: Day
    end: Day
    base: _Items = field(default_factory=list)
    changes: List[Tuple[Day, _Items, _Items]] = field(default_factory=list)

    @property
    def changed_days(self) -> int:
        return len(self.changes)


def schedule_from_day_source(
    day_source: Callable[[Day], Sequence[Announcement]],
    start: Day,
    end: Day,
) -> AnnouncementSchedule:
    """Diff per-day announcement lists into a schedule.

    The generic adapter for arbitrary scenarios: each day's list is
    materialized once and diffed (as a multiset) against the previous
    day's.  Identical consecutive lists short-circuit before counting.
    """
    if end < start:
        raise ValueError("end day precedes start day")
    schedule = AnnouncementSchedule(start=start, end=end)
    prev_list: Optional[List[Announcement]] = None
    prev: Counter = Counter()
    for day in range(start, end + 1):
        cur_list = list(day_source(day))
        if prev_list is not None and cur_list == prev_list:
            continue
        cur = Counter(cur_list)
        if prev_list is None:
            schedule.base = list(cur.items())
        else:
            added = cur - prev
            removed = prev - cur
            if added or removed:
                schedule.changes.append(
                    (day, list(added.items()), list(removed.items()))
                )
        prev_list, prev = cur_list, cur
    return schedule


def schedule_from_world(world, start: Day, end: Day) -> AnnouncementSchedule:
    """Build the schedule straight from a simulated world's intervals.

    Equivalent to diffing ``world.announcements_for_day`` over every
    day (the equivalence tests pin this), but built from the interval
    endpoints directly: legitimate activity, anomaly events, and
    spurious single-peer observations each contribute constant
    announcements over known day spans, so no per-day list is ever
    materialized.
    """
    if end < start:
        raise ValueError("end day precedes start day")
    base: Counter = Counter()
    adds: Dict[Day, List[Announcement]] = {}
    removes: Dict[Day, List[Announcement]] = {}

    def span(ann: Announcement, first: Day, last: Day) -> None:
        if first == start:
            base[ann] += 1
        else:
            adds.setdefault(first, []).append(ann)
        if last < end:
            removes.setdefault(last + 1, []).append(ann)

    for asn, days in world.legit_activity.items():
        prefix = world.prefixes.own_prefix(asn)
        for iv in days.clamp(start, end):
            span(Announcement(asn, prefix), iv.start, iv.end)
    for event in world.events:
        window = event.interval.clamp(start, end)
        if window is None:
            continue
        for ann in event.announcements(window.start):
            span(ann, window.start, window.end)
    for asn, activity in world.activities.items():
        spurious = activity.single_peer.clamp(start, end)
        if not spurious:
            continue
        peer = world.collectors[0].peer_asns[0]
        ann = Announcement(asn, world.prefixes.own_prefix(asn), only_peer=peer)
        for iv in spurious:
            span(ann, iv.start, iv.end)

    schedule = AnnouncementSchedule(start=start, end=end, base=list(base.items()))
    for day in sorted(set(adds) | set(removes)):
        schedule.changes.append(
            (
                day,
                list(Counter(adds.get(day, ())).items()),
                list(Counter(removes.get(day, ())).items()),
            )
        )
    return schedule


# -- window replay ----------------------------------------------------------


@dataclass
class ActivityReport:
    """What one activity-table build processed (for stage spans and docs)."""

    days: int
    changed_days: int
    elements: int
    kept: int
    dropped: Dict[str, int]
    #: Unique announcement contributions interned over the window (each
    #: is one sanitized fan-out computed exactly once).
    contributions: int = 0
    stream_seconds: float = 0.0
    sanitize_seconds: float = 0.0
    visibility_seconds: float = 0.0
    #: Valley-free routing sweeps run (one per distinct routing root: a
    #: non-stub announcer, or a single-homed stub announcer's provider)
    #: and their wall time, a part of ``sanitize_seconds``.
    routing_sweeps: int = 0
    routing_seconds: float = 0.0
    #: ASN-day totals per visibility class of the engine's activity runs
    #: (ledger input side).
    class_days_in: Dict[str, int] = field(default_factory=dict)
    #: The same totals over the built interval tables; the conversion
    #: must conserve them exactly.
    class_days: Dict[str, int] = field(default_factory=dict)


def _build_tables(
    topology: AsTopology,
    collectors: Sequence[Collector],
    schedule: AnnouncementSchedule,
    stream_seconds: float,
    *,
    min_corroboration: int,
):
    """Replay a whole schedule through one engine into activity tables."""
    # Deferred import: repro.lifetimes.bgp imports this module at load
    # time; the reverse edge must stay call-time only.
    from ..lifetimes.bgp import OperationalActivity

    run_start = perf_counter()
    engine = ActivityEngine(
        topology, collectors, min_corroboration=min_corroboration
    )
    runs = engine.replay(schedule)

    class_days_in: Counter = Counter()
    class_days: Counter = Counter()
    tables = {}
    for asn in sorted(runs):
        asn_runs = runs[asn]
        observed = [Interval(s, e) for cls, s, e in asn_runs if cls == 2]
        single = [Interval(s, e) for cls, s, e in asn_runs if cls == 1]
        table = OperationalActivity(
            asn=asn,
            observed=IntervalSet(observed),
            single_peer=IntervalSet(single),
        )
        tables[asn] = table
        for cls, run_start_day, run_end_day in asn_runs:
            class_days_in[_CLASS_NAMES[cls]] += run_end_day - run_start_day + 1
        class_days["observed"] += table.observed.total_days
        class_days["single_peer"] += table.single_peer.total_days
    run_seconds = perf_counter() - run_start

    sanitize_seconds = engine.index.compute_seconds
    report = ActivityReport(
        days=schedule.end - schedule.start + 1,
        changed_days=schedule.changed_days,
        elements=engine.elements,
        kept=engine.kept,
        dropped=engine.dropped,
        contributions=len(engine.index),
        stream_seconds=stream_seconds,
        sanitize_seconds=sanitize_seconds,
        visibility_seconds=max(0.0, run_seconds - sanitize_seconds),
        routing_sweeps=engine.index.oracle.sweeps,
        routing_seconds=engine.index.oracle.sweep_seconds,
        class_days_in=class_days_in,
        class_days=+class_days,
    )
    return tables, report


def build_activity_tables(
    topology: AsTopology,
    collectors: Sequence[Collector],
    day_source: Callable[[Day], Sequence[Announcement]],
    start: Day,
    end: Day,
    *,
    min_corroboration: int = DEFAULT_MIN_PEERS,
):
    """Columnar §3.2 activity tables from a per-day announcement source.

    Returns ``(tables, report)`` where ``tables`` maps every ASN ever
    visible in a sanitized path (in ASN order) to its
    :class:`~repro.lifetimes.bgp.OperationalActivity`, byte-identical
    to what the object stream pipeline derives.
    """
    stream_start = perf_counter()
    schedule = schedule_from_day_source(day_source, start, end)
    return _build_tables(
        topology,
        collectors,
        schedule,
        perf_counter() - stream_start,
        min_corroboration=min_corroboration,
    )


def build_world_activity_tables(
    world,
    *,
    start: Optional[Day] = None,
    end: Optional[Day] = None,
    min_corroboration: int = DEFAULT_MIN_PEERS,
):
    """Columnar activity tables for a simulated world's window.

    Uses the event-compressed schedule (interval endpoints, no per-day
    list materialization); otherwise identical to
    :func:`build_activity_tables` over ``world.announcements_for_day``.
    """
    start = world.config.start_day if start is None else start
    end = world.config.end_day if end is None else end
    stream_start = perf_counter()
    schedule = schedule_from_world(world, start, end)
    return _build_tables(
        world.topology,
        world.collectors,
        schedule,
        perf_counter() - stream_start,
        min_corroboration=min_corroboration,
    )
