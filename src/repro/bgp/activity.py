"""Columnar BGP activity engine: per-(ASN, peer) counters, day diffs.

The object-stream pipeline (§3.2 → §4.2), kept as the test oracle,
materializes one :class:`~repro.bgp.messages.BgpElement` per
(collector, peer, announcement) per day and rebuilds
``Dict[ASN, Set[ASN]]`` visibility maps from scratch every day, even
though consecutive days share almost all announcements.  The §3.2 rule
asks one question per (ASN, day): how many distinct collector peers see
a sanitized path through this ASN?  This engine answers it directly and
exploits the day-over-day redundancy the way long-lived BGP studies
diff snapshots instead of re-reading them:

* **Contribution interning** — an announcement's entire sanitized
  element fan-out is a pure function of the announcement under a
  static topology, so it is computed once into a
  :class:`Contribution`: the distinct (ASN, peer) codes of every ASN
  on every surviving path, plus how many elements one RIB pass keeps
  and how many each drop reason removes.
* **Stubs derive from their provider** — a plain announcement of a
  single-homed stub S with provider P reaches every vantage through P,
  one hop longer, so its codes are P's codes plus (S, v) for every
  vantage v (P's entries at peer S give way to (S, S) when S is a
  vantage).  No path is built for it.
* **Incremental day diffing** — each day's announcement multiset is
  diffed against the previous day's, and only the contributions that
  appear or disappear touch the counters.  The first day starts from
  empty counters, so its multiset is loaded in bulk instead
  (:meth:`ActivityEngine.load`): one histogram of every live code.
* **Counters per (ASN, peer)** — one flat ``array('q')`` holds, per
  ASN slot and peer, how many live contributions see that ASN at that
  peer, next to a per-slot count of peers whose counter is non-zero.
  A counter is non-zero iff some live (path, peer) pair contains the
  ASN at that peer, so only a 0↔non-zero transition moves the visible
  count, and only ASNs with such a transition are reclassified
  (observed / single-peer / silent) at the end of the day.

Output is **byte-identical** to the oracle's: for every day in the
window, the engine's per-ASN classes equal what
``peer_visibility(sanitize(stream.elements_for_day(day)))`` derives
(announce updates duplicate RIB pairs and withdrawals carry no path,
so only the RIB pass shapes visibility).  The equivalence is pinned by
property tests and by the scaling benchmark's determinism asserts.

A window is replayed in one pass (:meth:`ActivityEngine.replay`): one
engine loads the announcement multiset live on the first day, then
applies every later day's diff, so the contribution index and the
counters are built once per window.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..asn.numbers import ASN
from ..timeline.dates import Day
from ..timeline.intervals import Interval, IntervalSet
from .collector import Collector, all_peer_asns
from .messages import path_has_loop
from .sanitize import REASON_LOOP, REASON_PREFIX_LENGTH
from .stream import Announcement, PathOracle, decorate_path
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

#: An announcer's plain routed fan-out: its codes, the elements one
#: RIB pass keeps, and the indices of the peers that hold a path.
_Fanout = Tuple[array, int, Tuple[int, ...]]


class _Slots(dict):
    """ASN → counter slot, the next free slot on first lookup."""

    def __missing__(self, asn: ASN) -> int:
        slot = self[asn] = len(self)
        return slot


@dataclass(frozen=True, eq=False)
class Contribution:
    """One announcement's sanitized element fan-out, computed once.

    ``codes`` is one packed ``array('q')`` of ``slot * n_peers +
    peer_index`` for every ASN on every surviving path and the peer
    that path reaches, each once, since visibility is idempotent in
    duplicate elements.  ``kept`` and ``dropped`` count the elements
    one RIB pass of the object stream would have materialized, so
    sanitize accounting stays exact.

    A contribution compares and hashes by identity (``eq=False``): an
    array is unhashable, and the index interns one per announcement.
    """

    codes: array
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

    A *plain* announcement (no forged origin, prepend, loop corruption
    or single peer) is its announcer's routed paths unchanged.  Those
    paths repeat no ASN (valley-free routes are simple), so none is a
    loop, and every collector listing a peer with a path keeps one
    element.  Its codes are shared by every plain announcement of the
    announcer, and a single-homed stub's are derived from its
    provider's without building a path.

    ``slots`` maps each ASN to its counter slot, in first-seen order.
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
        #: collectors listing each peer: the elements a path there makes
        self._listings = Counter(
            peer for collector in self._collectors for peer in collector.peer_asns
        )
        self.slots: Dict[ASN, int] = _Slots()
        self._fanouts: Dict[ASN, _Fanout] = {}
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

    def contribution(self, ann: Announcement) -> Contribution:
        cached = self._cache.get(ann)
        if cached is None:
            start = perf_counter()
            cached = self._compute(ann)
            self.compute_seconds += perf_counter() - start
            self._cache[ann] = cached
        return cached

    def _compute(self, ann: Announcement) -> Contribution:
        if (
            ann.forged_origin is not None
            or ann.prepend
            or ann.corrupt_loop
            or ann.only_peer is not None
        ):
            return self._compute_paths(ann)
        codes, kept, _peers = self._fanout(ann.announcer)
        if ann.prefix.is_globally_routable_length():
            return Contribution(codes=codes, kept=kept, dropped=())
        dropped = ((REASON_PREFIX_LENGTH, kept),) if kept else ()
        return Contribution(codes=array("q"), kept=0, dropped=dropped)

    def _fanout(self, announcer: ASN) -> _Fanout:
        """The announcer's plain routed fan-out (cached)."""
        fanout = self._fanouts.get(announcer)
        if fanout is None:
            provider = self.oracle.single_provider(announcer)
            if provider is None:
                fanout = self._expand(self.oracle.paths_for(announcer))
            else:
                fanout = self._derive_stub(announcer, self._fanout(provider))
            self._fanouts[announcer] = fanout
        return fanout

    def _expand(self, paths: Dict[ASN, Tuple[ASN, ...]]) -> _Fanout:
        """Codes of routed paths: no path repeats an ASN and no two
        share a peer, so every (ASN, peer) code comes up once."""
        n_peers = len(self.peers)
        peer_index = self._peer_index
        slot_of = self.slots.__getitem__
        codes = array("q")
        indices: List[int] = []
        kept = 0
        for peer, path in paths.items():
            i = peer_index[peer]
            indices.append(i)
            kept += self._listings[peer]
            codes.extend([slot * n_peers + i for slot in map(slot_of, path)])
        return codes, kept, tuple(indices)

    def _derive_stub(self, stub: ASN, provider: _Fanout) -> _Fanout:
        """A single-homed stub's fan-out from its provider's.

        The stub's routes are the provider's with the stub appended,
        except that the stub, when a vantage, sees itself over the
        one-hop path instead of through its provider; either way the
        same peers hold a path.
        """
        codes, kept, indices = provider
        n_peers = len(self.peers)
        own = self._peer_index.get(stub)
        if own is not None:
            codes = array("q", [code for code in codes if code % n_peers != own])
        base = self.slots[stub] * n_peers
        return codes + array("q", [base + i for i in indices]), kept, indices

    def _compute_paths(self, ann: Announcement) -> Contribution:
        """Element by element, for decorated and single-peer
        announcements (the object stream's own steps)."""
        paths = self.oracle.paths_for(ann.announcer)
        routable = ann.prefix.is_globally_routable_length()
        n_peers = len(self.peers)
        slots = self.slots
        codes: Set[int] = set()
        kept = 0
        dropped_prefix = 0
        dropped_loop = 0
        for collector in self._collectors:
            for peer in collector.peer_asns:
                if ann.only_peer is not None and peer != ann.only_peer:
                    continue
                path = paths.get(peer)
                if path is None:
                    if ann.only_peer is None:
                        continue
                    # spurious data: the peer leaks a path nobody else
                    # can corroborate
                    path = (peer, ann.announcer)
                path = decorate_path(path, ann)
                if not routable:
                    dropped_prefix += 1
                    continue
                if path_has_loop(path):
                    dropped_loop += 1
                    continue
                kept += 1
                i = self._peer_index[peer]
                codes.update(slots[asn] * n_peers + i for asn in path)
        dropped: List[Tuple[str, int]] = []
        if dropped_loop:
            dropped.append((REASON_LOOP, dropped_loop))
        if dropped_prefix:
            dropped.append((REASON_PREFIX_LENGTH, dropped_prefix))
        return Contribution(
            codes=array("q", codes), kept=kept, dropped=tuple(dropped)
        )


class ActivityEngine:
    """Incremental per-day visibility classifier over announcement diffs.

    Feed it ascending-day multiset diffs via :meth:`apply` (the first
    one, onto empty counters, may be a whole multiset via
    :meth:`load`); it maintains a live counter per (ASN slot, peer), a
    visible-peer count per slot, and open activity runs, and closes
    runs only when an ASN's visibility class actually changes.
    :meth:`finish` returns the per-ASN runs ``[(class, start, end),
    ...]`` in ASN order, where class 2 = observed (≥
    ``min_corroboration`` peers) and class 1 = single-peer;
    :meth:`replay` drives a whole :class:`AnnouncementSchedule` through
    them.
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
        # live state
        self._live: Counter = Counter()
        self._counts = array("q")
        self._visible = array("q")
        # run bookkeeping, per slot
        self._run_class: Dict[int, int] = {}
        self._run_start: Dict[int, Day] = {}
        self._runs: Dict[int, List[Tuple[int, Day, Day]]] = {}
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
        """Apply one day's announcement diff (multisets; ascending days).

        The whole diff is checked before any state changes, so a
        rejected one (``ValueError``) leaves the engine as it was.
        """
        self._check_day(day)
        added = _multiset(added)
        removed = _multiset(removed)
        for ann, count in removed.items():
            if count > self._live[ann]:
                raise ValueError(f"removing more {ann!r} than live")
        self._advance(day)
        if not added and not removed:
            return
        for ann, count in removed.items():
            left = self._live[ann] - count
            if left:
                self._live[ann] = left
            else:
                del self._live[ann]
        self._live.update(added)
        touched: Set[int] = set()
        for ann, count in removed.items():
            self._apply_contribution(ann, -count, touched)
        for ann, count in added.items():
            self._apply_contribution(ann, count, touched)
        self._commit(day, touched)

    def load(self, day: Day, base: Iterable[Tuple[Announcement, int]]) -> None:
        """Apply a whole ``(announcement, count)`` multiset onto empty
        counters (no live announcement), in bulk.

        Equal to ``apply(day, Counter(dict(base)))``, state for state,
        commit for commit (the property tests pin it): from zero, every
        counter is the multiplicity-weighted number of live
        contributions holding its code, so one histogram of the joined
        code buffers is the counters, a slot's non-zero counters are
        its visible peers, and every slot with one is touched.
        Contributions are interned (and slots assigned) in ``base``
        order, as the walk does.
        """
        if self._live:
            raise ValueError("load() needs empty counters")
        self._check_day(day)
        live = _multiset(dict(base))
        self._advance(day)
        if not live:
            return
        contribs = [self._index.contribution(ann) for ann in live]
        self._live = live
        for contrib, count in zip(contribs, live.values()):
            self._account(contrib, count)
        n_peers = self._n_peers
        n_slots = len(self._index.slots)
        codes = np.frombuffer(b"".join(c.codes for c in contribs), dtype=np.int64)
        weights = None
        if any(count > 1 for count in live.values()):
            # float64 sums of integer weights are exact below 2**53
            weights = np.repeat(
                np.fromiter(live.values(), dtype=np.float64, count=len(live)),
                [len(c.codes) for c in contribs],
            )
        counts = np.bincount(codes, weights, minlength=n_slots * n_peers)
        del codes, weights
        visible = np.count_nonzero(counts.reshape(n_slots, n_peers), axis=1)
        self._counts = array("q", counts.astype(np.int64, copy=False).tobytes())
        self._visible = array("q", visible.astype(np.int64, copy=False).tobytes())
        touched = np.flatnonzero(visible).tolist()
        del counts, visible
        self._commit(day, touched)

    def finish(self, end: Day) -> Dict[ASN, List[Tuple[int, Day, Day]]]:
        """Close all open runs at ``end`` and return the per-ASN runs,
        in ASN order."""
        self._advance(end + 1)
        for slot, cls in self._run_class.items():
            self._runs.setdefault(slot, []).append((cls, self._run_start[slot], end))
        self._run_class.clear()
        self._run_start.clear()
        asns = list(self._index.slots)
        return dict(sorted((asns[slot], runs) for slot, runs in self._runs.items()))

    def replay(
        self, schedule: "AnnouncementSchedule"
    ) -> Dict[ASN, List[Tuple[int, Day, Day]]]:
        """:meth:`load` a schedule's base, :meth:`apply` every change,
        then :meth:`finish` at its end; returns the per-ASN runs."""
        self.load(schedule.start, schedule.base)
        for day, added, removed in schedule.changes:
            self.apply(day, Counter(dict(added)), Counter(dict(removed)))
        return self.finish(schedule.end)

    # -- internals ---------------------------------------------------------

    def _check_day(self, day: Day) -> None:
        if self._last_day is not None and day <= self._last_day:
            raise ValueError("days must be strictly ascending")

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
        self, ann: Announcement, delta: int, touched: Set[int]
    ) -> None:
        contrib = self._index.contribution(ann)
        self._account(contrib, delta)
        n_peers = self._n_peers
        counts = self._counts
        visible = self._visible
        grow = len(self._index.slots) - len(visible)
        if grow > 0:
            visible.frombytes(bytes(8 * grow))
            counts.frombytes(bytes(8 * grow * n_peers))
        if delta > 0:
            for code in contrib.codes:
                old = counts[code]
                counts[code] = old + delta
                if not old:
                    slot = code // n_peers
                    visible[slot] += 1
                    touched.add(slot)
        else:
            for code in contrib.codes:
                new = counts[code] + delta
                counts[code] = new
                if not new:
                    slot = code // n_peers
                    visible[slot] -= 1
                    touched.add(slot)

    def _account(self, contrib: Contribution, delta: int) -> None:
        """Move the per-day sanitize rates by ``delta`` copies."""
        self._rate_kept += delta * contrib.kept
        for reason, n in contrib.dropped:
            self._rate_dropped[reason] += delta * n

    def _commit(self, day: Day, touched: Iterable[int]) -> None:
        """Open/close activity runs for ASNs whose class changed today."""
        min_corr = self._min_corr
        visible = self._visible
        run_class = self._run_class
        for slot in touched:
            count = visible[slot]
            new_class = 2 if count >= min_corr else (1 if count == 1 else 0)
            old_class = run_class.get(slot, 0)
            if new_class == old_class:
                continue
            if old_class:
                self._runs.setdefault(slot, []).append(
                    (old_class, self._run_start[slot], day - 1)
                )
            if new_class:
                run_class[slot] = new_class
                self._run_start[slot] = day
            else:
                del run_class[slot]
                del self._run_start[slot]


def _multiset(items) -> Counter:
    """A diff side as a Counter of positive counts (zeros dropped)."""
    counter = items if isinstance(items, Counter) else Counter(items)
    if all(count > 0 for count in counter.values()):
        return counter
    if any(count < 0 for count in counter.values()):
        raise ValueError("announcement counts must not be negative")
    return +counter


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
    for asn, asn_runs in runs.items():
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
