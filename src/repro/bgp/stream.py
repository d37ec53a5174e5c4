"""Synthetic BGPStream: daily RIB and update elements from a scenario.

The real pipeline reads RouteViews/RIS dumps through CAIDA BGPStream;
ours reads a *routing scenario*: a callable mapping each day to the set
of announcements active that day.  Route propagation over the static
AS topology turns announcements into per-peer AS paths; the stream then
yields one RIB element per (collector, peer, announcement) plus
announce/withdraw updates on inter-day changes — the same element
stream shape §3.2 consumes.

Path computation is the hot spot, so :class:`PathOracle` runs the
valley-free sweep once per routing root (the topology is static): a
single-homed stub reuses its provider's sweep, every other announcer
gets its own, and each sweep computes routes only where a collector
peer's route can depend on them, reading neighbour lists that one
:class:`~repro.bgp.routing.VantageReach` sorted once for all sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..asn.numbers import ASN
from ..net.prefix import Prefix
from ..timeline.dates import Day
from .collector import Collector, all_peer_asns
from .messages import ANNOUNCE, RIB, WITHDRAW, BgpElement
from .routing import Path, VantageReach, best_paths
from .topology import AsTopology

__all__ = [
    "Announcement",
    "PathOracle",
    "SyntheticBgpStream",
    "decorate_path",
]


@dataclass(frozen=True)
class Announcement:
    """One (announcer, prefix) pair active on a day.

    ``forged_origin`` appends a different origin ASN behind the
    announcer — this single mechanism covers both ASN squatting
    (§6.1.2: the hijacker forges a dormant origin and appears as its
    transit) and fat-finger origins (§6.4: a typo of the first hop).
    ``only_peer`` makes the announcement visible through exactly one
    collector peer, modelling the spurious low-visibility data the
    2-peer rule exists to reject.  ``corrupt_loop`` mangles the path to
    contain a loop, exercising the sanitizer.
    """

    announcer: ASN
    prefix: Prefix
    forged_origin: Optional[ASN] = None
    prepend: int = 0
    only_peer: Optional[ASN] = None
    corrupt_loop: bool = False

    @property
    def origin(self) -> ASN:
        """The origin ASN observers will attribute the prefix to."""
        return self.forged_origin if self.forged_origin is not None else self.announcer

    def key(self) -> Tuple[ASN, Prefix, Optional[ASN]]:
        """Identity for day-over-day diffing (updates)."""
        return (self.announcer, self.prefix, self.forged_origin)


def decorate_path(path: Path, ann: "Announcement") -> Path:
    """Apply an announcement's path decorations (forged origin, prepend,
    loop corruption) to a propagated path.

    Shared by the object stream and the columnar activity engine so the
    two produce byte-identical paths for the same announcement.
    """
    if ann.forged_origin is not None:
        path = path + (ann.forged_origin,)
    if ann.prepend:
        path = path + (path[-1],) * ann.prepend
    if ann.corrupt_loop and len(path) >= 2:
        # repeat the first hop behind the origin: a non-adjacent
        # duplicate, i.e. a loop the sanitizer must reject
        path = path + (path[0],)
    return path


class PathOracle:
    """Caches best valley-free paths from vantage ASes to announcers.

    The oracle builds one :class:`~repro.bgp.routing.VantageReach` for
    its vantages and hands it to every sweep.  ``sweeps`` and
    ``sweep_seconds`` count the routing sweeps run so far and their
    wall time, so callers can attribute routing inside their stages.

    A single-homed stub S (one provider P, no peers, no customers) runs
    no sweep of its own: every route to S ends ``…P, S``, so each
    candidate at every AS gains the same last hop and ranks as it did
    towards P, and no route passes through S.  Its map is S's one-hop
    path first (when S is a vantage), then P's map in P's order with S
    appended to every path.  P has a customer, so it is never such a
    stub itself.
    """

    def __init__(self, topology: AsTopology, vantages: Set[ASN]) -> None:
        self._topology = topology
        self._reach = VantageReach(topology, vantages)
        self._cache: Dict[ASN, Dict[ASN, Path]] = {}
        self.sweeps = 0
        self.sweep_seconds = 0.0

    def paths_for(self, announcer: ASN) -> Dict[ASN, Path]:
        """Vantage → path map for one announcer (cached)."""
        cached = self._cache.get(announcer)
        if cached is None:
            provider = self.single_provider(announcer)
            if provider is not None:
                cached = (
                    {announcer: (announcer,)}
                    if announcer in self._reach.vantages
                    else {}
                )
                for v, path in self.paths_for(provider).items():
                    if v != announcer:
                        cached[v] = path + (announcer,)
            else:
                start = perf_counter()
                cached = best_paths(self._topology, announcer, self._reach)
                self.sweep_seconds += perf_counter() - start
                self.sweeps += 1
            self._cache[announcer] = cached
        return cached

    def single_provider(self, asn: ASN) -> Optional[ASN]:
        """The provider of a single-homed stub, else None."""
        topo = self._topology
        providers = topo.providers(asn)
        if len(providers) != 1 or topo.peers(asn) or topo.customers(asn):
            return None
        return next(iter(providers))


class SyntheticBgpStream:
    """Iterator factory over synthetic BGP elements.

    Parameters
    ----------
    topology:
        The static AS graph routes propagate over.
    collectors:
        Collecting infrastructure (peer sets define visibility).
    day_source:
        Callable returning the active announcements for a day.
    """

    def __init__(
        self,
        topology: AsTopology,
        collectors: Sequence[Collector],
        day_source: Callable[[Day], Sequence[Announcement]],
    ) -> None:
        self._collectors = list(collectors)
        self._day_source = day_source
        self.oracle = PathOracle(topology, all_peer_asns(collectors))

    def elements_for_day(
        self, day: Day, previous: Optional[Sequence[Announcement]] = None
    ) -> Iterator[BgpElement]:
        """All elements of one day: a RIB pass plus updates vs. ``previous``."""
        current = list(self._day_source(day))
        sequence = 0
        for ann in current:
            for element in self._emit(ann, day, sequence, RIB):
                yield element
            sequence += 1
        if previous is not None:
            prev_keys = {a.key(): a for a in previous}
            cur_keys = {a.key() for a in current}
            for ann in current:
                if ann.key() not in prev_keys:
                    for element in self._emit(ann, day, sequence, ANNOUNCE):
                        yield element
                    sequence += 1
            for key, ann in prev_keys.items():
                if key not in cur_keys:
                    for element in self._emit_withdraw(ann, day, sequence):
                        yield element
                    sequence += 1

    def elements(self, start_day: Day, end_day: Day) -> Iterator[BgpElement]:
        """Stream every element of the inclusive day range, in order."""
        previous: Optional[List[Announcement]] = None
        for day in range(start_day, end_day + 1):
            yield from self.elements_for_day(day, previous)
            previous = list(self._day_source(day))

    # -- internals ---------------------------------------------------------

    def _emit(
        self, ann: Announcement, day: Day, sequence: int, elem_type: str
    ) -> Iterator[BgpElement]:
        paths = self.oracle.paths_for(ann.announcer)
        for collector in self._collectors:
            for peer in collector.peer_asns:
                if ann.only_peer is not None and peer != ann.only_peer:
                    continue
                path = paths.get(peer)
                if path is None:
                    if ann.only_peer is not None and peer == ann.only_peer:
                        # spurious data: the peer leaks a path nobody
                        # else can corroborate
                        path = (peer, ann.announcer)
                    else:
                        continue
                path = self._decorate(path, ann)
                yield BgpElement(
                    elem_type=elem_type,
                    day=day,
                    sequence=sequence,
                    project=collector.project,
                    collector=collector.name,
                    peer_asn=peer,
                    prefix=ann.prefix,
                    as_path=path,
                )

    def _emit_withdraw(
        self, ann: Announcement, day: Day, sequence: int
    ) -> Iterator[BgpElement]:
        paths = self.oracle.paths_for(ann.announcer)
        for collector in self._collectors:
            for peer in collector.peer_asns:
                if ann.only_peer is not None and peer != ann.only_peer:
                    continue
                if peer not in paths and ann.only_peer is None:
                    continue
                yield BgpElement(
                    elem_type=WITHDRAW,
                    day=day,
                    sequence=sequence,
                    project=collector.project,
                    collector=collector.name,
                    peer_asn=peer,
                    prefix=ann.prefix,
                )

    _decorate = staticmethod(decorate_path)
