"""Valley-free route propagation (Gao-Rexford model).

Collectors see AS paths, so the substrate must produce realistic ones.
We implement the standard three-phase propagation model: an AS exports
customer routes to everyone but peer/provider routes only to customers,
and prefers customer over peer over provider routes, breaking ties by
path length and then lowest next hop (deterministic).

:func:`best_paths` computes, for one announcing AS, the best AS path
from each of a set of vantage ASes (the collector peers) to the
announcer.  An AS's provider route depends only on its providers'
routes, so the sweep is confined to the vantages' provider closure: it
climbs the announcer's full provider chain, then crosses peer links and
descends customer links only inside that closure.  Its cost grows with
the closure, not with the topology.  The closure and every AS's sorted
neighbour lists depend only on the topology and the vantages, so a
:class:`VantageReach` computes them once and every sweep reuses it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Dict, Sequence, Tuple

from ..asn.numbers import ASN
from .topology import AsTopology

__all__ = [
    "ROUTE_CUSTOMER",
    "ROUTE_PEER",
    "ROUTE_PROVIDER",
    "VantageReach",
    "best_paths",
]

#: Route preference classes, in decreasing preference.
ROUTE_CUSTOMER = 0
ROUTE_PEER = 1
ROUTE_PROVIDER = 2

Path = Tuple[ASN, ...]


class _Memo(dict):
    """ASN → value, computed on first lookup."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable[[ASN], Tuple[ASN, ...]]) -> None:
        super().__init__()
        self._compute = compute

    def __missing__(self, asn: ASN) -> Tuple[ASN, ...]:
        value = self[asn] = self._compute(asn)
        return value


class VantageReach:
    """What a sweep towards a fixed vantage set reads, computed once.

    The closure is the vantages plus every transitive provider of
    theirs.  ``providers[a]`` is a's providers, sorted; ``peers[a]``
    and ``customers[a]`` are a's peers and customers inside the
    closure, sorted.  The three lists fill in on first lookup, so a
    reach shared by many sweeps sorts each AS's neighbours once.  The
    topology must not change while the reach is in use.
    """

    def __init__(self, topo: AsTopology, vantages: Collection[ASN]) -> None:
        self.vantages = frozenset(vantages)
        closure = set(self.vantages)
        stack = list(closure)
        while stack:
            for provider in topo.providers(stack.pop()):
                if provider not in closure:
                    closure.add(provider)
                    stack.append(provider)
        self.providers = _Memo(lambda a: tuple(sorted(topo.providers(a))))
        self.peers = _Memo(lambda a: tuple(sorted(topo.peers(a) & closure)))
        self.customers = _Memo(
            lambda a: tuple(sorted(topo.customers(a) & closure))
        )


def best_paths(
    topo: AsTopology, announcer: ASN, reach: VantageReach
) -> Dict[ASN, Path]:
    """Best valley-free AS path from each of ``reach``'s vantages to
    ``announcer``.

    The returned path for vantage ``x`` starts at ``x`` and ends at
    ``announcer``; the announcer itself, when a vantage, maps to the
    one-element path.  Vantages with no valley-free route to the
    announcer, or not in the topology, are absent.  Pass
    ``VantageReach(topo, topo.asns())`` for every AS's path.

    Only ASes in the vantages' provider closure get peer or provider
    routes: a provider route is derived from the providers' routes
    alone, and the closure holds every provider of its members, so
    each vantage's route is exactly the one a sweep over the whole
    topology would find.  Paths come back in that sweep's order.

    A candidate replaces the incumbent when it has the better class
    (customer, then peer, then provider), then the shorter path, then
    the lexicographically smaller one.  Each phase offers candidates of
    one class, so every comparison below is that rule with the class
    test folded in.
    """
    if announcer not in topo:
        return {}
    route_class: Dict[ASN, int] = {announcer: ROUTE_CUSTOMER}
    route_path: Dict[ASN, Path] = {announcer: (announcer,)}

    # Phase 1 — customer routes climb provider links (BFS = shortest).
    # Every route written so far is a customer route.
    providers = reach.providers
    queue = deque([announcer])
    while queue:
        current = queue.popleft()
        path = route_path[current]
        for provider in providers[current]:
            candidate = (provider,) + path
            old = route_path.get(provider)
            if old is None or len(candidate) < len(old) or (
                len(candidate) == len(old) and candidate < old
            ):
                route_class[provider] = ROUTE_CUSTOMER
                route_path[provider] = candidate
                queue.append(provider)

    # Phase 2 — one lateral peer hop over ASes holding customer routes
    # (all of them, so far), landing only inside the closure.
    peers = reach.peers
    for asn in sorted(route_path, key=lambda a: (len(route_path[a]), a)):
        path = route_path[asn]
        for peer in peers[asn]:
            candidate = (peer,) + path
            cls = route_class.get(peer)
            if cls is None:
                route_class[peer] = ROUTE_PEER
                route_path[peer] = candidate
            elif cls == ROUTE_PEER:
                old = route_path[peer]
                if len(candidate) < len(old) or (
                    len(candidate) == len(old) and candidate < old
                ):
                    route_path[peer] = candidate

    # Phase 3 — descend customer links; provider routes propagate down.
    # A customer inside the closure has all its providers inside it.
    customers = reach.customers
    queue = deque(sorted(route_class, key=lambda a: (len(route_path[a]), a)))
    while queue:
        current = queue.popleft()
        path = route_path[current]
        for customer in customers[current]:
            candidate = (customer,) + path
            cls = route_class.get(customer)
            if cls is None:
                route_class[customer] = ROUTE_PROVIDER
            elif cls != ROUTE_PROVIDER:
                continue
            else:
                old = route_path[customer]
                if len(candidate) > len(old) or (
                    len(candidate) == len(old) and not candidate < old
                ):
                    continue
            route_path[customer] = candidate
            queue.append(customer)

    vantages = reach.vantages
    return {v: p for v, p in route_path.items() if v in vantages}


def validate_valley_free(topo: AsTopology, path: Sequence[ASN]) -> bool:
    """Check the Gao-Rexford valley-free property of a path.

    Traversing from origin to vantage (i.e. reversed reported order), a
    path must go up (customer→provider) zero or more times, cross at
    most one peer link, then go down (provider→customer).  Used by the
    tests as an oracle over :func:`best_paths` output.
    """
    hops = list(reversed(path))  # origin .. vantage
    phase = "up"
    for a, b in zip(hops, hops[1:]):
        if b in topo.providers(a):
            step = "up"
        elif b in topo.peers(a):
            step = "peer"
        elif b in topo.customers(a):
            step = "down"
        else:
            return False
        if phase == "up":
            phase = step
        elif phase == "peer":
            if step != "down":
                return False
            phase = "down"
        elif phase == "down":
            if step != "down":
                return False
    return True
