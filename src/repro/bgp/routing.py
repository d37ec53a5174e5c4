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
the closure, not with the topology.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Dict, Optional, Sequence, Set, Tuple

from ..asn.numbers import ASN
from .topology import AsTopology

__all__ = ["ROUTE_CUSTOMER", "ROUTE_PEER", "ROUTE_PROVIDER", "best_paths"]

#: Route preference classes, in decreasing preference.
ROUTE_CUSTOMER = 0
ROUTE_PEER = 1
ROUTE_PROVIDER = 2

Path = Tuple[ASN, ...]


def _better(
    cls_a: int, path_a: Path, cls_b: Optional[int], path_b: Optional[Path]
) -> bool:
    """True when route (cls_a, path_a) beats the incumbent (cls_b, path_b)."""
    if cls_b is None or path_b is None:
        return True
    if cls_a != cls_b:
        return cls_a < cls_b
    if len(path_a) != len(path_b):
        return len(path_a) < len(path_b)
    return path_a < path_b


def best_paths(
    topo: AsTopology, announcer: ASN, vantages: Collection[ASN]
) -> Dict[ASN, Path]:
    """Best valley-free AS path from each vantage AS to ``announcer``.

    The returned path for vantage ``x`` starts at ``x`` and ends at
    ``announcer``; the announcer itself, when a vantage, maps to the
    one-element path.  Vantages with no valley-free route to the
    announcer, or not in the topology, are absent.  Pass
    ``topo.asns()`` for every AS's path.

    Only ASes in the vantages' provider closure get peer or provider
    routes: a provider route is derived from the providers' routes
    alone, and the closure holds every provider of its members, so
    each vantage's route is exactly the one a sweep over the whole
    topology would find.  Paths come back in that sweep's order.
    """
    if announcer not in topo:
        return {}
    # the vantages plus every transitive provider of theirs
    closure: Set[ASN] = set(vantages)
    stack = list(closure)
    while stack:
        for provider in topo.providers(stack.pop()):
            if provider not in closure:
                closure.add(provider)
                stack.append(provider)
    route_class: Dict[ASN, int] = {announcer: ROUTE_CUSTOMER}
    route_path: Dict[ASN, Path] = {announcer: (announcer,)}

    # Phase 1 — customer routes climb provider links (BFS = shortest).
    queue = deque([announcer])
    while queue:
        current = queue.popleft()
        path = route_path[current]
        for provider in sorted(topo.providers(current)):
            candidate = (provider,) + path
            if _better(
                ROUTE_CUSTOMER,
                candidate,
                route_class.get(provider),
                route_path.get(provider),
            ):
                route_class[provider] = ROUTE_CUSTOMER
                route_path[provider] = candidate
                queue.append(provider)

    # Phase 2 — one lateral peer hop over ASes holding customer routes,
    # landing only inside the closure.
    with_customer_route = [
        asn for asn, cls in route_class.items() if cls == ROUTE_CUSTOMER
    ]
    for asn in sorted(with_customer_route, key=lambda a: (len(route_path[a]), a)):
        path = route_path[asn]
        for peer in sorted(topo.peers(asn) & closure):
            candidate = (peer,) + path
            if _better(
                ROUTE_PEER, candidate, route_class.get(peer), route_path.get(peer)
            ):
                route_class[peer] = ROUTE_PEER
                route_path[peer] = candidate

    # Phase 3 — descend customer links; provider routes propagate down.
    # A customer inside the closure has all its providers inside it.
    queue = deque(sorted(route_class, key=lambda a: (len(route_path[a]), a)))
    while queue:
        current = queue.popleft()
        path = route_path[current]
        for customer in sorted(topo.customers(current) & closure):
            candidate = (customer,) + path
            if _better(
                ROUTE_PROVIDER,
                candidate,
                route_class.get(customer),
                route_path.get(customer),
            ):
                route_class[customer] = ROUTE_PROVIDER
                route_path[customer] = candidate
                queue.append(customer)

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
