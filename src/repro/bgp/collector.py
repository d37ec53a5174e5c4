"""Collector infrastructure: RouteViews and RIPE RIS vantage points.

Both projects operate collectors that full-feed BGP sessions with
volunteer peer ASes; an element's provenance is (project, collector,
peer).  The paper's activity rule — an ASN is active on a day only if
*more than one distinct peer* shares paths containing it (§3.2) —
makes the peer set the load-bearing part of this model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..asn.numbers import ASN
from .topology import AsTopology

__all__ = ["ROUTEVIEWS", "RIPE_RIS", "Collector", "build_collectors", "all_peer_asns"]

ROUTEVIEWS = "routeviews"
RIPE_RIS = "ris"


@dataclass(frozen=True)
class Collector:
    """One collector and the peer ASes feeding it."""

    name: str
    project: str
    peer_asns: Tuple[ASN, ...]

    def __post_init__(self) -> None:
        if self.project not in (ROUTEVIEWS, RIPE_RIS):
            raise ValueError(f"unknown project {self.project!r}")
        if len(set(self.peer_asns)) != len(self.peer_asns):
            raise ValueError(f"duplicate peers on {self.name}")


def build_collectors(
    topology: AsTopology,
    *,
    seed: int = 0,
    routeviews_count: int = 3,
    ris_count: int = 3,
    peers_per_collector: int = 6,
) -> List[Collector]:
    """Attach collectors to well-connected ASes of a topology.

    Real collector peers are mostly transit networks (stubs rarely run
    full feeds), so peers are drawn from the non-stub ASes, weighted
    toward high degree; collectors may share peers, as in reality.
    """
    rng = random.Random(seed)
    candidates = sorted(
        (asn for asn in topology.asns() if not topology.is_stub(asn)),
        key=lambda a: (-topology.degree(a), a),
    )
    if not candidates:
        raise ValueError("topology has no transit ASes to peer with")
    pool = candidates[: max(len(candidates) // 2, peers_per_collector * 2)]
    collectors = []
    specs = [(ROUTEVIEWS, f"route-views{i or ''}") for i in range(routeviews_count)]
    specs += [(RIPE_RIS, f"rrc{i:02d}") for i in range(ris_count)]
    for project, name in specs:
        k = min(peers_per_collector, len(pool))
        peers = tuple(sorted(rng.sample(pool, k)))
        collectors.append(Collector(name=name, project=project, peer_asns=peers))
    return collectors


def all_peer_asns(collectors: Sequence[Collector]) -> Set[ASN]:
    """The union of peer ASes across the collecting infrastructure."""
    out: Set[ASN] = set()
    for collector in collectors:
        out.update(collector.peer_asns)
    return out
