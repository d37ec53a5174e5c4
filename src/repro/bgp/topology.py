"""AS-level Internet topology with business relationships.

The BGP substrate needs a topology to propagate routes over: which AS
buys transit from which (provider-customer, "p2c") and which ASes peer
settlement-free ("p2p").  The §6.2 analysis additionally needs CAIDA
ASRank-style *customer cones* — the set of ASes reachable by following
only customer links — to show that dangling announcements come from
small networks ("95% of them have no customers").

:class:`AsTopology` stores the graph as per-AS provider, customer and
peer sets and computes cones; :func:`generate_topology` builds a
deterministic three-tier hierarchy (clique of tier-1s, mid-tier
transits, stub edge networks) that mimics the Internet's structure
closely enough for path shapes and cone-size distributions to be
meaningful.

Two alternative recipes serve the scenario layer
(:mod:`repro.scenario`): :func:`generate_ixp_topology` wires a flat
exchange-dominated mesh (small transit core, dense lateral peering
among exchange co-members), and :func:`generate_regional_topology`
builds loosely-interconnected regional islands.  :func:`build_topology`
dispatches on the recipe name a :class:`~repro.simulation.config.
WorldConfig` carries.  All three are order-deterministic for a given
seed, and every recipe keeps a non-stub transit core so collectors
always find full-feed peers.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from ..asn.numbers import ASN

__all__ = [
    "P2C",
    "P2P",
    "AsTopology",
    "generate_topology",
    "generate_ixp_topology",
    "generate_regional_topology",
    "build_topology",
]

#: Edge relationship labels.
P2C = "p2c"  # provider-to-customer
P2P = "p2p"  # settlement-free peering


class AsTopology:
    """An annotated AS graph.

    Every AS has a provider, a customer and a peer set; a
    provider→customer edge lands in both ends' sets and peering links
    are kept symmetric.  Mutation happens through :meth:`add_p2c` /
    :meth:`add_p2p`.  ASes iterate in insertion order.
    """

    def __init__(self) -> None:
        self._providers: Dict[ASN, Set[ASN]] = {}
        self._customers: Dict[ASN, Set[ASN]] = {}
        self._peers: Dict[ASN, Set[ASN]] = {}

    # -- construction ------------------------------------------------------

    def add_asn(self, asn: ASN) -> None:
        """Ensure an AS exists (isolated until links are added)."""
        if asn not in self._providers:
            self._providers[asn] = set()
            self._customers[asn] = set()
            self._peers[asn] = set()

    def add_p2c(self, provider: ASN, customer: ASN) -> None:
        """Add a provider→customer (transit) relationship."""
        if provider == customer:
            raise ValueError("an AS cannot be its own provider")
        self.add_asn(provider)
        self.add_asn(customer)
        self._customers[provider].add(customer)
        self._providers[customer].add(provider)

    def add_p2p(self, a: ASN, b: ASN) -> None:
        """Add a settlement-free peering relationship (symmetric)."""
        if a == b:
            raise ValueError("an AS cannot peer with itself")
        self.add_asn(a)
        self.add_asn(b)
        self._peers[a].add(b)
        self._peers[b].add(a)

    # -- queries -----------------------------------------------------------

    def __contains__(self, asn: ASN) -> bool:
        return asn in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def asns(self) -> Iterable[ASN]:
        return self._providers.keys()

    def providers(self, asn: ASN) -> FrozenSet[ASN]:
        return frozenset(self._providers.get(asn, ()))

    def customers(self, asn: ASN) -> FrozenSet[ASN]:
        return frozenset(self._customers.get(asn, ()))

    def peers(self, asn: ASN) -> FrozenSet[ASN]:
        return frozenset(self._peers.get(asn, ()))

    def degree(self, asn: ASN) -> int:
        """Total relationship count (providers + customers + peers)."""
        return (
            len(self._providers.get(asn, ()))
            + len(self._customers.get(asn, ()))
            + len(self._peers.get(asn, ()))
        )

    def is_stub(self, asn: ASN) -> bool:
        """True for ASes with no customers (the edge of the Internet)."""
        return not self._customers.get(asn)

    def customer_cone(self, asn: ASN) -> FrozenSet[ASN]:
        """ASRank-style customer cone: ``asn`` plus every AS reachable
        by repeatedly following customer links (§6.2 / [48])."""
        seen: Set[ASN] = {asn}
        stack = [asn]
        while stack:
            current = stack.pop()
            for customer in self._customers.get(current, ()):
                if customer not in seen:
                    seen.add(customer)
                    stack.append(customer)
        return frozenset(seen)

    def cone_size(self, asn: ASN) -> int:
        """Customer-cone size, counting the AS itself."""
        return len(self.customer_cone(asn))

    def tier1s(self) -> FrozenSet[ASN]:
        """ASes with no providers (the top of the hierarchy)."""
        return frozenset(
            asn for asn, providers in self._providers.items() if not providers
        )


def generate_topology(
    asns: Sequence[ASN],
    *,
    seed: int = 0,
    tier1_count: int = 8,
    transit_share: float = 0.12,
    stub_extra_provider_prob: float = 0.35,
    peering_prob: float = 0.08,
) -> AsTopology:
    """Build a deterministic three-tier topology over the given ASNs.

    * the first ``tier1_count`` ASNs form a full peering clique (tier 1);
    * the next ``transit_share`` fraction become mid-tier transit
      providers, each buying from 1-2 tier 1s and peering laterally;
    * the rest are stubs buying transit from 1-2 mid-tier providers
      (multi-homing with probability ``stub_extra_provider_prob``).

    The construction is order-deterministic for a given ``seed``.
    """
    if len(asns) < tier1_count + 2:
        raise ValueError("need more ASNs than tier-1 slots")
    rng = random.Random(seed)
    topo = AsTopology()
    ordered = list(asns)
    tier1 = ordered[:tier1_count]
    transit_count = max(1, int(len(ordered) * transit_share))
    transits = ordered[tier1_count : tier1_count + transit_count]
    stubs = ordered[tier1_count + transit_count :]

    for a_idx, a in enumerate(tier1):
        topo.add_asn(a)
        for b in tier1[a_idx + 1 :]:
            topo.add_p2p(a, b)

    for t in transits:
        for provider in rng.sample(tier1, rng.randint(1, 2)):
            topo.add_p2c(provider, t)
    for idx, t in enumerate(transits):
        for other in transits[idx + 1 :]:
            if rng.random() < peering_prob:
                topo.add_p2p(t, other)

    for s in stubs:
        providers = rng.sample(transits, min(len(transits), 1))
        if rng.random() < stub_extra_provider_prob and len(transits) > 1:
            extra = rng.choice(transits)
            if extra not in providers:
                providers.append(extra)
        for p in providers:
            topo.add_p2c(p, s)
    return topo


def generate_ixp_topology(
    asns: Sequence[ASN],
    *,
    seed: int = 0,
    ixp_count: int = 4,
    tier1_count: int = 8,
    transit_share: float = 0.12,
    peering_prob: float = 0.08,
    stub_extra_provider_prob: float = 0.35,
) -> AsTopology:
    """A flat, exchange-dominated Internet (the seed-emulator shape).

    A small tier-1 clique and a thin transit layer survive (somebody
    has to sell transit and feed the collectors), but most
    connectivity is lateral: every transit and a majority of stubs
    join 1-2 of ``ixp_count`` exchanges, and co-members of an exchange
    peer settlement-free with a probability that scales with
    ``peering_prob`` well above the hierarchical recipe's.  The result
    is short valley-free paths, small customer cones, and visibility
    that depends on peering fabric rather than provider chains.
    """
    if len(asns) < tier1_count + 2:
        raise ValueError("need more ASNs than tier-1 slots")
    rng = random.Random(seed)
    topo = AsTopology()
    ordered = list(asns)
    tier1 = ordered[:tier1_count]
    transit_count = max(1, int(len(ordered) * transit_share))
    transits = ordered[tier1_count : tier1_count + transit_count]
    stubs = ordered[tier1_count + transit_count :]

    for a_idx, a in enumerate(tier1):
        topo.add_asn(a)
        for b in tier1[a_idx + 1 :]:
            topo.add_p2p(a, b)
    for t in transits:
        for provider in rng.sample(tier1, rng.randint(1, 2)):
            topo.add_p2c(provider, t)
    for s in stubs:
        providers = rng.sample(transits, min(len(transits), 1))
        if rng.random() < stub_extra_provider_prob and len(transits) > 1:
            extra = rng.choice(transits)
            if extra not in providers:
                providers.append(extra)
        for p in providers:
            topo.add_p2c(p, s)

    # exchange membership: transits are anchor members of every IXP
    # they land in; stubs mostly join one
    members: List[List[ASN]] = [[] for _ in range(ixp_count)]
    for t in transits:
        for ixp in rng.sample(range(ixp_count), min(2, ixp_count)):
            members[ixp].append(t)
    for s in stubs:
        if rng.random() < 0.7:
            members[rng.randrange(ixp_count)].append(s)
    # dense lateral peering inside each exchange; cap the per-member
    # fan-out so a big IXP stays O(members), not O(members^2)
    lateral_prob = min(1.0, peering_prob * 4)
    for fabric in members:
        for idx, a in enumerate(fabric):
            partners = fabric[idx + 1 :]
            budget = min(len(partners), 12)
            for b in rng.sample(partners, budget):
                if rng.random() < lateral_prob:
                    topo.add_p2p(a, b)
    return topo


def generate_regional_topology(
    asns: Sequence[ASN],
    *,
    seed: int = 0,
    regional_clusters: int = 4,
    hub_count: int = 3,
    transit_share: float = 0.12,
    peering_prob: float = 0.08,
    stub_extra_provider_prob: float = 0.35,
) -> AsTopology:
    """Loosely-interconnected regional islands.

    Each region is a miniature hierarchy — ``hub_count`` regional hubs
    in a peering clique, regional transits buying from the hubs, stubs
    buying from the transits — and regions touch only through sparse
    hub-to-hub peering plus one transit backbone chain, so paths
    between regions are long and inter-region visibility is thin.
    ``hub_count`` doubles as the per-region tier-1 slot count.
    """
    needed = regional_clusters * (hub_count + 2)
    if len(asns) < needed:
        raise ValueError(
            f"need at least {needed} ASNs for {regional_clusters} regions"
        )
    rng = random.Random(seed)
    topo = AsTopology()
    ordered = list(asns)
    regions: List[List[ASN]] = [
        ordered[idx::regional_clusters] for idx in range(regional_clusters)
    ]

    region_hubs: List[List[ASN]] = []
    for region in regions:
        hubs = region[:hub_count]
        transit_count = max(1, int(len(region) * transit_share))
        transits = region[hub_count : hub_count + transit_count]
        stubs = region[hub_count + transit_count :]
        region_hubs.append(hubs)

        for a_idx, a in enumerate(hubs):
            topo.add_asn(a)
            for b in hubs[a_idx + 1 :]:
                topo.add_p2p(a, b)
        for t in transits:
            for provider in rng.sample(hubs, rng.randint(1, min(2, len(hubs)))):
                topo.add_p2c(provider, t)
        for idx, t in enumerate(transits):
            for other in transits[idx + 1 :]:
                if rng.random() < peering_prob:
                    topo.add_p2p(t, other)
        for s in stubs:
            providers = rng.sample(transits, min(len(transits), 1))
            if rng.random() < stub_extra_provider_prob and len(transits) > 1:
                extra = rng.choice(transits)
                if extra not in providers:
                    providers.append(extra)
            for p in providers:
                topo.add_p2c(p, s)

    # sparse inter-region fabric: a backbone chain through the first
    # hub of each region plus a few random hub-to-hub shortcuts
    for idx in range(len(region_hubs) - 1):
        topo.add_p2p(region_hubs[idx][0], region_hubs[idx + 1][0])
    shortcuts = max(1, regional_clusters // 2)
    for _ in range(shortcuts):
        a_region, b_region = rng.sample(range(regional_clusters), 2)
        a = rng.choice(region_hubs[a_region])
        b = rng.choice(region_hubs[b_region])
        if a != b and b not in topo.peers(a):
            topo.add_p2p(a, b)
    return topo


def build_topology(asns: Sequence[ASN], config, *, seed: int) -> AsTopology:
    """Dispatch on a :class:`~repro.simulation.config.WorldConfig`'s
    ``topology_recipe`` — the one entry point the world simulator uses.
    """
    if config.topology_recipe == "ixp-heavy":
        return generate_ixp_topology(
            asns,
            seed=seed,
            ixp_count=config.ixp_count,
            tier1_count=config.tier1_count,
            transit_share=config.transit_share,
            peering_prob=config.peering_prob,
            stub_extra_provider_prob=config.stub_extra_provider_prob,
        )
    if config.topology_recipe == "regional":
        return generate_regional_topology(
            asns,
            seed=seed,
            regional_clusters=config.regional_clusters,
            hub_count=config.tier1_count,
            transit_share=config.transit_share,
            peering_prob=config.peering_prob,
            stub_extra_provider_prob=config.stub_extra_provider_prob,
        )
    if config.topology_recipe == "transit-hierarchy":
        return generate_topology(
            asns,
            seed=seed,
            tier1_count=config.tier1_count,
            transit_share=config.transit_share,
            peering_prob=config.peering_prob,
            stub_extra_provider_prob=config.stub_extra_provider_prob,
        )
    raise ValueError(f"unknown topology recipe {config.topology_recipe!r}")
