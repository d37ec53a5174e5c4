"""Tests for the AS topology and valley-free routing."""

from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bgp import (
    AsTopology,
    PathOracle,
    VantageReach,
    best_paths,
    generate_topology,
    validate_valley_free,
)
from repro.bgp.routing import ROUTE_CUSTOMER, ROUTE_PEER, ROUTE_PROVIDER
from repro.bgp.topology import generate_ixp_topology, generate_regional_topology


def everywhere(topo, announcer):
    """Every AS's best path to ``announcer``."""
    return best_paths(topo, announcer, VantageReach(topo, topo.asns()))


def _better(cls_a, path_a, cls_b, path_b):
    """True when route (cls_a, path_a) beats the incumbent (cls_b, path_b)."""
    if cls_b is None or path_b is None:
        return True
    if cls_a != cls_b:
        return cls_a < cls_b
    if len(path_a) != len(path_b):
        return len(path_a) < len(path_b)
    return path_a < path_b


def _reference_best_paths(topo, announcer):
    """The unrestricted sweep: every AS's best path to ``announcer``.

    Kept verbatim as the oracle the vantage-restricted
    :func:`best_paths` must agree with, order included.
    """
    if announcer not in topo:
        return {}
    route_class = {announcer: ROUTE_CUSTOMER}
    route_path = {announcer: (announcer,)}

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

    # Phase 2 — one lateral peer hop over ASes holding customer routes.
    with_customer_route = [
        asn for asn, cls in route_class.items() if cls == ROUTE_CUSTOMER
    ]
    for asn in sorted(with_customer_route, key=lambda a: (len(route_path[a]), a)):
        path = route_path[asn]
        for peer in sorted(topo.peers(asn)):
            candidate = (peer,) + path
            if _better(
                ROUTE_PEER, candidate, route_class.get(peer), route_path.get(peer)
            ):
                route_class[peer] = ROUTE_PEER
                route_path[peer] = candidate

    # Phase 3 — descend customer links; provider routes propagate down.
    queue = deque(sorted(route_class, key=lambda a: (len(route_path[a]), a)))
    while queue:
        current = queue.popleft()
        path = route_path[current]
        for customer in sorted(topo.customers(current)):
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

    return route_path


@pytest.fixture
def diamond():
    """Two tier-1 peers, two transits, two stubs.

         T1a ---peer--- T1b
          |              |
         M1             M2
          |  \\        /  |
         S1    \\    /    S2
                (S3 multihomed to M1, M2)
    """
    topo = AsTopology()
    topo.add_p2p(10, 20)
    topo.add_p2c(10, 100)
    topo.add_p2c(20, 200)
    topo.add_p2c(100, 1001)
    topo.add_p2c(200, 2001)
    topo.add_p2c(100, 3001)
    topo.add_p2c(200, 3001)
    return topo


class TestTopology:
    def test_relationships(self, diamond):
        assert diamond.providers(100) == {10}
        assert diamond.customers(10) == {100}
        assert diamond.peers(10) == {20}
        assert diamond.providers(3001) == {100, 200}

    def test_rejects_self_links(self, diamond):
        with pytest.raises(ValueError):
            diamond.add_p2c(5, 5)
        with pytest.raises(ValueError):
            diamond.add_p2p(5, 5)

    def test_stub_detection(self, diamond):
        assert diamond.is_stub(1001)
        assert not diamond.is_stub(100)

    def test_tier1s(self, diamond):
        assert diamond.tier1s() == {10, 20}

    def test_customer_cone(self, diamond):
        assert diamond.customer_cone(100) == {100, 1001, 3001}
        assert diamond.customer_cone(10) == {10, 100, 1001, 3001}
        assert diamond.customer_cone(1001) == {1001}
        assert diamond.cone_size(1001) == 1

    def test_degree(self, diamond):
        assert diamond.degree(10) == 2  # one peer + one customer
        assert diamond.degree(3001) == 2  # two providers


class TestRouting:
    def test_customer_route_up_the_chain(self, diamond):
        paths = everywhere(diamond, 1001)
        assert paths[100] == (100, 1001)
        assert paths[10] == (10, 100, 1001)

    def test_peer_route_single_lateral_hop(self, diamond):
        paths = everywhere(diamond, 1001)
        assert paths[20] == (20, 10, 100, 1001)

    def test_provider_route_descends(self, diamond):
        paths = everywhere(diamond, 1001)
        assert paths[2001] == (2001, 200, 20, 10, 100, 1001)

    def test_multihomed_stub_shortest(self, diamond):
        paths = everywhere(diamond, 3001)
        # from 2001 the direct route via 200 wins over the detour via 10/20
        assert paths[2001] == (2001, 200, 3001)

    def test_preference_outranks_length(self):
        """A customer route beats a shorter peer route, and a peer route
        beats a shorter provider route."""
        topo = AsTopology()
        for provider, customer in ((2, 1), (3, 2), (4, 1), (4, 5),
                                   (6, 1), (7, 6), (8, 7), (9, 8)):
            topo.add_p2c(provider, customer)
        topo.add_p2p(3, 5)
        topo.add_p2p(4, 9)
        paths = everywhere(topo, 1)
        assert paths[9] == (9, 8, 7, 6, 1)  # not the peer route (9, 4, 1)
        assert paths[5] == (5, 3, 2, 1)  # not the provider route (5, 4, 1)
        assert paths == _reference_best_paths(topo, 1)

    def test_announcer_maps_to_itself(self, diamond):
        assert everywhere(diamond, 1001)[1001] == (1001,)

    def test_unknown_announcer_empty(self, diamond):
        assert everywhere(diamond, 99999) == {}

    def test_all_paths_valley_free(self, diamond):
        for origin in (1001, 2001, 3001, 100, 10):
            for path in everywhere(diamond, origin).values():
                assert validate_valley_free(diamond, path), path

    def test_valley_rejected_by_oracle(self, diamond):
        # down-then-up (1001 -> 100 -> 3001? no: 3001 is 100's customer;
        # a path 1001..100..3001 would be valid down after up). Construct
        # an explicit valley: provider -> customer -> provider.
        assert not validate_valley_free(diamond, (20, 200, 3001, 100))


class TestGeneratedTopology:
    def test_structure(self):
        asns = list(range(1, 301))
        topo = generate_topology(asns, seed=7)
        assert len(topo) == 300
        tier1 = topo.tier1s()
        assert len(tier1) == 8
        # every non-tier1 AS has a provider => reachable hierarchy
        for asn in topo.asns():
            if asn not in tier1:
                assert topo.providers(asn)

    def test_deterministic(self):
        asns = list(range(1, 101))
        a = generate_topology(asns, seed=3)
        b = generate_topology(asns, seed=3)
        assert {n: a.providers(n) for n in asns} == {n: b.providers(n) for n in asns}

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_topology([1, 2, 3], tier1_count=8)

    def test_full_reachability_from_stubs(self):
        asns = list(range(1, 201))
        topo = generate_topology(asns, seed=1)
        paths = everywhere(topo, asns[-1])  # a stub announces
        assert len(paths) == len(asns)  # everyone has a route


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=30, max_value=120))
def test_generated_paths_always_valley_free(seed, size):
    asns = list(range(1, size + 1))
    topo = generate_topology(asns, seed=seed)
    origin = asns[-1]
    for path in everywhere(topo, origin).values():
        assert validate_valley_free(topo, path)


_RECIPES = {
    "transit-hierarchy": generate_topology,
    "flat-ixp-heavy": generate_ixp_topology,
    "regional-internet": generate_regional_topology,
}


def _vantage_sets(topo):
    """Strategy over vantage sets: stubs, tier-1s, the empty set, ASNs
    absent from the topology, every AS, and mixes of them."""
    asns = sorted(topo.asns())
    stubs = sorted(a for a in asns if topo.is_stub(a))
    tier1s = sorted(topo.tier1s())
    foreign = st.integers(min_value=asns[-1] + 1, max_value=asns[-1] + 500)
    return st.one_of(
        st.just(frozenset()),
        st.just(frozenset(asns)),
        st.frozensets(st.sampled_from(stubs), min_size=1),
        st.frozensets(st.sampled_from(tier1s), min_size=1),
        st.frozensets(foreign, min_size=1, max_size=4),
        st.frozensets(st.sampled_from(asns) | foreign, max_size=40),
    )


@pytest.mark.parametrize("recipe", sorted(_RECIPES))
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=60, max_value=160),
    data=st.data(),
)
def test_restricted_sweep_matches_unrestricted(recipe, seed, size, data):
    """The vantage-restricted sweep returns exactly the unrestricted
    sweep's vantage entries, in the same order, whether its reach is
    fresh or already filled in by sweeps towards other announcers."""
    asns = list(range(1, size + 1))
    topo = _RECIPES[recipe](asns, seed=seed)
    announcers = data.draw(
        st.lists(st.sampled_from(asns + [size + 1]), min_size=1, max_size=6),
        label="announcers",
    )
    for _ in range(3):
        vantages = data.draw(_vantage_sets(topo), label="vantages")
        shared = VantageReach(topo, vantages)
        for announcer in announcers:
            want = [
                (v, p)
                for v, p in _reference_best_paths(topo, announcer).items()
                if v in vantages
            ]
            assert list(best_paths(topo, announcer, shared).items()) == want
            fresh = VantageReach(topo, vantages)
            assert list(best_paths(topo, announcer, fresh).items()) == want


def _single_provider(topo, asn):
    """The provider of a single-homed stub (one provider, no peers, no
    customers), else None."""
    providers = topo.providers(asn)
    if len(providers) != 1 or topo.peers(asn) or topo.customers(asn):
        return None
    return next(iter(providers))


@pytest.mark.parametrize("recipe", sorted(_RECIPES))
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=60, max_value=160),
    data=st.data(),
)
def test_oracle_derives_single_homed_stubs_exactly(recipe, seed, size, data):
    """The oracle's map for a single-homed stub, derived from its
    provider's sweep, equals the unrestricted sweep's vantage entries in
    the same order; the oracle sweeps once per routing root."""
    asns = list(range(1, size + 1))
    topo = _RECIPES[recipe](asns, seed=seed)
    single_homed = [a for a in asns if _single_provider(topo, a) is not None]
    assume(single_homed)
    stubs = data.draw(
        st.lists(st.sampled_from(single_homed), min_size=1, max_size=4),
        label="stubs",
    )
    others = data.draw(
        st.lists(st.sampled_from(asns + [size + 1]), max_size=4), label="others"
    )
    announcers = data.draw(st.permutations(stubs + others), label="announcers")
    for _ in range(3):
        vantages = data.draw(
            st.one_of(
                _vantage_sets(topo),
                st.frozensets(st.sampled_from(asns), max_size=20).map(
                    lambda vs: vs | set(stubs)
                ),
            ),
            label="vantages",
        )
        oracle = PathOracle(topo, vantages)
        roots = set()
        for announcer in announcers:
            want = [
                (v, p)
                for v, p in _reference_best_paths(topo, announcer).items()
                if v in vantages
            ]
            assert list(oracle.paths_for(announcer).items()) == want
            provider = _single_provider(topo, announcer)
            roots.add(announcer if provider is None else provider)
        assert oracle.sweeps == len(roots)
