"""Columnar activity engine vs. the object-stream pipeline.

The engine's contract is byte-identical output: for any scenario, the
per-ASN :class:`OperationalActivity` tables it derives from announcement
diffs must equal what streaming every day through ``SyntheticBgpStream``
→ ``sanitize`` → ``peer_visibility`` produces.  The property test
drives both paths over seeded scenarios that include the §6 anomaly
decorations (forged origins, single-peer spurious data, corrupted
loops, prepends) and unroutable prefix lengths, under both the paper's
``min_corroboration=2`` and the ablation's ``1``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    Announcement,
    AsTopology,
    Collector,
    PathOracle,
    SyntheticBgpStream,
    all_peer_asns,
    decorate_path,
    path_has_loop,
    sanitize,
)
from repro.bgp.activity import (
    ActivityEngine,
    ContributionIndex,
    build_activity_tables,
    build_world_activity_tables,
    schedule_from_day_source,
    schedule_from_world,
)
from repro.bgp.sanitize import SanitizeStats
from repro.lifetimes.bgp import (
    activity_from_elements,
    build_bgp_lifetimes,
    build_operational_dataset,
)
from repro.net import Prefix
from repro.runtime import ArtifactCache, MetricsRegistry, Tracer
from repro.scenario import NAMED_SCENARIOS
from repro.simulation.config import tiny
from repro.simulation.world import WorldSimulator

P1 = Prefix.parse("10.0.0.0/16")
P2 = Prefix.parse("10.1.0.0/16")
BAD_LEN = Prefix.parse("10.2.0.0/25")


def _build_small_world():
    topo = AsTopology()
    topo.add_p2p(10, 20)
    topo.add_p2c(10, 100)
    topo.add_p2c(20, 200)
    topo.add_p2c(100, 1001)
    topo.add_p2c(200, 2001)
    collectors = [
        Collector("route-views", "routeviews", (10, 100)),
        Collector("rrc00", "ris", (20, 200)),
    ]
    return topo, collectors


#: Shared read-only topology: nothing in the pipeline mutates it, and
#: hypothesis forbids function-scoped fixtures under @given.
SMALL_WORLD = _build_small_world()

#: The same topology with the single-homed stubs 1001 and 2001 among
#: the collector peers, so a stub announcer can see itself.
STUB_PEER_WORLD = (
    SMALL_WORLD[0],
    [
        Collector("route-views", "routeviews", (10, 100, 1001)),
        Collector("rrc00", "ris", (20, 200, 1001, 2001)),
    ],
)


@pytest.fixture
def small_world():
    return SMALL_WORLD


def legacy_tables(topo, collectors, day_source, start, end, min_corroboration):
    """The object-stream reference path, day by day."""
    stream = SyntheticBgpStream(topo, collectors, day_source)
    elements_by_day = {
        day: list(sanitize(stream.elements_for_day(day)))
        for day in range(start, end + 1)
    }
    return activity_from_elements(
        elements_by_day, min_corroboration=min_corroboration
    )


# -- building blocks ---------------------------------------------------------


class TestDecoratePath:
    def test_decorate_path_matches_stream(self):
        ann = Announcement(1001, P1, forged_origin=65001, prepend=2)
        assert decorate_path((10, 100, 1001), ann) == (
            10, 100, 1001, 65001, 65001, 65001,
        )
        loop = Announcement(1001, P1, corrupt_loop=True)
        assert decorate_path((10, 100, 1001), loop) == (10, 100, 1001, 10)


class TestEngineGuards:
    def test_days_must_ascend(self, small_world):
        topo, collectors = small_world
        engine = ActivityEngine(topo, collectors)
        engine.apply(5, [Announcement(1001, P1)])
        with pytest.raises(ValueError):
            engine.apply(5, [Announcement(2001, P2)])

    def test_cannot_remove_more_than_live(self, small_world):
        topo, collectors = small_world
        engine = ActivityEngine(topo, collectors)
        engine.apply(5, [Announcement(1001, P1)])
        with pytest.raises(ValueError):
            engine.apply(6, removed=[Announcement(1001, P1)] * 2)

    def test_load_needs_empty_counters(self, small_world):
        topo, collectors = small_world
        engine = ActivityEngine(topo, collectors)
        engine.apply(5, [Announcement(1001, P1)])
        with pytest.raises(ValueError):
            engine.load(6, [(Announcement(2001, P2), 1)])
        # an engine whose live multiset emptied again loads like a new one
        engine.apply(6, removed=[Announcement(1001, P1)])
        engine.load(8, [(Announcement(2001, P2), 1)])
        fresh = ActivityEngine(topo, collectors)
        fresh.apply(5, [Announcement(1001, P1)])
        fresh.apply(6, removed=[Announcement(1001, P1)])
        fresh.apply(8, [Announcement(2001, P2)])
        assert engine.finish(10) == fresh.finish(10)

    def test_rejected_diff_changes_nothing(self):
        """A diff that removes more than is live raises before it moves
        any state: live multiset, counters, runs, sanitize totals or the
        last day; the engine then ends where one that never saw it
        does."""
        world = WorldSimulator(tiny(3)).run()
        end = world.config.end_day
        schedule = schedule_from_world(world, end - 120, end)
        live_ann, _ = schedule.base[0]
        bad_day, added, removed = schedule.changes[0]

        engine = ActivityEngine(world.topology, world.collectors)
        engine.load(schedule.start, schedule.base)
        before = _engine_state(engine)
        with pytest.raises(ValueError):
            engine.apply(
                bad_day, Counter(dict(added)),
                Counter(dict(removed)) + Counter({live_ann: 5}),
            )
        assert _engine_state(engine) == before

        for day, added, removed in schedule.changes:
            engine.apply(day, Counter(dict(added)), Counter(dict(removed)))
        clean = ActivityEngine(world.topology, world.collectors)
        assert engine.finish(end) == clean.replay(schedule)
        assert (engine.kept, engine.dropped) == (clean.kept, clean.dropped)

    def test_negative_counts_are_rejected(self, small_world):
        topo, collectors = small_world
        engine = ActivityEngine(topo, collectors)
        with pytest.raises(ValueError):
            engine.apply(5, Counter({Announcement(1001, P1): -1}))
        with pytest.raises(ValueError):
            engine.load(5, [(Announcement(1001, P1), -1)])
        assert _engine_state(engine) == _engine_state(
            ActivityEngine(topo, collectors)
        )

    def test_zero_counts_are_ignored(self, small_world):
        """A zero count in a passed Counter is no change, not a walk
        with delta 0 (which moved visible counts off zero codes)."""
        topo, collectors = small_world
        engine, plain = ActivityEngine(topo, collectors), ActivityEngine(topo, collectors)
        engine.apply(0, Counter({Announcement(1001, P1): 1, Announcement(2001, P1): 0}))
        plain.apply(0, [Announcement(1001, P1)])
        assert _engine_state(engine) == _engine_state(plain)
        assert engine.finish(3) == plain.finish(3)


def _engine_state(engine):
    """Everything :meth:`ActivityEngine.apply` may move, as plain values."""
    return (
        dict(engine._live),
        engine._counts.tolist(),
        engine._visible.tolist(),
        dict(engine._run_class),
        dict(engine._run_start),
        {slot: list(runs) for slot, runs in engine._runs.items()},
        engine._last_day,
        engine._rate_kept,
        +engine._rate_dropped,
        engine.kept,
        +engine.dropped,
    )


# -- the equivalence property ------------------------------------------------

ANNOUNCEMENT = st.builds(
    Announcement,
    announcer=st.sampled_from([1001, 2001, 100, 200]),
    prefix=st.sampled_from([P1, P2, BAD_LEN]),
    forged_origin=st.sampled_from([None, None, 65001, 1001]),
    prepend=st.sampled_from([0, 0, 2]),
    only_peer=st.sampled_from([None, None, None, 10]),
    corrupt_loop=st.booleans(),
)

#: (announcement, first_day, duration) episodes over a ~3-week window.
SCENARIO = st.lists(
    st.tuples(
        ANNOUNCEMENT, st.integers(min_value=0, max_value=18),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=0,
    max_size=12,
)


def day_source_from_episodes(episodes):
    by_day = {}
    for ann, first, duration in episodes:
        for day in range(first, first + duration):
            by_day.setdefault(day, []).append(ann)
    return lambda day: by_day.get(day, [])


WORLDS = st.sampled_from([SMALL_WORLD, STUB_PEER_WORLD])


class TestColumnarEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        episodes=SCENARIO,
        min_corroboration=st.sampled_from([1, 2]),
        world=WORLDS,
    )
    def test_matches_object_stream(self, episodes, min_corroboration, world):
        topo, collectors = world
        source = day_source_from_episodes(episodes)
        start, end = 0, 30
        expected = legacy_tables(
            topo, collectors, source, start, end, min_corroboration
        )
        tables, report = build_activity_tables(
            topo, collectors, source, start, end,
            min_corroboration=min_corroboration,
        )
        assert tables == expected
        assert report.days == end - start + 1

    @settings(max_examples=20, deadline=None)
    @given(episodes=SCENARIO, world=WORLDS)
    def test_sanitize_accounting_matches(self, episodes, world):
        """Day-weighted kept/dropped counters equal per-element counts."""
        topo, collectors = world
        source = day_source_from_episodes(episodes)
        start, end = 0, 30
        stream = SyntheticBgpStream(topo, collectors, source)
        stats = SanitizeStats()
        for day in range(start, end + 1):
            for _ in sanitize(stream.elements_for_day(day), stats):
                pass
        _, report = build_activity_tables(
            topo, collectors, source, start, end,
        )
        assert report.kept == stats.kept
        assert report.dropped == stats.dropped

    def test_schedule_diffs_are_minimal(self, small_world):
        source = day_source_from_episodes(
            [(Announcement(1001, P1), 2, 5), (Announcement(2001, P2), 4, 2)]
        )
        schedule = schedule_from_day_source(source, 0, 10)
        assert Counter(dict(schedule.base)) == Counter()
        changed = {day for day, _, _ in schedule.changes}
        # the multiset changes exactly when an episode starts or ends
        assert changed == {2, 4, 6, 7}


#: A first-day multiset: every decoration, only-peer and non-routable
#: announcements, and multiplicities above one (weighted counters).
BASE = st.lists(
    st.tuples(ANNOUNCEMENT, st.integers(min_value=1, max_value=4)),
    max_size=10,
    unique_by=lambda item: item[0],
)


def _record_commits(engine):
    """The touched slots of each of ``engine``'s commits, in order."""
    commits = []
    commit = engine._commit

    def record(day, touched):
        commits.append(set(touched))
        commit(day, touched)

    engine._commit = record
    return commits


class TestBulkLoad:
    """:meth:`ActivityEngine.load` (one histogram of the joined code
    buffers) leaves the engine exactly where the per-code walk of
    :meth:`ActivityEngine.apply` does, and both go on alike."""

    @settings(max_examples=60, deadline=None)
    @given(
        base=BASE, later=BASE,
        min_corroboration=st.sampled_from([1, 2]), world=WORLDS,
    )
    def test_load_equals_walk(self, base, later, min_corroboration, world):
        topo, collectors = world
        walk, bulk = (
            ActivityEngine(topo, collectors, min_corroboration=min_corroboration)
            for _ in range(2)
        )
        walked, loaded = _record_commits(walk), _record_commits(bulk)
        walk.apply(0, Counter(dict(base)))
        bulk.load(0, base)
        assert _engine_state(bulk) == _engine_state(walk)
        assert loaded == walked
        assert list(bulk.index.slots) == list(walk.index.slots)
        assert list(bulk.index._cache) == list(walk.index._cache)

        for engine in (walk, bulk):
            engine.apply(4, Counter(dict(later)))
            engine.apply(9, removed=Counter(dict(base)))
        assert loaded == walked
        assert bulk.finish(12) == walk.finish(12)
        assert (bulk.kept, +bulk.dropped) == (walk.kept, +walk.dropped)


class TestWorldPipeline:
    @pytest.fixture(scope="class")
    def world(self):
        return WorldSimulator(tiny(11)).run()

    @pytest.fixture(scope="class")
    def window(self, world):
        end = world.config.end_day
        return end - 120, end

    def test_world_engines_agree(self, world, window):
        start, end = window
        columnar, _ = build_world_activity_tables(world, start=start, end=end)
        generic, _ = build_activity_tables(
            world.topology, world.collectors, world.announcements_for_day,
            start, end,
        )
        expected = legacy_tables(
            world.topology, world.collectors, world.announcements_for_day,
            start, end, 2,
        )
        assert columnar == expected
        assert generic == expected

    def test_operational_dataset_engines_agree(self, world, window):
        """The production dataset equals the object-stream oracle's
        tables segmented by :func:`build_bgp_lifetimes`, order included."""
        start, end = window
        expected_tables = legacy_tables(
            world.topology, world.collectors, world.announcements_for_day,
            start, end, 2,
        )
        for min_peers in (1, 2):
            lives, tables = build_operational_dataset(
                world, start=start, end=end, min_peers=min_peers,
            )
            expected_lives = build_bgp_lifetimes(
                expected_tables, min_peers=min_peers, end_day=end,
                metrics=MetricsRegistry(),
            )
            assert tables == expected_tables
            assert list(tables) == sorted(expected_tables)
            assert lives == expected_lives
            assert list(lives) == list(expected_lives)

    def test_routing_is_attributed_to_its_stage(self, world, window):
        """The engine reports its routing sweeps on ``bgp:sanitize``, the
        stage that runs them, and sweeps as often as the object-stream
        oracle does over the same window."""
        start, end = window
        tracer = Tracer()
        build_operational_dataset(world, start=start, end=end, tracer=tracer)
        span = next(s for s in tracer.stage_spans()
                    if s.name == "bgp:sanitize")
        assert 0.0 < span.attrs["routing_s"] <= span.seconds + 1e-6
        sweeps = span.attrs["routing_sweeps"]
        assert tracer.metrics.counter("bgp.routing.sweeps").value == sweeps
        others = [s for s in tracer.stage_spans()
                  if s.name != "bgp:sanitize" and "routing_sweeps" in s.attrs]
        assert not others

        stream = SyntheticBgpStream(
            world.topology, world.collectors, world.announcements_for_day
        )
        for day in range(start, end + 1):
            for _ in stream.elements_for_day(day):
                pass
        # one sweep per distinct routing root of the window, engine and
        # oracle alike: a single-homed stub announcer routes through its
        # provider's sweep, any other announcer through its own
        topo = world.topology
        announcers = {
            ann.announcer
            for day in range(start, end + 1)
            for ann in world.announcements_for_day(day)
        }
        roots = set()
        for a in announcers:
            providers = topo.providers(a)
            if len(providers) == 1 and not topo.peers(a) and not topo.customers(a):
                roots |= providers
            else:
                roots.add(a)
        assert len(roots) < len(announcers)
        assert sweeps == len(roots)
        assert stream.oracle.sweeps == len(roots)

    def test_cache_warm_start_skips_stream_stages(self, world, window,
                                                  tmp_path):
        start, end = window
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        cold_tracer = Tracer()
        cold_lives, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, tracer=cold_tracer,
        )
        assert {"bgp:stream", "bgp:sanitize", "bgp:visibility"} <= {
            s.name for s in cold_tracer.stage_spans()
        }

        warm_tracer = Tracer()
        warm_lives, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, tracer=warm_tracer,
        )
        counters = warm_tracer.metrics.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert [s.name for s in warm_tracer.stage_spans()] == [
            "cache:lookup", "bgp:segment",
        ]
        assert warm_lives == cold_lives

    def test_segmentation_params_outside_cache_key(self, world, window,
                                                   tmp_path):
        start, end = window
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        build_operational_dataset(world, start=start, end=end, cache=cache)
        run = Tracer()
        relaxed, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, timeout=5, min_peers=1,
            tracer=run,
        )
        # timeout/min_peers re-segment a cached table
        assert run.metrics.snapshot()["counters"]["cache.hits"] == 1
        strict, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, timeout=5, min_peers=2,
        )
        # min_peers=1 folds single-peer days in, so it can only add lives
        assert len(relaxed) >= len(strict)


# -- the five library scenarios ---------------------------------------------


@pytest.fixture(scope="module", params=sorted(NAMED_SCENARIOS))
def scenario_world(request):
    return WorldSimulator(NAMED_SCENARIOS[request.param].compile()).run()


def _plain(ann):
    return (
        ann.forged_origin is None
        and not ann.prepend
        and not ann.corrupt_loop
        and ann.only_peer is None
    )


class TestPlainFanouts:
    def test_routed_paths_repeat_no_asn(self, scenario_world):
        """Valley-free routes are simple paths, so a plain announcement
        needs no loop check and its ASNs need no dedup."""
        world = scenario_world
        oracle = PathOracle(world.topology, all_peer_asns(world.collectors))
        for announcer in world.topology.asns():
            for path in oracle.paths_for(announcer).values():
                assert len(set(path)) == len(path), path
                assert not path_has_loop(path)

    def test_plain_codes_equal_expanded_paths(self, scenario_world):
        """Every plain announcer's codes and ``kept``, single-homed stubs'
        derived from their provider's, equal what expanding its routed
        paths element by element gives."""
        world = scenario_world
        config = world.config
        schedule = schedule_from_world(world, config.start_day, config.end_day)
        announced = [ann for ann, _ in schedule.base] + [
            ann for _, added, _ in schedule.changes for ann, _ in added
        ]
        announcers = sorted({a.announcer for a in announced if _plain(a)})
        stubs = _check_plain_codes(world.topology, world.collectors, announcers)
        assert stubs

    def test_stub_peer_sees_itself_over_one_hop(self):
        """A single-homed stub that is a collector peer: its own entry
        is the one-hop path, not its provider's path to it."""
        topo, collectors = STUB_PEER_WORLD
        assert _check_plain_codes(topo, collectors, [1001, 2001, 100, 200]) == 2


def _check_plain_codes(topo, collectors, announcers):
    """Assert each announcer's plain contribution equals its expanded
    ``paths_for`` map; returns how many were single-homed stubs."""
    index = ContributionIndex(topo, collectors)
    n_peers = index.n_peers
    peer_index = {peer: i for i, peer in enumerate(index.peers)}
    listings = Counter(p for c in collectors for p in c.peer_asns)
    stubs = 0
    for announcer in announcers:
        contrib = index.contribution(Announcement(announcer, P1))
        stubs += index.oracle.single_provider(announcer) is not None
        paths = index.oracle.paths_for(announcer)
        expected = {
            index.slots[asn] * n_peers + peer_index[peer]
            for peer, path in paths.items()
            for asn in path
        }
        assert len(contrib.codes) == len(expected), announcer
        assert set(contrib.codes) == expected, announcer
        assert contrib.kept == sum(listings[peer] for peer in paths)
        assert contrib.dropped == ()
    return stubs


def test_store_build_window_report_is_pinned():
    """The 30-day ``mass-transfer`` window: one contribution per
    announcement, one sweep per routing root, and the element counts
    of the object stream."""
    scenario = NAMED_SCENARIOS["mass-transfer"]
    world = WorldSimulator(scenario.compile()).run()
    end = world.config.end_day
    _tables, report = build_world_activity_tables(world, start=end - 29, end=end)
    assert report.contributions == 897
    assert report.routing_sweeps == 426
    assert (report.elements, report.kept) == (959_292, 959_292)
    assert report.dropped == {}
