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
    PathTable,
    SyntheticBgpStream,
    active_asns,
    day_visibility,
    decorate_path,
    peer_visibility,
    sanitize,
)
from repro.bgp.activity import (
    ActivityEngine,
    build_activity_tables,
    build_world_activity_tables,
    schedule_from_day_source,
)
from repro.bgp.sanitize import SanitizeStats
from repro.lifetimes.bgp import (
    activity_from_elements,
    build_operational_dataset,
)
from repro.net import Prefix
from repro.runtime import ArtifactCache, PipelineStats
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


class TestPathTable:
    def test_interning_is_stable_and_dense(self):
        table = PathTable()
        a = table.intern((10, 100, 1001))
        b = table.intern((20, 200, 2001))
        assert (a, b) == (0, 1)
        assert table.intern((10, 100, 1001)) == a
        assert len(table) == 2
        assert table.paths[a] == (10, 100, 1001)

    def test_columns_precomputed(self):
        table = PathTable()
        pid = table.intern((10, 100, 100, 1001, 10))
        assert table.distinct[pid] == (10, 100, 1001)
        assert table.has_loop[pid]
        clean = table.intern((10, 100, 1001, 1001))
        assert not table.has_loop[clean]

    def test_decorate_path_matches_stream(self):
        ann = Announcement(1001, P1, forged_origin=65001, prepend=2)
        assert decorate_path((10, 100, 1001), ann) == (
            10, 100, 1001, 65001, 65001, 65001,
        )
        loop = Announcement(1001, P1, corrupt_loop=True)
        assert decorate_path((10, 100, 1001), loop) == (10, 100, 1001, 10)


class TestDayVisibilityShim:
    def test_matches_element_loop(self, small_world):
        topo, collectors = small_world
        anns = [Announcement(1001, P1), Announcement(2001, P2, only_peer=20)]
        stream = SyntheticBgpStream(topo, collectors, lambda d: anns)
        elements = list(sanitize(stream.elements_for_day(5)))
        view = day_visibility(topo, collectors, anns)
        assert peer_visibility(view) == peer_visibility(elements)
        for min_peers in (1, 2):
            assert active_asns(view, min_peers=min_peers) == active_asns(
                elements, min_peers=min_peers
            )

    def test_threshold_still_validated(self, small_world):
        topo, collectors = small_world
        view = day_visibility(topo, collectors, [Announcement(1001, P1)])
        with pytest.raises(ValueError):
            active_asns(view, min_peers=0)


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

    def test_unknown_engine_rejected(self):
        world = WorldSimulator(tiny(5)).run()
        with pytest.raises(ValueError):
            build_operational_dataset(world, engine="hexagonal")


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


class TestColumnarEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(episodes=SCENARIO, min_corroboration=st.sampled_from([1, 2]))
    def test_matches_object_stream(self, episodes, min_corroboration):
        topo, collectors = SMALL_WORLD
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
    @given(episodes=SCENARIO)
    def test_rebuild_policy_invariant(self, episodes):
        """The full-rebuild valve never changes output."""
        topo, collectors = SMALL_WORLD
        source = day_source_from_episodes(episodes)
        start, end = 0, 30
        reference, _ = build_activity_tables(
            topo, collectors, source, start, end,
        )
        always_rebuild, _ = build_activity_tables(
            topo, collectors, source, start, end, full_rebuild_fraction=0.0,
        )
        never_rebuild, _ = build_activity_tables(
            topo, collectors, source, start, end,
            full_rebuild_fraction=1e9,
        )
        assert always_rebuild == reference
        assert never_rebuild == reference

    @settings(max_examples=20, deadline=None)
    @given(episodes=SCENARIO)
    def test_sanitize_accounting_matches(self, episodes):
        """Day-weighted kept/dropped counters equal per-element counts."""
        topo, collectors = SMALL_WORLD
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
        start, end = window
        for min_peers in (1, 2):
            col_lives, col_tables = build_operational_dataset(
                world, start=start, end=end, engine="columnar",
                min_peers=min_peers,
            )
            obj_lives, obj_tables = build_operational_dataset(
                world, start=start, end=end, engine="object",
                min_peers=min_peers,
            )
            assert col_tables == obj_tables
            assert col_lives == obj_lives
            assert list(col_lives) == list(obj_lives)

    def test_cache_warm_start_skips_stream_stages(self, world, window,
                                                  tmp_path):
        start, end = window
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        cold_stats = PipelineStats()
        cold_lives, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, stats=cold_stats,
        )
        assert {"bgp:stream", "bgp:sanitize", "bgp:visibility"} <= {
            s.name for s in cold_stats.stages
        }

        warm_stats = PipelineStats()
        warm_lives, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, stats=warm_stats,
        )
        assert cache.hits == 1
        assert [s.name for s in warm_stats.stages] == [
            "cache:lookup", "bgp:segment",
        ]
        assert warm_lives == cold_lives

        # the object engine serves from the same entry: the key holds
        # the *output* contract, not the engine that built it
        cross_stats = PipelineStats()
        cross_lives, _ = build_operational_dataset(
            world, start=start, end=end, engine="object", cache=cache,
            stats=cross_stats,
        )
        assert cache.hits == 2
        assert [s.name for s in cross_stats.stages] == [
            "cache:lookup", "bgp:segment",
        ]
        assert cross_lives == cold_lives

    def test_segmentation_params_outside_cache_key(self, world, window,
                                                   tmp_path):
        start, end = window
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        build_operational_dataset(world, start=start, end=end, cache=cache)
        relaxed, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, timeout=5, min_peers=1,
        )
        assert cache.hits == 1  # timeout/min_peers re-segment a cached table
        strict, _ = build_operational_dataset(
            world, start=start, end=end, cache=cache, timeout=5, min_peers=2,
        )
        # min_peers=1 folds single-peer days in, so it can only add lives
        assert len(relaxed) >= len(strict)
