"""Unit tests for the simulation sub-models (growth, countries,
behavior, organizations, prefixes, anomaly planning)."""

import random

import pytest

from repro.bgp import (
    FAT_FINGER_DIGIT,
    FAT_FINGER_PREPEND,
    INTERNAL_LEAK,
    NOISE_ORIGIN,
    SQUAT_DORMANT,
)
from repro.scenario import get_scenario, scenario_names
from repro.simulation import (
    AnomalyPlanner,
    BehaviorModel,
    DormantTarget,
    OrgDirectory,
    PrefixPlan,
    Profile,
    WorldConfig,
    country_for,
    daily_birth_rate,
    draw_lifetime_days,
    poisson,
    tiny,
    yearly_births,
)
from repro.simulation.growth import MID_LIFE_DEATH_SHARE, SHORT_LIFE_SHARE
from repro.simulation.world import WorldSimulator
from repro.timeline import from_iso, year_of

D = from_iso("2010-01-01")
END = from_iso("2021-03-01")


class TestConfig:
    def test_scaled(self):
        config = WorldConfig(scale=0.1)
        assert config.scaled(100) == 10
        assert config.scaled(3) == 1  # at least one
        assert config.scaled(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(scale=0.0)
        with pytest.raises(ValueError):
            WorldConfig(start_day=100, end_day=50)

    def test_presets_ordered(self):
        from repro.simulation import bench

        assert tiny().scale < bench().scale


class TestGrowth:
    def test_yearly_births_ripencc_dominates_arin_late(self):
        assert yearly_births("ripencc", 2011) > yearly_births("arin", 2011)

    def test_apnic_lacnic_2014_ramp(self):
        assert yearly_births("apnic", 2016) > 1.4 * yearly_births("apnic", 2012)
        assert yearly_births("lacnic", 2016) > 1.5 * yearly_births("lacnic", 2012)

    def test_afrinic_zero_before_2005(self):
        assert yearly_births("afrinic", 2004) == 0

    def test_daily_rate_scaling(self):
        full = daily_birth_rate("ripencc", D, 1.0)
        tenth = daily_birth_rate("ripencc", D, 0.1)
        assert tenth == pytest.approx(full / 10)

    @pytest.mark.parametrize("name", scenario_names())
    def test_yearly_intensity_table_equals_the_daily_rate(self, name):
        # bit-for-bit (float ==): the table feeds every Poisson draw
        config = get_scenario(name).compile()
        sim = WorldSimulator(config)
        for day in range(config.start_day, config.end_day + 1):
            table = sim._birth_intensities(year_of(day))
            assert [(n, lam) for n, _, lam in table] == [
                (n, daily_birth_rate(n, day, config.scale)
                 * config.birth_rate_multiplier.get(n, 1.0))
                for n in sim.registries
            ]

    def test_poisson_mean(self):
        rng = random.Random(0)
        samples = [poisson(rng, 2.0) for _ in range(4000)]
        assert 1.9 < sum(samples) / len(samples) < 2.1

    def test_poisson_zero(self):
        assert poisson(random.Random(0), 0) == 0

    def test_short_life_ordering(self):
        assert SHORT_LIFE_SHARE["lacnic"] > SHORT_LIFE_SHARE["arin"]
        assert MID_LIFE_DEATH_SHARE["arin"] == max(MID_LIFE_DEATH_SHARE.values())

    def test_draw_lifetime_respects_window(self):
        rng = random.Random(1)
        for _ in range(300):
            length = draw_lifetime_days("arin", rng, days_remaining=100)
            assert length is None or length < 100

    def test_draw_lifetime_short_share(self):
        rng = random.Random(2)
        draws = [draw_lifetime_days("lacnic", rng, days_remaining=10000)
                 for _ in range(4000)]
        short = sum(1 for d in draws if d is not None and d <= 365)
        assert 0.10 < short / len(draws) < 0.16  # ~13% for LACNIC


class TestCountries:
    def test_apnic_india_rises(self):
        rng = random.Random(0)
        early = sum(country_for("apnic", 2005, rng) == "IN" for _ in range(3000))
        rng = random.Random(0)
        late = sum(country_for("apnic", 2018, rng) == "IN" for _ in range(3000))
        assert late > 2 * early

    def test_arin_us_dominates(self):
        rng = random.Random(0)
        us = sum(country_for("arin", 2010, rng) == "US" for _ in range(2000))
        assert us / 2000 > 0.85

    def test_lacnic_brazil_leads(self):
        rng = random.Random(0)
        br = sum(country_for("lacnic", 2018, rng) == "BR" for _ in range(2000))
        assert br / 2000 > 0.6

    def test_deterministic(self):
        assert [country_for("ripencc", 2012, random.Random(7)) for _ in range(5)] == [
            country_for("ripencc", 2012, random.Random(7)) for _ in range(5)
        ]


class TestOrganizations:
    def test_new_org_ids_unique(self):
        directory = OrgDirectory()
        a = directory.new_org("arin", "US")
        b = directory.new_org("arin", "US")
        assert a.org_id != b.org_id
        assert len(directory) == 2

    def test_nir_prefix(self):
        directory = OrgDirectory()
        org = directory.new_org("apnic", "JP", nir=True)
        assert org.org_id.startswith("NIR-")

    def test_sibling_map(self):
        directory = OrgDirectory()
        org = directory.new_org("arin", "US")
        directory.attach(org, 100)
        directory.attach(org, 101)
        assert directory.sibling_map()[org.org_id] == [100, 101]
        assert org.is_sibling_org

    def test_random_existing_empty(self):
        directory = OrgDirectory()
        assert directory.random_existing("arin", random.Random(0)) is None


class TestPrefixPlan:
    def test_own_prefix_stable(self):
        plan = PrefixPlan()
        assert plan.own_prefix(100) == plan.own_prefix(100)

    def test_own_prefixes_distinct(self):
        plan = PrefixPlan()
        seen = {plan.own_prefix(asn) for asn in range(1, 2000)}
        assert len(seen) == 1999

    def test_hijack_prefixes_fresh(self):
        plan = PrefixPlan()
        a = plan.hijack_prefixes(3)
        b = plan.hijack_prefixes(3)
        assert not set(a) & set(b)

    def test_leak_pair_containment(self):
        plan = PrefixPlan()
        covering, leaked = plan.leak_pair()
        assert covering.strictly_contains(leaked)


class TestBehaviorModel:
    def make(self, seed=0, **overrides):
        return BehaviorModel(tiny().with_overrides(**overrides), random.Random(seed))

    def test_unused_probability_country_multiplier(self):
        model = self.make()
        assert model.unused_probability("CN", hoarder=False, via_nir=False) > \
            3 * model.unused_probability("US", hoarder=False, via_nir=False)

    def test_hoarders_mostly_unused(self):
        model = self.make()
        assert model.unused_probability("US", hoarder=True, via_nir=False) == \
            pytest.approx(0.7)

    def test_unused_capped(self):
        model = self.make(unused_probability=0.5)
        assert model.unused_probability("CN", hoarder=False, via_nir=False) <= 0.97

    def test_normal_life_within_bounds(self):
        model = self.make()
        for _ in range(50):
            b = model.behavior_for_life(
                start=D, end=D + 2000, window_end=END,
                reclaim_median=300, cc="US",
            )
            if b.profile == Profile.UNUSED or b.dangling:
                continue
            span = b.activity.span
            if span is None:
                continue
            if not b.early_start:
                assert span.start >= D
            if span.end > D + 2000:
                # only ghost bursts may exceed the admin end
                assert span.end <= END

    def test_conference_many_intervals(self):
        model = self.make()
        b = model.behavior_for_life(
            start=D, end=None, window_end=END,
            reclaim_median=300, cc="ZA", conference=True,
        )
        assert b.profile == Profile.CONFERENCE
        assert len(b.activity) > 10

    def test_retired_leaves_dormant_tail(self):
        found = False
        for seed in range(40):
            model = self.make(seed=seed)
            b = model.behavior_for_life(
                start=D, end=None, window_end=END,
                reclaim_median=300, cc="US",
            )
            if b.dormant_from is not None:
                found = True
                assert b.dormant_from <= END
                assert b.activity.span.end < b.dormant_from
        assert found

    def test_spurious_days_inside_window(self):
        model = self.make()
        days = model.spurious_days(D, D + 100)
        assert all(D <= d <= D + 100 for d in days.days())


class TestAnomalyPlanner:
    def make_planner(self, seed=0):
        return AnomalyPlanner(
            config=tiny().with_overrides(scale=1.0),
            rng=random.Random(seed),
            prefixes=PrefixPlan(),
            window_end=END,
        )

    def test_dormant_squats_signature(self):
        planner = self.make_planner()
        targets = [
            DormantTarget(asn=100 + i, silent_from=D, silent_to=END,
                          admin_start=D - 2000, admin_end=END)
            for i in range(80)
        ]
        planner.plan_dormant_squats(targets, factories=[9999])
        events = [e for e in planner.events if e.kind == SQUAT_DORMANT]
        assert events
        for event in events:
            assert event.interval.start - D >= 1100  # dormancy respected
            assert event.announcer == 9999
            assert event.is_forged

    def test_post_dealloc_requires_dormancy(self):
        planner = self.make_planner()
        candidates = [
            (1, D, D - 100),        # recently active: skipped
            (2, D, D - 5000),       # long-dormant: eligible
            (3, D, None),           # never active: eligible
        ]
        planner.plan_post_dealloc_squats(candidates, factories=[9999])
        squatted = {e.origin for e in planner.events}
        assert 1 not in squatted
        assert squatted <= {2, 3}
        assert squatted

    def test_prepend_origin_is_doubled_victim(self):
        planner = self.make_planner()
        planner.plan_fat_finger_prepends([32026], ever_allocated={32026})
        events = [e for e in planner.events if e.kind == FAT_FINGER_PREPEND]
        assert len(events) == 1
        assert events[0].origin == 3202632026
        assert events[0].announcer == 32026

    def test_prepend_skips_oversized(self):
        planner = self.make_planner()
        planner.plan_fat_finger_prepends([99999], ever_allocated={99999})
        assert not planner.events  # 9999999999 exceeds the 32-bit space

    def test_digit_typo_moas(self):
        from repro.timeline import Interval

        planner = self.make_planner()
        span = Interval(D, END - 100)
        planner.plan_fat_finger_digits([(41933, span)], ever_allocated={41933})
        events = [e for e in planner.events if e.kind == FAT_FINGER_DIGIT]
        assert len(events) == 1
        event = events[0]
        assert event.victim == 41933
        assert event.origin != 41933
        assert event.announcer == 41933  # the victim's own router typos
        # MOAS: the typo announces the victim's own prefix
        assert event.prefixes == (planner.prefixes.own_prefix(41933),)
        # the typo window falls inside the victim's activity span
        assert span.contains_interval(event.interval)

    def test_internal_leaks_are_huge_asns(self):
        planner = self.make_planner()
        planner.plan_internal_leaks([701], ever_allocated={701})
        events = [e for e in planner.events if e.kind == INTERNAL_LEAK]
        assert events
        for event in events:
            assert event.origin >= 10**8
            assert event.interval.duration >= 180

    def test_noise_origins_duration_skew(self):
        planner = self.make_planner()
        planner.plan_noise_origins([701], ever_allocated={701})
        events = [e for e in planner.events if e.kind == NOISE_ORIGIN]
        assert len(events) > 100
        one_day = sum(1 for e in events if e.interval.duration == 1)
        assert 0.35 < one_day / len(events) < 0.65

    def test_activity_additions_match_events(self):
        planner = self.make_planner()
        planner.plan_fat_finger_prepends([32026], ever_allocated={32026})
        additions = planner.activity_additions()
        event = planner.events[0]
        assert set(additions) == {event.origin}
        assert additions[event.origin].span == event.interval
