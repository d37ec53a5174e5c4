"""Tests for §4.2 BGP lifetimes, sensitivity sweep, and dataset I/O."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lifetimes import (
    AdminLifetime,
    BgpLifetime,
    OperationalActivity,
    build_bgp_lifetimes,
    dump_admin_dataset,
    dump_bgp_dataset,
    fraction_one_or_less_op_life,
    gap_cdf,
    gap_distribution,
    lifetimes_from_activity,
    load_admin_dataset,
    load_bgp_dataset,
    sweep_timeouts,
)
from repro.runtime import MetricsRegistry
from repro.timeline import Interval, IntervalSet, from_iso

D = from_iso("2010-01-01")
END = from_iso("2020-01-01")


def activity(observed_intervals, single=()):
    return OperationalActivity(
        asn=100,
        observed=IntervalSet([Interval(*p) for p in observed_intervals]),
        single_peer=IntervalSet([Interval(*p) for p in single]),
    )


class TestSegmentation:
    def test_short_gap_bridged(self):
        act = activity([(D, D + 10), (D + 31, D + 40)])  # gap of 20 days
        lives = lifetimes_from_activity(100, act.active_days(), timeout=30, end_day=END)
        assert len(lives) == 1
        assert (lives[0].start, lives[0].end) == (D, D + 40)

    def test_long_gap_splits(self):
        act = activity([(D, D + 10), (D + 42, D + 50)])  # gap of 31 days
        lives = lifetimes_from_activity(100, act.active_days(), timeout=30, end_day=END)
        assert len(lives) == 2

    def test_gap_exactly_timeout_bridged(self):
        # "reappears after > 30 days of inactivity" -> 30 itself merges
        act = activity([(D, D + 10), (D + 41, D + 50)])  # gap of exactly 30
        lives = lifetimes_from_activity(100, act.active_days(), timeout=30, end_day=END)
        assert len(lives) == 1

    def test_open_ended_near_window_end(self):
        act = activity([(END - 10, END - 5)])
        lives = lifetimes_from_activity(100, act.active_days(), timeout=30, end_day=END)
        assert lives[0].open_ended

    def test_closed_when_far_from_window_end(self):
        act = activity([(D, D + 10)])
        lives = lifetimes_from_activity(100, act.active_days(), timeout=30, end_day=END)
        assert not lives[0].open_ended


class TestVisibilityThreshold:
    def test_single_peer_days_excluded_by_default(self):
        act = activity([(D, D + 10)], single=[(D + 100, D + 105)])
        lives = build_bgp_lifetimes({100: act}, end_day=END, metrics=MetricsRegistry())
        assert len(lives[100]) == 1

    def test_min_peers_1_includes_spurious(self):
        act = activity([(D, D + 10)], single=[(D + 100, D + 105)])
        lives = build_bgp_lifetimes(
            {100: act}, min_peers=1, end_day=END, metrics=MetricsRegistry()
        )
        assert len(lives[100]) == 2

    def test_silent_asn_absent(self):
        act = OperationalActivity(asn=100)
        lives = build_bgp_lifetimes({100: act}, end_day=END, metrics=MetricsRegistry())
        assert lives == {}

    def test_rejects_bad_threshold(self):
        act = activity([(D, D)])
        with pytest.raises(ValueError):
            act.active_days(min_peers=0)


class TestSensitivity:
    def make_world(self):
        activities = {
            1: OperationalActivity(
                1, IntervalSet([Interval(D, D + 9), Interval(D + 30, D + 39),
                                Interval(D + 400, D + 420)])
            ),
            2: OperationalActivity(2, IntervalSet([Interval(D, D + 500)])),
        }
        admin = {
            1: [AdminLifetime(1, D - 10, D + 600, D - 10, ("ripencc",))],
            2: [AdminLifetime(2, D - 10, D + 600, D - 10, ("arin",))],
        }
        return admin, activities

    def test_gap_distribution(self):
        _, activities = self.make_world()
        gaps = gap_distribution(activities)
        assert gaps == [20, 360]

    def test_gap_cdf(self):
        assert gap_cdf([20, 360], 30) == pytest.approx(0.5)
        assert gap_cdf([20, 360], 360) == 1.0
        assert gap_cdf([], 30) == 1.0

    def test_fraction_one_or_less(self):
        admin, activities = self.make_world()
        # timeout 30: ASN1 has 2 op lives inside its admin life
        low = fraction_one_or_less_op_life(admin, activities, timeout=30, end_day=END)
        # timeout 365: everything merges to 1 op life
        high = fraction_one_or_less_op_life(admin, activities, timeout=365, end_day=END)
        assert low == pytest.approx(0.5)
        assert high == 1.0

    def test_sweep_monotone(self):
        admin, activities = self.make_world()
        rows = sweep_timeouts(admin, activities, [5, 30, 365], end_day=END)
        coverages = [r.gap_coverage for r in rows]
        assert coverages == sorted(coverages)
        totals = [r.total_op_lifetimes for r in rows]
        assert totals == sorted(totals, reverse=True)


class TestIO:
    def test_admin_roundtrip(self, tmp_path):
        lives = {
            205334: [
                AdminLifetime(
                    205334,
                    from_iso("2017-09-20"),
                    from_iso("2021-02-11"),
                    from_iso("2017-09-20"),
                    ("ripencc",),
                )
            ]
        }
        path = tmp_path / "admin.json"
        assert dump_admin_dataset(lives, path) == 1
        loaded = load_admin_dataset(path)
        life = loaded[205334][0]
        assert life.start == from_iso("2017-09-20")
        assert life.end == from_iso("2021-02-11")
        assert life.registry == "ripencc"

    def test_bgp_roundtrip(self, tmp_path):
        lives = {
            205334: [
                BgpLifetime(205334, from_iso("2017-10-05"), from_iso("2017-10-23"))
            ]
        }
        path = tmp_path / "bgp.json"
        assert dump_bgp_dataset(lives, path) == 1
        loaded = load_bgp_dataset(path)
        assert loaded[205334][0].duration == 19

    def test_listing1_exact_schema(self, tmp_path):
        import json

        lives = {
            205334: [
                AdminLifetime(
                    205334,
                    from_iso("2017-09-20"),
                    from_iso("2021-02-11"),
                    from_iso("2017-09-20"),
                    ("ripencc",),
                )
            ]
        }
        path = tmp_path / "admin.json"
        dump_admin_dataset(lives, path)
        row = json.loads(path.read_text())[0]
        assert row == {
            "ASN": 205334,
            "regDate": "2017-09-20",
            "startdate": "2017-09-20",
            "enddate": "2021-02-11",
            "status": "allocated",
            "registry": "ripencc",
        }


@settings(max_examples=100)
@given(
    st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=60),
)
def test_lifetime_segmentation_properties(days, timeout):
    act = OperationalActivity(7, IntervalSet.from_days({D + d for d in days}))
    lives = lifetimes_from_activity(7, act.active_days(), timeout=timeout, end_day=END)
    # every active day falls inside exactly one lifetime
    covered = IntervalSet([l.interval for l in lives])
    assert set(act.observed.days()) <= set(covered.days())
    # lifetimes are separated by more than the timeout
    for a, b in zip(lives, lives[1:]):
        assert b.start - a.end - 1 > timeout
