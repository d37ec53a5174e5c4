"""Unit and property-based tests for repro.timeline.intervals."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeline import Interval, IntervalSet


class TestInterval:
    def test_duration_inclusive(self):
        assert Interval(10, 10).duration == 1
        assert Interval(10, 19).duration == 10

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_contains_day(self):
        iv = Interval(10, 20)
        assert 10 in iv and 20 in iv and 15 in iv
        assert 9 not in iv and 21 not in iv

    def test_contains_interval(self):
        assert Interval(10, 20).contains_interval(Interval(10, 20))
        assert Interval(10, 20).contains_interval(Interval(12, 18))
        assert not Interval(10, 20).contains_interval(Interval(9, 18))
        assert not Interval(10, 20).contains_interval(Interval(12, 21))

    def test_overlaps(self):
        assert Interval(10, 20).overlaps(Interval(20, 30))
        assert not Interval(10, 20).overlaps(Interval(21, 30))
        assert Interval(10, 20).overlaps(Interval(5, 10))

    def test_touches_adjacent(self):
        assert Interval(10, 20).touches(Interval(21, 30))
        assert not Interval(10, 20).touches(Interval(22, 30))

    def test_intersection(self):
        assert Interval(10, 20).intersection(Interval(15, 25)) == Interval(15, 20)
        assert Interval(10, 20).intersection(Interval(21, 25)) is None

    def test_gap_to(self):
        assert Interval(10, 20).gap_to(Interval(25, 30)) == 4
        assert Interval(25, 30).gap_to(Interval(10, 20)) == 4
        assert Interval(10, 20).gap_to(Interval(21, 30)) == 0
        assert Interval(10, 20).gap_to(Interval(15, 30)) == 0

    def test_shift(self):
        assert Interval(10, 20).shift(5) == Interval(15, 25)
        assert Interval(10, 20).shift(-5) == Interval(5, 15)

    def test_clamp(self):
        assert Interval(10, 20).clamp(12, 30) == Interval(12, 20)
        assert Interval(10, 20).clamp(21, 30) is None

    def test_ordering_by_start(self):
        assert Interval(1, 9) < Interval(2, 3)


class TestIntervalRowContract:
    """The slotted interval keeps the frozen dataclass's behaviour."""

    def test_fields_unchanged(self):
        assert [f.name for f in dataclasses.fields(Interval)] == ["start", "end"]

    def test_every_field_is_frozen(self):
        iv = Interval(3, 9)
        for name in ("start", "end"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(iv, name, 5)
        assert not hasattr(iv, "__dict__")

    def test_validation_raises_value_error(self):
        with pytest.raises(ValueError, match="precedes start"):
            Interval(start=10, end=9)

    def test_repr_is_the_dataclass_repr(self):
        assert repr(Interval(3, 9)) == "Interval(start=3, end=9)"

    def test_pickle_and_deepcopy_round_trip(self):
        ivs = [Interval(3, 9), Interval(-2, 40)]
        for clone in (pickle.loads(pickle.dumps(ivs)), copy.deepcopy(ivs)):
            assert clone == ivs
            assert [hash(iv) for iv in clone] == [hash(iv) for iv in ivs]
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone[0].start = 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(0, 5)), min_size=1, max_size=12
    )
)
def test_interval_eq_hash_and_order_follow_the_field_tuple(pairs):
    ivs = [Interval(s, s + n) for s, n in pairs]
    tuples = [(iv.start, iv.end) for iv in ivs]
    for iv, t in zip(ivs, tuples):
        assert hash(iv) == hash(t)
    for a, ta in zip(ivs, tuples):
        for b, tb in zip(ivs, tuples):
            assert (a == b) == (ta == tb)
            assert (a < b) == (ta < tb) and (a <= b) == (ta <= tb)
            assert (a > b) == (ta > tb) and (a >= b) == (ta >= tb)
    assert [(iv.start, iv.end) for iv in sorted(ivs)] == sorted(tuples)


class TestIntervalSetBasics:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert s.total_days == 0
        assert s.span is None
        assert list(s) == []

    def test_merges_overlapping_on_construction(self):
        s = IntervalSet([Interval(10, 20), Interval(15, 25), Interval(40, 41)])
        assert s.intervals == (Interval(10, 25), Interval(40, 41))

    def test_merges_adjacent(self):
        s = IntervalSet([Interval(10, 20), Interval(21, 30)])
        assert s.intervals == (Interval(10, 30),)

    def test_canonical_equality(self):
        a = IntervalSet([Interval(1, 5), Interval(6, 9)])
        b = IntervalSet([Interval(1, 9)])
        assert a == b

    def test_from_days(self):
        s = IntervalSet.from_days([5, 1, 2, 3, 9, 10, 3])
        assert s.intervals == (Interval(1, 3), Interval(5, 5), Interval(9, 10))

    def test_from_days_empty(self):
        assert not IntervalSet.from_days([])

    def test_membership_binary_search(self):
        s = IntervalSet([Interval(1, 3), Interval(10, 12), Interval(100, 200)])
        for d in (1, 3, 11, 150, 200):
            assert d in s
        for d in (0, 4, 9, 13, 99, 201):
            assert d not in s

    def test_span_and_total(self):
        s = IntervalSet([Interval(1, 3), Interval(10, 12)])
        assert s.span == Interval(1, 12)
        assert s.total_days == 6


class TestIntervalSetAlgebra:
    def test_union(self):
        a = IntervalSet([Interval(1, 5)])
        b = IntervalSet([Interval(4, 10), Interval(20, 22)])
        assert a.union(b).intervals == (Interval(1, 10), Interval(20, 22))

    def test_intersection(self):
        a = IntervalSet([Interval(1, 10), Interval(20, 30)])
        b = IntervalSet([Interval(5, 25)])
        assert a.intersection(b).intervals == (Interval(5, 10), Interval(20, 25))

    def test_difference(self):
        a = IntervalSet([Interval(1, 10)])
        b = IntervalSet([Interval(3, 4), Interval(7, 20)])
        assert a.difference(b).intervals == (Interval(1, 2), Interval(5, 6))

    def test_difference_no_overlap(self):
        a = IntervalSet([Interval(1, 5)])
        b = IntervalSet([Interval(10, 20)])
        assert a.difference(b) == a

    def test_gaps(self):
        s = IntervalSet([Interval(1, 3), Interval(7, 8), Interval(12, 12)])
        assert s.gaps().intervals == (Interval(4, 6), Interval(9, 11))
        assert s.gap_lengths() == [3, 3]

    def test_overlap_days_and_coverage(self):
        s = IntervalSet([Interval(1, 10), Interval(21, 30)])
        window = Interval(6, 25)
        assert s.overlap_days(window) == 10
        assert s.coverage_of(window) == pytest.approx(0.5)

    def test_clamp(self):
        s = IntervalSet([Interval(1, 10), Interval(21, 30)])
        assert s.clamp(5, 24).intervals == (Interval(5, 10), Interval(21, 24))

    def test_merge_gaps_timeout_semantics(self):
        # gaps of <= max_gap merge into one operational life (paper §4.2)
        s = IntervalSet([Interval(0, 10), Interval(41, 50), Interval(82, 90)])
        merged = s.merge_gaps(30)
        assert merged.intervals == (Interval(0, 50), Interval(82, 90))

    def test_merge_gaps_zero_only_merges_adjacent(self):
        s = IntervalSet([Interval(0, 10), Interval(12, 20)])
        assert s.merge_gaps(0).intervals == (Interval(0, 10), Interval(12, 20))
        assert s.merge_gaps(1).intervals == (Interval(0, 20),)

    def test_merge_gaps_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalSet().merge_gaps(-1)

    def test_days_iteration(self):
        s = IntervalSet([Interval(1, 3), Interval(6, 6)])
        assert list(s.days()) == [1, 2, 3, 6]


# -- property-based tests against a brute-force day-set model ------------

day_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=40)


@settings(max_examples=200)
@given(day_sets, day_sets)
def test_union_matches_set_model(a_days, b_days):
    a, b = IntervalSet.from_days(a_days), IntervalSet.from_days(b_days)
    assert set(a.union(b).days()) == a_days | b_days


@settings(max_examples=200)
@given(day_sets, day_sets)
def test_intersection_matches_set_model(a_days, b_days):
    a, b = IntervalSet.from_days(a_days), IntervalSet.from_days(b_days)
    assert set(a.intersection(b).days()) == a_days & b_days


@settings(max_examples=200)
@given(day_sets, day_sets)
def test_difference_matches_set_model(a_days, b_days):
    a, b = IntervalSet.from_days(a_days), IntervalSet.from_days(b_days)
    assert set(a.difference(b).days()) == a_days - b_days


@settings(max_examples=200)
@given(day_sets)
def test_from_days_roundtrip(days):
    assert set(IntervalSet.from_days(days).days()) == days


@settings(max_examples=200)
@given(day_sets, st.integers(min_value=0, max_value=50))
def test_merge_gaps_preserves_days_and_bounds(days, max_gap):
    s = IntervalSet.from_days(days)
    merged = s.merge_gaps(max_gap)
    # merging never loses days and never extends beyond the span
    assert days <= set(merged.days())
    if days:
        assert merged.span == s.span
    # all remaining gaps exceed max_gap
    assert all(g > max_gap for g in merged.gap_lengths())


#: Raw (possibly overlapping, unsorted) interval endpoint pairs — wider
#: spans than day_sets, to exercise the union fast path's merge order.
interval_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=60),
    ).map(lambda p: Interval(p[0], p[0] + p[1])),
    max_size=12,
)


@settings(max_examples=200)
@given(interval_lists, interval_lists)
def test_union_linear_merge_matches_normalized_construction(a_ivs, b_ivs):
    # union() takes the two-pointer sorted-merge fast path; building one
    # IntervalSet from the concatenated raw intervals takes the full
    # sort-and-normalize path.  Canonical equality (same interval tuples,
    # not just the same day membership) must hold between the two.
    a, b = IntervalSet(a_ivs), IntervalSet(b_ivs)
    assert list(a.union(b)) == list(IntervalSet(a_ivs + b_ivs))


@settings(max_examples=200)
@given(interval_lists, st.integers(min_value=0, max_value=5000),
       st.integers(min_value=0, max_value=60))
def test_add_matches_normalized_construction(ivs, start, length):
    iv = Interval(start, start + length)
    s = IntervalSet(ivs)
    assert list(s.add(iv)) == list(IntervalSet(ivs + [iv]))


@settings(max_examples=200)
@given(day_sets)
def test_gaps_are_complement_within_span(days):
    s = IntervalSet.from_days(days)
    if not s:
        return
    span = s.span
    expected = set(range(span.start, span.end + 1)) - days
    assert set(s.gaps().days()) == expected
