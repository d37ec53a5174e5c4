"""Tests for the four-category taxonomy (§6, Table 3)."""

from repro.core import Category, classify
from repro.lifetimes import AdminLifetime, BgpLifetime
from repro.runtime import MetricsRegistry
from repro.timeline import from_iso

D = from_iso("2010-01-01")


def admin(asn, start, end, registry="ripencc"):
    return AdminLifetime(asn, D + start, D + end, D + start, (registry,))


def op(asn, start, end):
    return BgpLifetime(asn, D + start, D + end)


class TestAdminCategories:
    def test_complete_overlap(self):
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 10, 50)]}, metrics=MetricsRegistry()
        )
        assert result.admin_counts[Category.COMPLETE_OVERLAP] == 1
        assert result.op_counts[Category.COMPLETE_OVERLAP] == 1

    def test_exact_match_is_complete(self):
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 0, 100)]}, metrics=MetricsRegistry()
        )
        assert result.admin_counts[Category.COMPLETE_OVERLAP] == 1

    def test_partial_overlap_dangling(self):
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 50, 150)]}, metrics=MetricsRegistry()
        )
        assert result.admin_counts[Category.PARTIAL_OVERLAP] == 1
        assert result.op_counts[Category.PARTIAL_OVERLAP] == 1

    def test_partial_beats_complete_when_mixed(self):
        result = classify(
            {1: [admin(1, 0, 100)]},
            {1: [op(1, 10, 20), op(1, 90, 150)]},
            metrics=MetricsRegistry(),
        )
        assert result.admin_counts[Category.PARTIAL_OVERLAP] == 1
        # the contained op life itself is complete-overlap
        assert result.op_counts[Category.COMPLETE_OVERLAP] == 1
        assert result.op_counts[Category.PARTIAL_OVERLAP] == 1

    def test_unused(self):
        result = classify({1: [admin(1, 0, 100)]}, {}, metrics=MetricsRegistry())
        assert result.admin_counts[Category.UNUSED] == 1

    def test_unused_with_disjoint_activity(self):
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 200, 250)]}, metrics=MetricsRegistry()
        )
        assert result.admin_counts[Category.UNUSED] == 1
        assert result.op_counts[Category.OUTSIDE_DELEGATION] == 1

    def test_outside_never_allocated(self):
        result = classify({}, {9: [op(9, 0, 10)]}, metrics=MetricsRegistry())
        assert result.op_counts[Category.OUTSIDE_DELEGATION] == 1
        assert not result.admin_counts

    def test_multiple_lives_counted_independently(self):
        result = classify(
            {1: [admin(1, 0, 100), admin(1, 200, 300)]},
            {1: [op(1, 10, 50)]},
            metrics=MetricsRegistry(),
        )
        assert result.admin_counts[Category.COMPLETE_OVERLAP] == 1
        assert result.admin_counts[Category.UNUSED] == 1

    def test_table3_rows_order(self):
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 10, 50)]}, metrics=MetricsRegistry()
        )
        rows = result.table3_rows()
        assert [r[0] for r in rows] == [
            "complete_overlap",
            "partial_overlap",
            "unused",
            "outside_delegation",
        ]
        assert result.totals() == (1, 1)

    def test_materialize_category_members(self):
        admin_lives = {1: [admin(1, 0, 100)], 2: [admin(2, 0, 50)]}
        op_lives = {1: [op(1, 10, 50)]}
        result = classify(admin_lives, op_lives, metrics=MetricsRegistry())
        unused = result.admin_lives_in(Category.UNUSED, admin_lives)
        assert [l.asn for l in unused] == [2]
        complete_ops = result.op_lives_in(Category.COMPLETE_OVERLAP, op_lives)
        assert [l.asn for l in complete_ops] == [1]

    def test_touching_boundary_is_contained(self):
        # op life ending exactly on the admin end day is contained
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 90, 100)]}, metrics=MetricsRegistry()
        )
        assert result.admin_counts[Category.COMPLETE_OVERLAP] == 1

    def test_one_day_overhang_is_partial(self):
        result = classify(
            {1: [admin(1, 0, 100)]}, {1: [op(1, 90, 101)]}, metrics=MetricsRegistry()
        )
        assert result.admin_counts[Category.PARTIAL_OVERLAP] == 1
