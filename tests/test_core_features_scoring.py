"""Tests for joint-lens feature extraction and restoration scoring."""

import pytest

from repro.core import (
    FEATURE_NAMES,
    extract_features,
    rank_by_suspicion,
    suspicion_score,
)
from repro.lifetimes import AdminLifetime, BgpLifetime
from repro.restoration import (
    DefectScore,
    RestoredDelegations,
    render_scores,
    score_restoration,
)
from repro.rir import DelegationRecord, InjectedDefect, Status, Stint
from repro.timeline import Interval, from_iso

D = from_iso("2005-01-01")
END = from_iso("2021-03-01")


def admin(asn, start, end, open_ended=False):
    return AdminLifetime(asn, D + start, D + end, D + start, ("ripencc",),
                         open_ended=open_ended)


def op(asn, start, end):
    return BgpLifetime(asn, D + start, D + end)


class TestFeatureExtraction:
    def test_vector_matches_names(self):
        rows = extract_features(
            {1: [admin(1, 0, 2000)]}, {1: [op(1, 50, 1800)]}, end_day=END
        )
        assert len(rows) == 1
        assert len(rows[0].vector()) == len(FEATURE_NAMES)

    def test_contained_life_features(self):
        rows = extract_features(
            {1: [admin(1, 0, 2000)]}, {1: [op(1, 50, 100)]}, end_day=END
        )
        row = rows[0]
        assert row.inside_allocation
        assert row.dormancy_before == 50
        assert row.days_from_admin_start == 50
        assert row.days_to_admin_end == 1900
        assert row.relative_duration == pytest.approx(51 / 2001)

    def test_dormancy_between_op_lives(self):
        rows = extract_features(
            {1: [admin(1, 0, 5000)]},
            {1: [op(1, 0, 100), op(1, 2000, 2050)]},
            end_day=END,
        )
        second = rows[1]
        assert second.op_life_index == 1
        assert second.dormancy_before == 2000 - 101

    def test_post_dealloc_features(self):
        rows = extract_features(
            {1: [admin(1, 0, 1000)]}, {1: [op(1, 3000, 3010)]}, end_day=END
        )
        row = rows[0]
        assert row.after_deallocation
        assert not row.inside_allocation
        assert row.dormancy_before == 2000

    def test_never_allocated_features(self):
        rows = extract_features({}, {9: [op(9, 0, 10)]}, end_day=END)
        assert rows[0].never_allocated

    def test_32bit_flag(self):
        rows = extract_features({}, {70000: [op(70000, 0, 1)]}, end_day=END)
        assert rows[0].is_32bit


class TestSuspicionScoring:
    def make_rows(self):
        admin_lives = {
            1: [admin(1, 0, 5500, open_ended=True)],   # squat target
            2: [admin(2, 0, 5500, open_ended=True)],   # normal long user
        }
        op_lives = {
            1: [op(1, 4000, 4020)],     # dormant 4000d then 21d burst
            2: [op(2, 30, 5400)],       # ordinary
            9: [op(9, 100, 101)],       # never allocated
        }
        return extract_features(admin_lives, op_lives, end_day=END)

    def test_squat_scores_highest(self):
        ranked = rank_by_suspicion(self.make_rows())
        assert ranked[0][1].asn == 1
        assert ranked[-1][1].asn == 2

    def test_admin_dimension_adds_signal(self):
        rows = self.make_rows()
        squat = next(r for r in rows if r.asn == 1)
        with_admin = suspicion_score(squat, use_admin_dimension=True)
        without = suspicion_score(squat, use_admin_dimension=False)
        assert with_admin > without

    def test_scores_bounded(self):
        for row in self.make_rows():
            assert 0.0 <= suspicion_score(row) <= 1.0


class TestRestorationScoring:
    def test_scores_on_pipeline_output(self):
        from repro.simulation import build_datasets, tiny

        bundle = build_datasets(tiny(seed=9))
        scores = score_restoration(
            bundle.restored,
            bundle.injected_defects,
            erx_reference=bundle.world.erx_reference,
        )
        # the verifiable classes all got repaired with high recall
        for kind in ("duplicate_record", "placeholder_regdate",
                     "future_regdate", "mistaken_allocation"):
            if kind in scores:
                assert scores[kind].recall > 0.8, (kind, scores[kind])
        text = render_scores(scores)
        assert "duplicate_record" in text
        assert "recall" in text

    @staticmethod
    def stale_transfer(asn, origin_rows, destination_rows):
        """A transfer out of ARIN on 2003-11-15, stale for 210 days."""
        transfer = from_iso("2003-11-15")

        def row(registry, start, end):
            record = DelegationRecord(registry, "NL", asn, transfer,
                                      Status.ALLOCATED)
            return Stint(from_iso(start), from_iso(end), record)

        stints = [row("arin", a, b) for a, b in origin_rows]
        stints += [row("ripencc", a, b) for a, b in destination_rows]
        restored = RestoredDelegations(stints={asn: stints})
        defect = InjectedDefect(
            "stale_transfer_record", ("arin", "extended"), asn,
            Interval(transfer, transfer + 210), note="transferred to ripencc",
        )
        return score_restoration(restored, [defect])["stale_transfer_record"]

    def test_stale_transfer_trimmed_before_a_later_archive_start(self):
        # the AS680 shape: the transfer predates RIPE NCC's first file,
        # so the origin's surviving rows start after the transfer day
        # and end the day before the destination's first row
        score = self.stale_transfer(
            680, [("2003-11-20", "2003-11-25")],
            [("2003-11-26", "2006-03-28"), ("2006-07-02", "2010-04-21")],
        )
        assert (score.injected, score.repaired, score.unverifiable) == (1, 1, 0)

    def test_stale_transfer_overlapping_the_destination_is_a_miss(self):
        # an origin row that runs past the destination's first row is
        # the stale tail itself, even when it began before the transfer
        for origin_rows in ([("2003-11-20", "2003-12-31")],
                            [("2001-01-01", "2004-01-10")]):
            score = self.stale_transfer(
                134, origin_rows, [("2003-11-26", "2010-04-21")]
            )
            assert (score.injected, score.repaired) == (1, 0), origin_rows

    def test_render_marks_uncheckable_classes(self):
        text = render_scores({
            "missing_file": DefectScore("missing_file", 181, 0, 181),
            "future_regdate": DefectScore("future_regdate", 4, 4, 0),
        })
        rows = {line.split()[0]: line.split()[-1] for line in text.splitlines()[1:]}
        assert rows == {"missing_file": "n/a", "future_regdate": "100%"}
