"""Tests for trend series (§5 / App. A) and misconfig classification."""

import pytest

from repro.core import (
    alive_counts,
    alive_counts_by_registry,
    alive_bgp_counts_by_registry,
    bit_class_counts,
    classify_all,
    classify_suspect,
    collect_path_evidence,
    country_shares,
    crossover_day,
    duration_by_birth_year,
    duration_cdf,
    lives_per_asn_table,
    MisconfigClass,
    PathEvidence,
    quarterly_balance,
    quarterly_birth_rate,
)
from repro.core.trends import DailySeries, cdf_at
from repro.bgp import BgpElement, RIB
from repro.lifetimes import AdminLifetime, BgpLifetime
from repro.net import Prefix
from repro.timeline import from_iso

D = from_iso("2010-01-01")


def admin(asn, start, end, registry="ripencc", cc="IT", open_ended=False):
    return AdminLifetime(
        asn, D + start, D + end, D + start, (registry,), cc=cc,
        open_ended=open_ended,
    )


def op(asn, start, end):
    return BgpLifetime(asn, D + start, D + end)


class TestDailySeries:
    def test_alive_counts(self):
        lives = {1: [admin(1, 0, 9)], 2: [admin(2, 5, 14)]}
        series = alive_counts(lives, D, D + 20)
        assert series.at(D) == 1
        assert series.at(D + 7) == 2
        assert series.at(D + 12) == 1
        assert series.at(D + 20) == 0
        assert series.max() == (D + 5, 2)

    def test_out_of_window_rejected(self):
        series = alive_counts({}, D, D + 5)
        with pytest.raises(ValueError):
            series.at(D + 6)

    def test_by_registry(self):
        lives = {
            1: [admin(1, 0, 9, registry="arin")],
            2: [admin(2, 0, 9, registry="ripencc")],
        }
        per = alive_counts_by_registry(lives, D, D + 10)
        assert set(per) == {"arin", "ripencc"}
        assert per["arin"].at(D) == 1

    def test_bgp_counts_attributed_to_registry(self):
        admin_lives = {1: [admin(1, 0, 100, registry="arin")]}
        op_lives = {1: [op(1, 10, 20)], 99: [op(99, 0, 5)]}  # 99 undelegated
        per = alive_bgp_counts_by_registry(admin_lives, op_lives, D, D + 30)
        assert per["arin"].at(D + 15) == 1
        assert set(per) == {"arin"}

    def test_crossover(self):
        a = DailySeries(D, __import__("numpy").array([1, 2, 3, 4]))
        b = DailySeries(D, __import__("numpy").array([2, 2, 2, 2]))
        assert crossover_day(a, b) == D + 2

    def test_crossover_none(self):
        import numpy as np

        a = DailySeries(D, np.array([1, 1]))
        b = DailySeries(D, np.array([2, 2]))
        assert crossover_day(a, b) is None


class TestTables:
    def test_lives_per_asn(self):
        lives = {
            1: [admin(1, 0, 9)],
            2: [admin(2, 0, 9), admin(2, 20, 29)],
            3: [admin(3, 0, 9), admin(3, 20, 29), admin(3, 40, 49)],
        }
        registry_of = {1: "ripencc", 2: "ripencc", 3: "ripencc"}
        table = lives_per_asn_table(lives, registry_of)
        assert table["ripencc"]["1"] == pytest.approx(1 / 3)
        assert table["ripencc"]["2"] == pytest.approx(1 / 3)
        assert table["ripencc"][">2"] == pytest.approx(1 / 3)
        assert table["total"] == table["ripencc"]

    def test_duration_cdf(self):
        xs, ys = duration_cdf([10, 20, 30, 40])
        assert list(xs) == [10, 20, 30, 40]
        assert ys[-1] == 1.0
        assert cdf_at([10, 20, 30, 40], 20) == pytest.approx(0.5)

    def test_birth_rate_quarters(self):
        lives = {1: [admin(1, 0, 9)], 2: [admin(2, 100, 109)]}
        rates = quarterly_birth_rate(lives)
        assert rates["ripencc"][(2010, 1)] == 1
        assert rates["ripencc"][(2010, 2)] == 1

    def test_balance(self):
        lives = {1: [admin(1, 0, 50)]}  # born and dies within window
        balance = quarterly_balance(lives, D, D + 400)
        assert balance["ripencc"][(2010, 1)] == 1 - 1  # birth and death same Q

    def test_bit_class_counts(self):
        lives = {100: [admin(100, 0, 9)], 70000: [admin(70000, 0, 9)]}
        per = bit_class_counts(lives, D, D + 10)
        assert per["ripencc"]["16"].at(D) == 1
        assert per["ripencc"]["32"].at(D) == 1

    def test_duration_by_birth_year(self):
        lives = {1: [admin(1, 0, 99)]}
        grouped = duration_by_birth_year(lives)
        assert grouped["ripencc"][2010] == [100]

    def test_country_shares(self):
        lives = {
            1: [admin(1, 0, 999, cc="BR", registry="lacnic")],
            2: [admin(2, 0, 999, cc="BR", registry="lacnic")],
            3: [admin(3, 0, 999, cc="AR", registry="lacnic")],
        }
        rows = country_shares(lives, "lacnic", as_of=D + 5)
        assert rows[0] == ("BR", 2, pytest.approx(2 / 3))

    def test_country_shares_as_of_filter(self):
        lives = {1: [admin(1, 0, 10, cc="BR", registry="lacnic")]}
        assert country_shares(lives, "lacnic", as_of=D + 50) == []


class TestOnSimulatedWorld:
    def test_india_rises_in_apnic(self):
        from repro.simulation import build_datasets, tiny

        bundle = build_datasets(tiny(seed=31))
        early = bundle.world.config.start_day + 2500
        late = bundle.world.end_day

        def rank(day, cc):
            rows = country_shares(bundle.admin_lives, "apnic", as_of=day, top=8)
            return next((i for i, row in enumerate(rows) if row[0] == cc), 99)

        # the Appendix-A story: India and Indonesia climb APNIC's
        # country ranking and end up among its top five
        for cc in ("IN", "ID"):
            assert rank(late, cc) < rank(early, cc), cc
            assert rank(late, cc) < 5, cc


class TestMisconfig:
    def test_prepend_typo(self):
        ev = PathEvidence(3202632026, first_hops=(32026,), prefixes=())
        assert classify_suspect(ev) == MisconfigClass.PREPEND_TYPO

    def test_digit_typo(self):
        ev = PathEvidence(419333, first_hops=(3356,), prefixes=(),
                          moas_partners=(41933,))
        assert classify_suspect(ev) == MisconfigClass.DIGIT_TYPO

    def test_internal_leak(self):
        ev = PathEvidence(290012147, first_hops=(7046,), prefixes=(),
                          covering_origins=(701,))
        assert classify_suspect(ev) == MisconfigClass.INTERNAL_LEAK

    def test_unexplained(self):
        ev = PathEvidence(123456, first_hops=(3356,), prefixes=())
        assert classify_suspect(ev) == MisconfigClass.UNEXPLAINED

    def test_classify_all_buckets(self):
        items = [
            PathEvidence(3202632026, (32026,), ()),
            PathEvidence(419333, (3356,), (), moas_partners=(41933,)),
            PathEvidence(55, (3356,), ()),
        ]
        buckets = classify_all(items)
        assert buckets[MisconfigClass.PREPEND_TYPO] == [3202632026]
        assert buckets[MisconfigClass.DIGIT_TYPO] == [419333]
        assert buckets[MisconfigClass.UNEXPLAINED] == [55]

    def test_collect_path_evidence(self):
        p_small = Prefix.parse("10.1.1.0/24")
        p_big = Prefix.parse("10.0.0.0/12")
        p_same = Prefix.parse("192.0.2.0/24")

        def e(path, prefix):
            return BgpElement(RIB, D, 0, "ris", "rrc00", path[0], prefix, path)

        elements = [
            e((10, 7046, 290012147), p_small),   # suspect with covering /12
            e((10, 701), p_big),                 # the covering aggregate
            e((10, 32026, 3202632026), p_same),  # suspect: prepend typo
            e((20, 41933), p_same),              # MOAS partner on same prefix
        ]
        evidence = collect_path_evidence(elements, {290012147, 3202632026})
        leak = evidence[290012147]
        assert leak.first_hops == (7046,)
        assert 701 in leak.covering_origins
        typo = evidence[3202632026]
        assert typo.first_hops == (32026,)
        assert 41933 in typo.moas_partners
        assert classify_suspect(leak) == MisconfigClass.INTERNAL_LEAK
        assert classify_suspect(typo) == MisconfigClass.PREPEND_TYPO
