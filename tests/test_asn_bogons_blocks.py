"""Unit tests for repro.asn.bogons and repro.asn.blocks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asn import (
    BLOCK_SIZE,
    AS16_MAX,
    AS32_MAX,
    IanaLedger,
    bogon_reason,
    is_bogon_asn,
    iter_bogon_ranges,
)
from repro.asn.blocks import BlockDelegation

#: Every special-use range edge and its neighbours, inside the AS space.
_EDGES = sorted({
    edge + step
    for first, last in iter_bogon_ranges()
    for edge in (first, last, last + 1)
    for step in (-2, -1, 0, 1, 2)
    if 0 <= edge + step <= AS32_MAX
})


@st.composite
def _edge_blocks(draw):
    """A block starting near one special-use edge, reaching past others."""
    first = draw(st.sampled_from(_EDGES))
    length = draw(st.one_of(
        st.integers(0, 3), st.integers(0, BLOCK_SIZE), st.integers(0, 70_000)
    ))
    return BlockDelegation(first, min(first + length, AS32_MAX), "arin", 0)


class TestBogons:
    @pytest.mark.parametrize(
        "asn",
        [0, 112, 23456, 64496, 64511, 64512, 65000, 65534, 65535, 65536, 65551,
         4200000000, 4294967294, 4294967295],
    )
    def test_known_bogons(self, asn):
        assert is_bogon_asn(asn)

    @pytest.mark.parametrize("asn", [1, 3356, 23455, 64495, 65552, 199999, 4199999999])
    def test_known_non_bogons(self, asn):
        assert not is_bogon_asn(asn)

    def test_reason_mentions_rfc(self):
        assert "RFC 6996" in bogon_reason(64512)
        assert "RFC 7607" in bogon_reason(0)

    def test_reason_rejects_non_bogon(self):
        with pytest.raises(ValueError):
            bogon_reason(3356)

    def test_ranges_sorted_disjoint(self):
        ranges = iter_bogon_ranges()
        for (a1, a2), (b1, _b2) in zip(ranges, ranges[1:]):
            assert a1 <= a2 < b1


class TestIanaLedger:
    def test_grant_and_lookup(self):
        ledger = IanaLedger()
        ledger.grant(1, 1024, "arin", day=100)
        assert ledger.rir_of(1) == "arin"
        assert ledger.rir_of(1024) == "arin"
        assert ledger.rir_of(1025) is None

    def test_lookup_respects_day(self):
        ledger = IanaLedger()
        ledger.grant(1, 1024, "arin", day=100)
        assert ledger.rir_of(500, day=99) is None
        assert ledger.rir_of(500, day=100) == "arin"

    def test_grant_rejects_overlap(self):
        ledger = IanaLedger()
        ledger.grant(1, 1024, "arin", day=100)
        with pytest.raises(ValueError):
            ledger.grant(1000, 2000, "ripencc", day=200)

    def test_delegate_16bit_sequential(self):
        ledger = IanaLedger()
        b1 = ledger.delegate_16bit("arin", day=1)
        b2 = ledger.delegate_16bit("ripencc", day=2)
        assert b1.first == 1 and b1.size == BLOCK_SIZE
        assert b2.first == b1.last + 1
        assert ledger.rir_of(b2.first) == "ripencc"

    def test_delegate_16bit_exhaustion(self):
        ledger = IanaLedger()
        blocks = []
        while True:
            block = ledger.delegate_16bit("apnic", day=1)
            if block is None:
                break
            blocks.append(block)
        assert blocks[-1].last == AS16_MAX
        assert ledger.undelegated_16bit() == 1  # AS0 never delegated
        assert ledger.delegate_16bit("apnic", day=2) is None

    def test_delegate_32bit_starts_above_16bit(self):
        ledger = IanaLedger()
        block = ledger.delegate_32bit("lacnic", day=1)
        assert block.first == 65536
        assert block.size == BLOCK_SIZE

    def test_delegate_around_existing_grant(self):
        ledger = IanaLedger()
        ledger.grant(1025, 2048, "ripencc", day=1)
        block = ledger.delegate_16bit("arin", day=2)
        assert block.first == 1
        block2 = ledger.delegate_16bit("arin", day=3)
        assert block2.first == 2049

    def test_block_asns_skips_bogons(self):
        ledger = IanaLedger()
        block = ledger.grant(64000, 65023, "arin", day=1)
        asns = list(block.asns())
        assert 64511 not in asns  # documentation range
        assert 64512 not in asns  # private use
        assert 64000 in asns and 64495 in asns

    @settings(max_examples=300, deadline=None)
    @given(block=_edge_blocks())
    @example(block=BlockDelegation(0, 66000, "arin", 0))
    @example(block=BlockDelegation(4199999000, 4200000999, "arin", 0))
    @example(block=BlockDelegation(4294966000, AS32_MAX, "arin", 0))
    @example(block=BlockDelegation(AS32_MAX, AS32_MAX, "arin", 0))
    def test_block_asns_equal_a_per_asn_bogon_filter(self, block):
        expected = [
            a for a in range(block.first, block.last + 1) if not is_bogon_asn(a)
        ]
        assert list(block.asns()) == expected

    def test_sixteen_bit_totals(self):
        ledger = IanaLedger()
        ledger.delegate_16bit("arin", day=1)
        ledger.delegate_16bit("arin", day=2)
        ledger.delegate_16bit("ripencc", day=3)
        ledger.delegate_32bit("arin", day=4)
        totals = ledger.sixteen_bit_totals()
        assert totals == {"arin": 2 * BLOCK_SIZE, "ripencc": BLOCK_SIZE}

    def test_blocks_of(self):
        ledger = IanaLedger()
        ledger.delegate_16bit("arin", day=1)
        ledger.delegate_16bit("ripencc", day=2)
        assert len(ledger.blocks_of("arin")) == 1
        assert ledger.blocks_of("afrinic") == []

    def test_spans_ascending(self):
        ledger = IanaLedger()
        ledger.grant(5000, 6023, "apnic", day=1)
        ledger.grant(1, 1024, "arin", day=2)
        spans = ledger.spans()
        assert spans == [(1, 1024, "arin"), (5000, 6023, "apnic")]
