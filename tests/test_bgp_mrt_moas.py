"""Tests for the MRT-style codec and MOAS/SubMOAS evidence."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    ANNOUNCE,
    RIB,
    WITHDRAW,
    BgpElement,
    MrtError,
    dump_day,
    load_day,
    read_elements,
    write_elements,
)
from repro.bgp.dumps import dump_file_name, materialize_collector_dumps
from repro.core import collect_path_evidence
from repro.net import Prefix
from repro.simulation.config import tiny
from repro.simulation.world import WorldSimulator
from repro.timeline import from_iso

D = from_iso("2015-06-01")
P1 = Prefix.parse("10.0.0.0/16")
P2 = Prefix.parse("10.1.0.0/16")
SUB = Prefix.parse("10.0.4.0/24")
V6 = Prefix.parse("2001:db8::/32")


def elem(etype=RIB, peer=10, prefix=P1, path=(10, 20, 30), seq=0):
    return BgpElement(etype, D, seq, "ris", "rrc00", peer, prefix,
                      path if etype != WITHDRAW else ())


class TestMrtRoundtrip:
    def test_rib_v4(self):
        buf = io.BytesIO()
        assert write_elements([elem()], buf) == 1
        buf.seek(0)
        back = list(read_elements(buf, project="ris", collector="rrc00"))
        assert back == [elem()]

    def test_rib_v6(self):
        e = elem(prefix=V6)
        buf = io.BytesIO()
        write_elements([e], buf)
        buf.seek(0)
        assert list(read_elements(buf, project="ris", collector="rrc00")) == [e]

    def test_announce_and_withdraw(self):
        elems = [elem(ANNOUNCE, seq=1), elem(WITHDRAW, seq=2)]
        buf = io.BytesIO()
        write_elements(elems, buf)
        buf.seek(0)
        assert list(read_elements(buf, project="ris", collector="rrc00")) == elems

    def test_file_roundtrip(self, tmp_path):
        elems = [elem(seq=i) for i in range(10)]
        path = tmp_path / "rib.mrt"
        assert dump_day(elems, path) == 10
        assert load_day(path, project="ris", collector="rrc00") == elems

    def test_truncated_header_rejected(self):
        buf = io.BytesIO()
        write_elements([elem()], buf)
        data = buf.getvalue()[:-5]
        with pytest.raises(MrtError):
            list(read_elements(io.BytesIO(data[:6]), project="ris", collector="r"))

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        write_elements([elem()], buf)
        data = buf.getvalue()[:-3]
        with pytest.raises(MrtError):
            list(read_elements(io.BytesIO(data), project="ris", collector="r"))

    def test_unknown_type_rejected(self):
        buf = io.BytesIO()
        write_elements([elem()], buf)
        data = bytearray(buf.getvalue())
        data[5] = 99  # type field low byte
        with pytest.raises(MrtError):
            list(read_elements(io.BytesIO(bytes(data)), project="r", collector="c"))

    def test_old_days_out_of_range(self):
        ancient = BgpElement(RIB, 100, 0, "ris", "rrc00", 10, P1, (10,))
        with pytest.raises(MrtError, match="32-bit"):
            write_elements([ancient], io.BytesIO())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([RIB, ANNOUNCE, WITHDRAW]),
                st.integers(min_value=1, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=255),
                st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                         min_size=1, max_size=6),
            ),
            max_size=15,
        )
    )
    def test_roundtrip_property(self, specs):
        elems = [
            BgpElement(
                etype, D, seq, "rv", "route-views2", peer,
                Prefix.v4((seq % 200) << 24, 8),
                tuple(path) if etype != WITHDRAW else (),
            )
            for etype, peer, seq, path in specs
        ]
        buf = io.BytesIO()
        write_elements(elems, buf)
        buf.seek(0)
        back = list(read_elements(buf, project="rv", collector="route-views2"))
        assert back == elems


class TestMoas:
    """MOAS and covering-origin (SubMOAS) evidence, as the §6.4
    misconfiguration analysis computes it."""

    def test_same_prefix_two_origins(self):
        elems = [
            elem(path=(10, 20, 30)),
            elem(peer=11, path=(11, 40)),
        ]
        evidence = collect_path_evidence(elems, {30, 40})
        assert evidence[30].moas_partners == (40,)
        assert evidence[40].moas_partners == (30,)

    def test_single_origin_no_conflict(self):
        evidence = collect_path_evidence([elem(), elem(peer=11)], {30})
        assert evidence[30].moas_partners == ()

    def test_withdraws_ignored(self):
        evidence = collect_path_evidence(
            [elem(WITHDRAW), elem(peer=11, path=(11, 40))], {30, 40}
        )
        assert evidence[30].prefixes == ()
        assert evidence[40].moas_partners == ()

    def test_submoas(self):
        elems = [
            elem(path=(10, 20, 30), prefix=P1),
            elem(path=(10, 99), prefix=SUB),
        ]
        evidence = collect_path_evidence(elems, {99})
        assert evidence[99].prefixes == (SUB,)
        assert evidence[99].covering_origins == (30,)

    def test_submoas_same_origin_not_conflict(self):
        elems = [
            elem(path=(10, 30), prefix=P1),
            elem(path=(10, 30), prefix=SUB),
        ]
        assert collect_path_evidence(elems, {30})[30].covering_origins == ()


class TestCollectorDumps:
    def test_collector_dumps_bit_identical(self, tmp_path):
        world = WorldSimulator(tiny(seed=7)).run()
        end = world.end_day
        start = end - 4
        announcements = {
            day: world.announcements_for_day(day) for day in range(start, end + 1)
        }
        written = {}
        for label in ("first", "second"):
            written[label] = materialize_collector_dumps(
                world.topology, world.collectors, announcements,
                tmp_path / label, start=start, end=end,
            )
        assert written["first"] == written["second"]
        assert set(written["first"]) == {c.name for c in world.collectors}
        for collector in world.collectors:
            for day in range(start, end + 1):
                name = dump_file_name(day)
                first = tmp_path / "first" / collector.name / name
                second = tmp_path / "second" / collector.name / name
                assert first.read_bytes() == second.read_bytes()

    def test_rejects_inverted_window(self, tmp_path):
        world = WorldSimulator(tiny(seed=7)).run()
        with pytest.raises(ValueError):
            materialize_collector_dumps(
                world.topology, world.collectors, {}, tmp_path,
                start=world.end_day, end=world.end_day - 1,
            )
