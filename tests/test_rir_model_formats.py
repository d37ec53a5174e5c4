"""Unit tests for repro.rir.model and repro.rir.formats."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rir import (
    DelegationFileError,
    DelegationRecord,
    DelegationSnapshot,
    Status,
    compress_records,
    parse_snapshot,
    serialize_snapshot,
)
from repro.timeline import from_iso


def rec(asn, status=Status.ALLOCATED, cc="IT", date="2010-05-01", opaque="ORG-1",
        registry="ripencc"):
    return DelegationRecord(
        registry=registry,
        cc=cc,
        asn=asn,
        reg_date=from_iso(date) if date else None,
        status=status,
        opaque_id=opaque,
    )


class TestStatus:
    def test_parse(self):
        assert Status.parse("ALLOCATED") is Status.ALLOCATED
        assert Status.parse(" reserved ") is Status.RESERVED

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Status.parse("squatted")

    def test_is_delegated(self):
        assert Status.ALLOCATED.is_delegated
        assert Status.ASSIGNED.is_delegated
        assert not Status.AVAILABLE.is_delegated
        assert not Status.RESERVED.is_delegated


class TestDelegationRecord:
    def test_rejects_unknown_registry(self):
        with pytest.raises(ValueError):
            rec(1, registry="internic")

    def test_rejects_delegated_without_date(self):
        with pytest.raises(ValueError):
            DelegationRecord("arin", "US", 7, None, Status.ALLOCATED)

    def test_available_without_date_ok(self):
        r = DelegationRecord("arin", "", 7, None, Status.AVAILABLE)
        assert not r.is_delegated

    def test_with_date(self):
        r = rec(1)
        r2 = r.with_date(from_iso("1999-01-01"))
        assert r2.reg_date == from_iso("1999-01-01")
        assert r.reg_date == from_iso("2010-05-01")  # original untouched

    def test_describe_mentions_asn(self):
        assert "AS42" in rec(42).describe()


def _field_tuple(record):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


class TestDelegationRecordRowContract:
    """The slotted record keeps the frozen dataclass's behaviour."""

    def test_fields_unchanged(self):
        assert [f.name for f in dataclasses.fields(DelegationRecord)] == [
            "registry", "cc", "asn", "reg_date", "status", "opaque_id",
        ]
        assert dataclasses.is_dataclass(DelegationRecord)

    def test_every_field_is_frozen(self):
        r = rec(1)
        for f in dataclasses.fields(r):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, f.name, getattr(r, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.cc
        assert not hasattr(r, "__dict__")

    def test_keyword_and_positional_construction_agree(self):
        assert rec(5) == DelegationRecord(
            "ripencc", "IT", 5, from_iso("2010-05-01"), Status.ALLOCATED, "ORG-1"
        )
        assert DelegationRecord("arin", "", 7, None, Status.RESERVED).opaque_id is None

    def test_validation_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown registry"):
            DelegationRecord("internic", "US", 7, 10, Status.ALLOCATED)
        for status in (Status.ALLOCATED, Status.ASSIGNED):
            with pytest.raises(ValueError, match="lacks a date"):
                DelegationRecord(
                    registry="arin", cc="US", asn=7, reg_date=None, status=status
                )

    def test_eq_and_hash_follow_the_field_tuple(self):
        rows = [
            rec(1), rec(1), rec(2), rec(1, opaque=None), rec(1, cc="FR"),
            rec(1, status=Status.ASSIGNED), rec(1, date="2011-01-01"),
            rec(1, registry="arin"),
            rec(1, status=Status.AVAILABLE, date=None, cc="", opaque=None),
        ]
        for a in rows:
            assert hash(a) == hash(_field_tuple(a))
            for b in rows:
                assert (a == b) == (_field_tuple(a) == _field_tuple(b))
        assert rec(1) != _field_tuple(rec(1))

    def test_repr_is_the_dataclass_repr(self):
        assert repr(DelegationRecord("arin", "", 7, None, Status.AVAILABLE)) == (
            "DelegationRecord(registry='arin', cc='', asn=7, reg_date=None, "
            "status=<Status.AVAILABLE: 'available'>, opaque_id=None)"
        )

    def test_pickle_and_deepcopy_round_trip(self):
        rows = [rec(1), rec(2, status=Status.RESERVED, date=None, opaque=None)]
        for clone in (pickle.loads(pickle.dumps(rows)), copy.deepcopy(rows)):
            assert clone == rows
            assert [hash(r) for r in clone] == [hash(r) for r in rows]
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone[0].asn = 3

    def test_with_date_and_with_status_change_one_field(self):
        r = rec(1)
        new_day = from_iso("1999-01-01")
        fields = _field_tuple(r)
        dated = r.with_date(new_day)
        assert dated == rec(1, date="1999-01-01")
        assert _field_tuple(dated) == fields[:3] + (new_day,) + fields[4:]
        assigned = r.with_status(Status.ASSIGNED)
        assert assigned == rec(1, status=Status.ASSIGNED)
        assert _field_tuple(assigned) == fields[:4] + (Status.ASSIGNED,) + fields[5:]
        # the copies are validated like any record
        with pytest.raises(ValueError):
            r.with_date(None)


class TestSnapshot:
    def test_by_asn_preserves_duplicates(self):
        snap = DelegationSnapshot(
            "afrinic", from_iso("2015-01-01"), True,
            [rec(5, registry="afrinic"),
             rec(5, registry="afrinic", status=Status.RESERVED, date=None,
                 cc="", opaque=None)],
        )
        assert len(snap.by_asn()[5]) == 2

    def test_delegated_records_filter(self):
        snap = DelegationSnapshot(
            "ripencc", from_iso("2015-01-01"), True,
            [rec(1), rec(2, status=Status.AVAILABLE, date=None, cc="", opaque=None)],
        )
        assert [r.asn for r in snap.delegated_records()] == [1]

    def test_count_by_status(self):
        snap = DelegationSnapshot(
            "ripencc", from_iso("2015-01-01"), True,
            [rec(1), rec(2), rec(3, status=Status.AVAILABLE, date=None, cc="", opaque=None)],
        )
        counts = snap.count_by_status()
        assert counts[Status.ALLOCATED] == 2
        assert counts[Status.AVAILABLE] == 1


class TestCompression:
    def test_contiguous_same_fields_collapse(self):
        records = [rec(10), rec(11), rec(12)]
        runs = compress_records(records)
        assert len(runs) == 1
        assert runs[0][1] == 3

    def test_gap_breaks_run(self):
        runs = compress_records([rec(10), rec(12)])
        assert len(runs) == 2

    def test_field_change_breaks_run(self):
        runs = compress_records([rec(10), rec(11, cc="FR")])
        assert len(runs) == 2


class TestRoundTrip:
    def make_snapshot(self, extended=True):
        records = [
            rec(64, date="2004-03-02", cc="DE", opaque="ORG-A"),
            rec(65, date="2004-03-02", cc="DE", opaque="ORG-A"),
            rec(100, status=Status.ASSIGNED, cc="IT", opaque="ORG-B"),
        ]
        if extended:
            records += [
                DelegationRecord("ripencc", "", 200, None, Status.AVAILABLE),
                DelegationRecord("ripencc", "", 201, None, Status.AVAILABLE),
                DelegationRecord("ripencc", "", 300, None, Status.RESERVED),
            ]
        else:
            records = [r.with_status(r.status) for r in records]
            records = [
                DelegationRecord(r.registry, r.cc, r.asn, r.reg_date, r.status)
                for r in records
            ]
        return DelegationSnapshot(
            "ripencc", from_iso("2015-06-01"), extended, records, serial=1234
        )

    def test_extended_roundtrip(self):
        snap = self.make_snapshot(extended=True)
        parsed = parse_snapshot(serialize_snapshot(snap))
        assert parsed.registry == "ripencc"
        assert parsed.extended
        assert parsed.serial == 1234
        assert parsed.file_day == snap.file_day
        assert sorted(parsed.records, key=lambda r: (r.asn, r.status.value)) == sorted(
            snap.records, key=lambda r: (r.asn, r.status.value)
        )

    def test_regular_roundtrip(self):
        snap = self.make_snapshot(extended=False)
        parsed = parse_snapshot(serialize_snapshot(snap))
        assert not parsed.extended
        assert len(parsed.records) == 3
        assert all(r.opaque_id is None for r in parsed.records)

    def test_serialized_text_shape(self):
        text = serialize_snapshot(self.make_snapshot())
        lines = text.strip().splitlines()
        assert lines[0].startswith("2.3|ripencc|1234|")
        assert lines[1].endswith("|summary")
        assert "|asn|64|2|20040302|allocated|ORG-A" in text


class TestParserRobustness:
    GOOD = (
        "2|arin|20150601|2|20150601|20150601|+0000\n"
        "arin|*|asn|*|2|summary\n"
        "arin|US|asn|701|1|19900101|allocated\n"
        "arin|US|asn|702|1|19900101|assigned\n"
    )

    def test_parses_good(self):
        snap = parse_snapshot(self.GOOD)
        assert [r.asn for r in snap.records] == [701, 702]

    def test_skips_comments_and_blanks(self):
        text = "# hello\n\n" + self.GOOD
        assert len(parse_snapshot(text).records) == 2

    def test_skips_ipv4_rows(self):
        text = self.GOOD.replace(
            "|2|summary", "|3|summary"
        ).replace(
            "20150601|2|2015", "20150601|3|2015"
        ) + "arin|US|ipv4|192.0.2.0|256|19900101|allocated\n"
        snap = parse_snapshot(text)
        assert len(snap.records) == 2

    def test_rejects_empty(self):
        with pytest.raises(DelegationFileError):
            parse_snapshot("")

    def test_rejects_bad_header(self):
        with pytest.raises(DelegationFileError):
            parse_snapshot("oops\n" + self.GOOD)

    def test_rejects_unknown_version(self):
        with pytest.raises(DelegationFileError):
            parse_snapshot(self.GOOD.replace("2|arin", "9|arin"))

    def test_rejects_truncation(self):
        truncated = "\n".join(self.GOOD.splitlines()[:-1]) + "\n"
        with pytest.raises(DelegationFileError, match="truncated"):
            parse_snapshot(truncated)

    def test_rejects_bad_date(self):
        with pytest.raises(DelegationFileError):
            parse_snapshot(self.GOOD.replace("19900101", "1990-01-0"))

    def test_rejects_reserved_in_regular(self):
        with pytest.raises(DelegationFileError):
            parse_snapshot(self.GOOD.replace("|assigned", "|reserved"))

    def test_rejects_bad_asn_range(self):
        with pytest.raises(DelegationFileError):
            parse_snapshot(self.GOOD.replace("|701|1|", "|4294967295|2|"))

    def test_expands_value_runs(self):
        text = (
            "2.3|apnic|1|1|20150601|20150601|+0000\n"
            "apnic|*|asn|*|1|summary\n"
            "apnic||asn|64000|512||available|\n"
        )
        snap = parse_snapshot(text)
        assert len(snap.records) == 512
        assert snap.records[0].asn == 64000
        assert snap.records[-1].asn == 64511


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5000),
            st.sampled_from(["IT", "FR", "US"]),
        ),
        min_size=1,
        max_size=30,
        unique_by=lambda t: t[0],
    )
)
def test_roundtrip_property(pairs):
    records = [rec(asn, cc=cc) for asn, cc in pairs]
    snap = DelegationSnapshot("ripencc", from_iso("2016-02-03"), True, records)
    parsed = parse_snapshot(serialize_snapshot(snap))
    assert sorted(parsed.records, key=lambda r: r.asn) == sorted(
        records, key=lambda r: r.asn
    )
