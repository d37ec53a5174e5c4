"""Tests for DelegationArchive: timelines, snapshots, overlay effects,
and the equivalence of the fast (timeline) and slow (file) paths."""

import copy
import dataclasses
import pickle

import pytest

from repro.asn import IanaLedger
from repro.rir import (
    EXTENDED,
    REGULAR,
    ArchiveOverlay,
    DelegationArchive,
    DelegationFileError,
    DelegationRecord,
    FileState,
    Registry,
    Status,
    Stint,
    default_policy,
    parse_snapshot,
)
from repro.scenario import get_scenario
from repro.simulation.datasets import build_datasets
from repro.timeline import Interval, from_iso

START = from_iso("2010-05-01")
END = from_iso("2011-05-01")


@pytest.fixture
def world():
    """A tiny RIPE registry with three lives and one dealloc/realloc."""
    ledger = IanaLedger()
    ripe = Registry("ripencc", default_policy("ripencc"), ledger)
    a1 = ripe.allocate(START, "ORG-1", "IT", thirty_two_bit=False)
    a2 = ripe.allocate(START + 10, "ORG-2", "FR", thirty_two_bit=False)
    ripe.deallocate(START + 100, a1.asn)
    ripe.tick(START + 100 + ripe.policy.quarantine_days)
    a3 = ripe.allocate(
        START + 300, "ORG-3", "DE", thirty_two_bit=False, prefer_recycled=True
    )
    return {"registry": ripe, "asns": (a1.asn, a2.asn, a3.asn)}


def make_archive(world, overlay=None):
    return DelegationArchive({"ripencc": world["registry"]}, END, overlay)


class TestWindows:
    def test_sources(self, world):
        archive = make_archive(world)
        keys = [w.source for w in archive.sources()]
        assert ("ripencc", REGULAR) in keys
        assert ("ripencc", EXTENDED) in keys

    def test_extended_window_starts_2010(self, world):
        archive = make_archive(world)
        w = archive.window(("ripencc", EXTENDED))
        assert w.first_day == from_iso("2010-04-22")
        assert w.last_day == END

    def test_arin_regular_stops_2013(self):
        ledger = IanaLedger()
        arin = Registry("arin", default_policy("arin"), ledger)
        arin.allocate(from_iso("2004-01-05"), "ORG-1", "US", thirty_two_bit=False)
        archive = DelegationArchive({"arin": arin}, from_iso("2020-01-01"))
        w = archive.window(("arin", REGULAR))
        assert w.last_day == from_iso("2013-08-12")

    def test_file_count_excludes_missing(self, world):
        overlay = ArchiveOverlay()
        overlay.mark_missing(("ripencc", REGULAR), START + 5)
        clean = make_archive(world)
        dirty = make_archive(world, overlay)
        assert dirty.file_count("ripencc") == clean.file_count("ripencc") - 1


class TestTimelines:
    def test_allocation_stints(self, world):
        archive = make_archive(world)
        tl = archive.timeline(("ripencc", EXTENDED))
        asn1 = world["asns"][0]
        stints = tl[asn1]
        statuses = [s.record.status for s in stints]
        # the pool intake happens the same day as the first allocation, so
        # no file ever shows AS1 as available before its first life
        assert statuses == [
            Status.ALLOCATED,
            Status.RESERVED,
            Status.AVAILABLE,
            Status.ALLOCATED,
        ]
        alloc_stint = stints[0]
        assert alloc_stint.start == START
        assert alloc_stint.end == START + 99

    def test_regular_timeline_only_delegated(self, world):
        archive = make_archive(world)
        tl = archive.timeline(("ripencc", REGULAR))
        for stints in tl.values():
            assert all(s.record.is_delegated for s in stints)
            assert all(s.record.opaque_id is None for s in stints)

    def test_never_touched_asn_absent(self, world):
        archive = make_archive(world)
        tl = archive.timeline(("ripencc", EXTENDED))
        assert 99999 not in tl

    def test_timeline_cached(self, world):
        archive = make_archive(world)
        assert archive.timeline(("ripencc", EXTENDED)) is archive.timeline(
            ("ripencc", EXTENDED)
        )


class TestOverlayEffects:
    def test_missing_day_state(self, world):
        overlay = ArchiveOverlay()
        overlay.mark_missing(("ripencc", EXTENDED), START + 50)
        archive = make_archive(world, overlay)
        assert (
            archive.file_state(("ripencc", EXTENDED), START + 50) == FileState.MISSING
        )
        assert archive.snapshot(("ripencc", EXTENDED), START + 50) is None
        assert archive.file_text(("ripencc", EXTENDED), START + 50) is None

    def test_corrupt_day_text_unparsable(self, world):
        overlay = ArchiveOverlay()
        overlay.mark_corrupt(("ripencc", EXTENDED), START + 50)
        archive = make_archive(world, overlay)
        text = archive.file_text(("ripencc", EXTENDED), START + 50)
        assert text is not None
        with pytest.raises(DelegationFileError):
            parse_snapshot(text)

    def test_boundary_degraded_by_missing_day(self, world):
        # ASN 3's allocation starts at START+300; if that file is missing,
        # the stint is first observed the next day.
        overlay = ArchiveOverlay()
        overlay.mark_missing(("ripencc", EXTENDED), START + 300)
        archive = make_archive(world, overlay)
        asn3 = world["asns"][2]
        stints = archive.timeline(("ripencc", EXTENDED))[asn3]
        alloc = [s for s in stints if s.record.status is Status.ALLOCATED][-1]
        assert alloc.start == START + 301

    def test_record_drop_punches_hole(self, world):
        overlay = ArchiveOverlay()
        asn2 = world["asns"][1]
        overlay.drop_record(("ripencc", EXTENDED), asn2, Interval(START + 20, START + 22))
        archive = make_archive(world, overlay)
        stints = [
            s
            for s in archive.timeline(("ripencc", EXTENDED))[asn2]
            if s.record.status is Status.ALLOCATED
        ]
        assert len(stints) == 2
        assert stints[0].end == START + 19
        assert stints[1].start == START + 23

    def test_date_override(self, world):
        overlay = ArchiveOverlay()
        asn2 = world["asns"][1]
        wrong = from_iso("1993-09-01")
        overlay.override_date(("ripencc", EXTENDED), asn2, Interval(START + 20, END), wrong)
        archive = make_archive(world, overlay)
        stints = [
            s
            for s in archive.timeline(("ripencc", EXTENDED))[asn2]
            if s.record.status is Status.ALLOCATED
        ]
        assert stints[0].record.reg_date == START + 10
        assert stints[-1].record.reg_date == wrong

    def test_extra_record_appears(self, world):
        overlay = ArchiveOverlay()
        ghost = DelegationRecord("ripencc", "", 7777, None, Status.RESERVED)
        overlay.add_record(("ripencc", EXTENDED), Interval(START + 5, START + 9), ghost)
        archive = make_archive(world, overlay)
        tl = archive.timeline(("ripencc", EXTENDED))
        assert 7777 in tl
        snap = archive.snapshot(("ripencc", EXTENDED), START + 6)
        assert 7777 in snap.asns()
        snap2 = archive.snapshot(("ripencc", EXTENDED), START + 10)
        assert 7777 not in snap2.asns()

    def test_stale_day_repeats_previous_content(self, world):
        overlay = ArchiveOverlay()
        # the day ORG-3's allocation happens, the regular file is stale
        overlay.mark_stale(("ripencc", REGULAR), START + 300)
        archive = make_archive(world, overlay)
        asn3 = world["asns"][2]
        reg_snap = archive.snapshot(("ripencc", REGULAR), START + 300)
        ext_snap = archive.snapshot(("ripencc", EXTENDED), START + 300)
        assert asn3 not in reg_snap.asns()  # stale: yesterday's content
        assert asn3 in ext_snap.asns()
        assert reg_snap.serial < ext_snap.serial  # newest header wins (§3.1 iii)
        next_reg = archive.snapshot(("ripencc", REGULAR), START + 301)
        assert asn3 in next_reg.asns()


class TestPathEquivalence:
    def test_snapshot_matches_timeline_membership(self, world):
        """The slow file path and fast timeline path must agree on every
        sampled day about which rows exist."""
        overlay = ArchiveOverlay()
        overlay.mark_missing(("ripencc", EXTENDED), START + 40)
        asn1 = world["asns"][0]
        overlay.drop_record(("ripencc", EXTENDED), asn1, Interval(START + 60, START + 61))
        archive = make_archive(world, overlay)
        source = ("ripencc", EXTENDED)
        tl = archive.timeline(source)
        for day in range(START, START + 120, 7):
            if archive.file_state(source, day) != FileState.PRESENT:
                continue
            snap = archive.snapshot(source, day)
            file_rows = {(r.asn, r.status) for r in snap.records}
            tl_rows = {
                (asn, s.record.status)
                for asn, stints in tl.items()
                for s in stints
                if s.start <= day <= s.end
            }
            assert file_rows == tl_rows

    def test_file_text_roundtrip(self, world):
        archive = make_archive(world)
        source = ("ripencc", EXTENDED)
        text = archive.file_text(source, START + 15)
        snap = parse_snapshot(text)
        direct = archive.snapshot(source, START + 15)
        assert sorted(snap.records, key=lambda r: (r.asn, r.status.value)) == sorted(
            direct.records, key=lambda r: (r.asn, r.status.value)
        )

    def test_every_mass_transfer_source_matches_its_change_points(
        self, mass_transfer_archive
    ):
        """Timelines against an oracle that reads the registry's change
        points and the overlay directly, on every source of an archive
        with stale days, drops, date overrides and extra rows.

        For every ASN the checked days are each stint's first and last
        day and the days just outside it (where a timeline shortcut
        would go wrong), its change days, and the window's ends.  A
        file's rows must be the timeline's rows on the day its content
        was generated (the last non-stale day); files are checked on
        every stale day, the day after one, and every fifth edge day.
        """
        archive = mass_transfer_archive
        overlay = archive.overlay
        assert overlay.stale_days and overlay.record_drops
        assert overlay.date_overrides and overlay.extra_records
        for window in archive.sources():
            source = window.source
            registry = archive._registries[source[0]]
            timeline = archive.timeline(source)
            stale = overlay.stale_days.get(source, set())
            usable = {
                day
                for day in archive.iter_days(source)
                if archive.file_state(source, day) == FileState.PRESENT
            }
            edge_days = set()
            asns = set(registry.history) | set(overlay.extra_records.get(source, {}))
            for asn in asns:
                stints = timeline.get(asn, [])
                assert all(
                    window.first_day <= s.start <= s.end <= window.last_day
                    for s in stints
                )
                edges = {
                    day
                    for stint in stints
                    for day in (stint.start - 1, stint.start, stint.end, stint.end + 1)
                }
                edge_days |= edges
                days = edges | {window.first_day, window.last_day}
                days |= {day for day, _ in registry.history.get(asn, ())}
                for day in days & usable:
                    rows = _sorted_rows(
                        s.record for s in stints if s.start <= day <= s.end
                    )
                    assert rows == _oracle_rows(archive, registry, source, asn, day), (
                        source, asn, day,
                    )
            edge_days = sorted(edge_days & usable)
            file_days = set(edge_days[::5]) | {
                day for day in edge_days if day in stale or day - 1 in stale
            }
            for day in sorted(file_days):
                generated = day
                while generated in stale:
                    generated -= 1
                snap = archive.snapshot(source, day)
                assert _sorted_rows(snap.records) == _rows_on(timeline, generated)

    def test_single_change_point_on_a_stale_day(self, world):
        """A pool-only ASN whose one change point falls on a stale day
        is first listed by the next regenerated file."""
        source = ("ripencc", EXTENDED)
        registry = world["registry"]
        pool_only = [
            asn for asn, changes in registry.history.items() if len(changes) == 1
        ]
        asn = pool_only[0]
        (change_day, record), = registry.history[asn]
        assert record.status is Status.AVAILABLE
        overlay = ArchiveOverlay()
        overlay.mark_stale(source, change_day)
        overlay.mark_stale(source, change_day + 1)
        archive = make_archive(world, overlay)
        assert archive.timeline(source)[asn] == [
            Stint(change_day + 2, END, record)
        ]
        assert asn not in archive.snapshot(source, change_day + 1).asns()
        assert asn in archive.snapshot(source, change_day + 2).asns()
        # the regular feed never lists a pool-only ASN
        assert asn not in archive.timeline(("ripencc", REGULAR))


@pytest.fixture(scope="module")
def mass_transfer_archive():
    scenario = get_scenario("mass-transfer")
    return build_datasets(scenario.compile()).archive


def _row_key(record):
    return (
        record.asn,
        record.status.value,
        -1 if record.reg_date is None else record.reg_date,
        record.cc,
        record.opaque_id or "",
    )


def _sorted_rows(records):
    return sorted(records, key=_row_key)


def _rows_on(timeline, day):
    return _sorted_rows(
        stint.record
        for stints in timeline.values()
        for stint in stints
        if stint.start <= day <= stint.end
    )


def _oracle_rows(archive, registry, source, asn, day):
    """The rows ``source`` lists for ``asn`` on a usable ``day``, from
    the change points and the overlay, without building a stint."""
    overlay = archive.overlay
    window = archive.window(source)
    regular = source[1] == REGULAR
    stale = overlay.stale_days.get(source, set())
    rows = []
    current = None
    for change_day, record in registry.history.get(asn, ()):
        # a change on a stale day shows on the next regenerated file
        while change_day in stale and change_day <= window.last_day:
            change_day += 1
        if change_day > day:
            break
        current = record
    if regular and current is not None:
        current = (
            DelegationRecord(
                current.registry, current.cc, current.asn,
                current.reg_date, current.status,
            )
            if current.is_delegated
            else None
        )
    if current is not None:
        for span, date in overlay.date_overrides.get(source, {}).get(asn, ()):
            if day in span and date is not None and current.is_delegated:
                current = current.with_date(date)
        holes = overlay.record_drops.get(source, {}).get(asn, ())
        if not any(day in hole for hole in holes):
            rows.append(current)
    for span, record in overlay.extra_records.get(source, {}).get(asn, ()):
        if day in span and (record.is_delegated or not regular):
            rows.append(record)
    return _sorted_rows(rows)


class TestStintRow:
    def test_frozen(self, world):
        stint = make_archive(world).timeline(("ripencc", EXTENDED))[world["asns"][0]][0]
        for f in dataclasses.fields(Stint):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(stint, f.name, getattr(stint, f.name))

    def test_fields_unchanged(self):
        assert [f.name for f in dataclasses.fields(Stint)] == ["start", "end", "record"]

    def test_eq_and_hash_follow_the_field_tuple(self):
        record = DelegationRecord("ripencc", "", 7, None, Status.AVAILABLE)
        a = Stint(10, 20, record)
        assert a == Stint(10, 20, DelegationRecord("ripencc", "", 7, None, Status.AVAILABLE))
        assert hash(a) == hash((10, 20, record))
        assert a != Stint(10, 21, record)
        assert a != (10, 20, record)

    def test_pickle_and_deepcopy_round_trip(self, world):
        stints = make_archive(world).timeline(("ripencc", EXTENDED))[world["asns"][0]]
        for clone in (pickle.loads(pickle.dumps(stints)), copy.deepcopy(stints)):
            assert clone == stints
            assert [hash(s) for s in clone] == [hash(s) for s in stints]
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone[0].end = 0
