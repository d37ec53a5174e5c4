"""Tests for the serve store: codec, publish/append, fault recovery.

The load-bearing property is byte-identity: a store reached by
``append_days`` must be indistinguishable — file for file, byte for
byte, including the snapshot digest — from one fully rebuilt over the
same day range.  Everything the query layer serves rests on that.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bgp import PathOracle, all_peer_asns
from repro.core.taxonomy import Category
from repro.lifetimes.records import AdminLifetime, BgpLifetime
from repro.runtime.cache import ArtifactCache, cache_key
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.serve.append import append_days
from repro.serve.index import StoreIndex
from repro.serve.store import (
    INDEX_NAME,
    MANIFEST_NAME,
    AsnRecord,
    ServeStoreError,
    StoreMeta,
    build_store,
    config_from_fingerprint,
    decode_shard,
    encode_shard,
    load_bytes_verified,
    plan_shards,
    store_bytes_verified,
    store_publisher,
)
from repro.simulation.config import WorldConfig, tiny
from repro.simulation.datasets import build_datasets
from repro.timeline.intervals import Interval, IntervalSet


def _record(asn=64500, **overrides) -> AsnRecord:
    record = AsnRecord(asn=asn)
    record.admin = [AdminLifetime(
        asn=asn, start=100, end=900, reg_date=90,
        registries=("ripencc", "arin"), cc="DE", org_id="örg-ü1",
        open_ended=True, via_nir=False, left_censored=True,
    )]
    record.op = [BgpLifetime(asn=asn, start=150, end=400, open_ended=False)]
    record.admin_cats = [Category.PARTIAL_OVERLAP]
    record.op_cats = [Category.PARTIAL_OVERLAP]
    record.observed = IntervalSet([Interval(150, 300), Interval(320, 400)])
    record.single = IntervalSet([Interval(301, 310)])
    for key, value in overrides.items():
        setattr(record, key, value)
    return record


class TestShardCodec:
    def test_roundtrip_preserves_everything(self):
        records = [_record(64500), _record(64501, admin=[], admin_cats=[])]
        decoded = decode_shard(encode_shard(records))
        assert decoded == records

    def test_non_ascii_strings_survive(self):
        decoded = decode_shard(encode_shard([_record()]))
        assert decoded[0].admin[0].org_id == "örg-ü1"

    def test_flags_roundtrip_independently(self):
        for flags in range(8):
            life = AdminLifetime(
                asn=1, start=1, end=2, reg_date=1, registries=("x",),
                open_ended=bool(flags & 1), via_nir=bool(flags & 2),
                left_censored=bool(flags & 4),
            )
            record = _record(admin=[life], admin_cats=[Category.UNUSED])
            got = decode_shard(encode_shard([record])).pop().admin[0]
            assert (got.open_ended, got.via_nir, got.left_censored) == (
                life.open_ended, life.via_nir, life.left_censored)

    def test_encoding_is_deterministic(self):
        assert encode_shard([_record()]) == encode_shard([_record()])

    def test_rejects_non_json(self):
        with pytest.raises(ServeStoreError, match="not valid JSON"):
            decode_shard(b"\xff\xfe not json")

    def test_rejects_wrong_format_tag(self):
        blob = json.dumps({"format": "something-else"}).encode()
        with pytest.raises(ServeStoreError, match="serve-shard/v1"):
            decode_shard(blob)

    def test_rejects_malformed_rows(self):
        doc = json.loads(encode_shard([_record()]).decode())
        doc["admin"][0][0] = [1, 2]  # row truncated mid-fields
        with pytest.raises(ServeStoreError, match="malformed shard row"):
            decode_shard(json.dumps(doc).encode())


class TestStoreMeta:
    def test_roundtrip(self):
        meta = StoreMeta(start=10, end=99, timeout=14, min_peers=3,
                         min_corroboration=2, shard_size=7)
        assert StoreMeta.from_json_dict(meta.to_json_dict()) == meta

    def test_rejects_missing_fields(self):
        with pytest.raises(ServeStoreError, match="malformed store meta"):
            StoreMeta.from_json_dict({"start": 1})


class TestPlanShards:
    def test_boundaries_cover_exactly(self):
        plan = plan_shards(list(range(10)), shard_size=4)
        assert plan == [("shard-00000.json", 0, 3),
                        ("shard-00001.json", 4, 7),
                        ("shard-00002.json", 8, 9)]

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            plan_shards([1, 2], shard_size=0)


@pytest.fixture(scope="module")
def bundle():
    return build_datasets(tiny(seed=11))


def _window(config):
    end = config.end_day
    return end - 59, end


class TestRoutedBytesPinned:
    """Routed output pinned to constants, so a routing change that
    alters what collectors see fails here even though the columnar
    engine and its object-stream oracle (which share one path oracle)
    would drift together.

    The store index alone is a coarse pin: at this scale most ASNs stay
    visible to two or more peers whichever equal-length path wins, so
    the vantage paths themselves are pinned too.
    """

    #: sha256 of the index a 30-day store over ``tiny(seed=11)``
    #: publishes.  The snapshot identity names no build, so this holds
    #: on any commit, dirty or clean, and under ambient fault injection.
    INDEX_SHA256 = (
        "cb9e473c51a25e0f45f031700bb1c332ef3cafaaad24d402037ec82c6de2e8e6"
    )
    #: sha256 of every collector peer's path to every announcer of the
    #: same world, in the oracle's order.
    PATHS_SHA256 = (
        "eae0cf24c799c7f77d0c0183120ce42a4b43f7609281d91dba6c987c5c9f4958"
    )

    def test_store_index(self, bundle, tmp_path):
        end = bundle.world.config.end_day
        build_store(tmp_path, bundle.world, bundle.admin_lives,
                    start=end - 29, end=end, faults=None)
        digest = hashlib.sha256((tmp_path / INDEX_NAME).read_bytes()).hexdigest()
        assert digest == self.INDEX_SHA256

    def test_vantage_paths(self, bundle):
        world = bundle.world
        oracle = PathOracle(world.topology, all_peer_asns(world.collectors))
        rows = [
            [a, [[v, list(p)] for v, p in oracle.paths_for(a).items()]]
            for a in sorted(world.topology.asns())
        ]
        blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == self.PATHS_SHA256


class TestBuildAndAppend:
    def test_append_is_byte_identical_to_rebuild(self, bundle, tmp_path):
        config = bundle.world.config
        start, end = _window(config)
        full, inc = tmp_path / "full", tmp_path / "inc"
        doc_full = build_store(full, bundle.world, bundle.admin_lives,
                               start=start, end=end, faults=None)
        build_store(inc, bundle.world, bundle.admin_lives,
                    start=start, end=end - 3, faults=None)
        doc_inc = append_days(inc, bundle.world, 3, faults=None)
        assert doc_full == doc_inc
        names = sorted(p.name for p in full.iterdir())
        assert names == sorted(p.name for p in inc.iterdir())
        for name in names:
            assert (full / name).read_bytes() == (inc / name).read_bytes(), name

    def test_append_one_day_at_a_time_matches_one_shot(self, bundle, tmp_path):
        config = bundle.world.config
        start, end = _window(config)
        a, b = tmp_path / "oneshot", tmp_path / "daily"
        build_store(a, bundle.world, bundle.admin_lives,
                    start=start, end=end - 2, faults=None)
        append_days(a, bundle.world, 2, faults=None)
        build_store(b, bundle.world, bundle.admin_lives,
                    start=start, end=end - 2, faults=None)
        append_days(b, bundle.world, 1, faults=None)
        append_days(b, bundle.world, 1, faults=None)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_republish_is_idempotent(self, bundle, tmp_path):
        config = bundle.world.config
        start, end = _window(config)
        doc1 = build_store(tmp_path, bundle.world, bundle.admin_lives,
                           start=start, end=end, faults=None)
        mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        doc2 = build_store(tmp_path, bundle.world, bundle.admin_lives,
                           start=start, end=end, faults=None)
        assert doc1 == doc2
        # unchanged files were recognized and not republished
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == mtimes

    def test_append_rejects_foreign_world(self, bundle, tmp_path):
        config = bundle.world.config
        start, end = _window(config)
        build_store(tmp_path, bundle.world, bundle.admin_lives,
                    start=start, end=end - 2, faults=None)
        other = build_datasets(WorldConfig(seed=99, scale=0.004)).world
        with pytest.raises(ServeStoreError, match="config"):
            append_days(tmp_path, other, 1, faults=None)

    def test_append_rejects_running_past_world_end(self, bundle, tmp_path):
        config = bundle.world.config
        start, end = _window(config)
        build_store(tmp_path, bundle.world, bundle.admin_lives,
                    start=start, end=end, faults=None)
        with pytest.raises(ServeStoreError, match="last simulated day"):
            append_days(tmp_path, bundle.world, 1, faults=None)

    def test_append_rejects_nonpositive_days(self, bundle, tmp_path):
        with pytest.raises(ServeStoreError, match="at least one day"):
            append_days(tmp_path, bundle.world, 0, faults=None)

    def test_snapshot_registers_in_run_index(self, bundle, tmp_path):
        from repro.runtime.runs import resolve_run

        config = bundle.world.config
        start, end = _window(config)
        index_path = tmp_path / "runs.jsonl"
        doc = build_store(tmp_path / "store", bundle.world, bundle.admin_lives,
                          start=start, end=end, faults=None,
                          runs_index=index_path)
        entry = resolve_run(index_path, doc["digest"][:10])
        assert entry["digest"] == doc["digest"]
        assert entry["artifacts"]["store"].endswith(INDEX_NAME)

    def test_config_fingerprint_roundtrip(self, bundle, tmp_path):
        config = bundle.world.config
        start, end = _window(config)
        build_store(tmp_path, bundle.world, bundle.admin_lives,
                    start=start, end=end, faults=None)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        rebuilt = config_from_fingerprint(manifest["config"])
        assert cache_key(config=rebuilt) == cache_key(config=config)

    def test_config_fingerprint_rejects_garbage(self):
        with pytest.raises(ServeStoreError):
            config_from_fingerprint({"__class__": "SomethingElse"})


class TestFaultRecovery:
    """Satellite coverage: torn store publishes must heal or fail typed."""

    def test_publish_retries_through_torn_write(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec("cache:write", "torn-write", rate=1.0, max_fires=2)]
        )
        cache = store_publisher(tmp_path, faults=injector)
        store_bytes_verified(cache, "store.json", b'{"x": 1}\n')
        assert injector.fired() >= 1
        assert load_bytes_verified(cache, "store.json") == b'{"x": 1}\n'

    def test_publish_retries_through_failed_rename(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec("cache:replace", "oserror", rate=1.0, max_fires=2)]
        )
        cache = store_publisher(tmp_path, faults=injector)
        store_bytes_verified(cache, "shard-00000.json", b"payload")
        assert load_bytes_verified(cache, "shard-00000.json") == b"payload"

    def test_publish_raises_typed_error_when_budget_exhausted(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec("cache:write", "truncate", rate=1.0, max_fires=None)]
        )
        cache = store_publisher(tmp_path, faults=injector)
        with pytest.raises(ServeStoreError, match="could not publish"):
            store_bytes_verified(cache, "store.json", b"payload", retries=3)

    def test_load_raises_typed_error_on_missing_file(self, tmp_path):
        cache = store_publisher(tmp_path, faults=None)
        with pytest.raises(ServeStoreError, match="missing"):
            load_bytes_verified(cache, "store.json", retries=2)

    def test_corrupt_payload_on_disk_is_quarantined_not_served(self, tmp_path):
        cache = store_publisher(tmp_path, faults=None)
        store_bytes_verified(cache, "shard-00000.json", b"good bytes")
        (tmp_path / "shard-00000.json").write_bytes(b"flipped")
        assert cache.load_named("shard-00000.json") is None  # quarantined
        with pytest.raises(ServeStoreError):
            load_bytes_verified(cache, "shard-00000.json", retries=2)

    def test_torn_store_heals_end_to_end(self, bundle, tmp_path):
        """A full publish under injected torn writes still yields a store
        that opens clean and matches a fault-free build byte for byte."""
        config = bundle.world.config
        start, end = _window(config)
        injector = FaultInjector(
            [FaultSpec("cache:write", "torn-write", rate=0.3, max_fires=4)],
            seed=7,
        )
        faulty, clean = tmp_path / "faulty", tmp_path / "clean"
        build_store(faulty, bundle.world, bundle.admin_lives,
                    start=start, end=end, faults=injector)
        build_store(clean, bundle.world, bundle.admin_lives,
                    start=start, end=end, faults=None)
        assert injector.fired() >= 1
        for path in sorted(clean.iterdir()):
            assert path.read_bytes() == (faulty / path.name).read_bytes()
        StoreIndex.open(faulty, faults=None)  # opens and validates


class TestNamedCacheEntries:
    """The cache machinery the store rides on (satellite 3)."""

    def test_store_and_load_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        cache.store_named("store.json", b"hello")
        assert cache.load_named("store.json") == b"hello"
        assert (tmp_path / "store.json").is_file()
        assert (tmp_path / "store.json.manifest.json").is_file()

    def test_overwrite_replaces_atomically(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        cache.store_named("a.json", b"one")
        cache.store_named("a.json", b"two")
        assert cache.load_named("a.json") == b"two"

    def test_missing_entry_is_none(self, tmp_path):
        assert ArtifactCache(tmp_path, faults=None).load_named("nope") is None

    def test_rejects_path_escapes(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        for name in ("../evil", "a/b", "", ".hidden"):
            with pytest.raises(ValueError):
                cache.store_named(name, b"x")

    def test_no_temp_wreckage_after_faulty_publish(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec("cache:write", "disk-full", rate=1.0, max_fires=1)]
        )
        cache = ArtifactCache(tmp_path, faults=injector, strict_store=False)
        cache.store_named("x.json", b"payload")  # non-strict: swallowed
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []
