"""Tests for the content-addressed artifact cache (repro.runtime.cache).

The properties under test are the ones the pipeline relies on: equal
inputs address the same entry, *any* changed input (including the
pipeline version tag) addresses a different one, and corrupt entries
degrade to misses instead of poisoning later runs.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass

import pytest

from repro.rir import DelegationRecord, Status, Stint
from repro.rir.pitfalls import PitfallConfig
from repro.runtime import (
    PIPELINE_VERSION,
    ArtifactCache,
    Tracer,
    cache_key,
    fingerprint,
)
from repro.simulation import DatasetBundle, build_datasets
from repro.simulation.config import tiny
from repro.timeline import Interval, IntervalSet


@dataclass
class _Cfg:
    x: int = 1
    tag: str = "a"


class TestFingerprint:
    def test_dataclass_includes_class_name(self):
        fp = fingerprint(_Cfg())
        assert fp["__class__"] == "_Cfg"
        assert fp["x"] == 1

    def test_dict_key_order_is_canonical(self):
        assert fingerprint({"b": 2, "a": 1}) == fingerprint({"a": 1, "b": 2})

    def test_tuples_and_sets_canonicalize(self):
        assert fingerprint((1, 2)) == [1, 2]
        assert fingerprint({3, 1, 2}) == [1, 2, 3]

    def test_world_config_is_fingerprintable(self):
        fp = fingerprint(tiny())
        assert fp["__class__"] == "WorldConfig"

    def test_pitfall_config_is_fingerprintable(self):
        assert fingerprint(PitfallConfig())["__class__"] == "PitfallConfig"

    def test_rejects_non_canonical_values(self):
        with pytest.raises(TypeError):
            fingerprint(lambda: None)


class TestCacheKey:
    def test_stable_across_kwarg_order(self):
        assert cache_key(a=1, b=2) == cache_key(b=2, a=1)

    def test_differs_on_value_change(self):
        assert cache_key(a=1) != cache_key(a=2)

    def test_differs_on_config_change(self):
        assert cache_key(config=_Cfg(x=1)) != cache_key(config=_Cfg(x=2))


def _clean_cache(root, **kwargs) -> ArtifactCache:
    """A cache with fault injection off, for tests pinning exact
    hit/miss bookkeeping (the CI suite also runs under ambient
    REPRO_FAULT_SEED injection, which would skew the counters)."""
    return ArtifactCache(root, faults=None, **kwargs)


def _counters(tracer: Tracer) -> dict:
    """The run's ``cache.*`` counters (read without creating any)."""
    return {
        name: value
        for name, value in tracer.metrics.snapshot()["counters"].items()
        if name.startswith("cache.")
    }


def _cache_spans(tracer: Tracer) -> list:
    return [
        (span.name, dict(span.attrs))
        for span in tracer.stage_spans()
        if span.name.startswith("cache:")
    ]


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = _clean_cache(tmp_path)
        run = Tracer()
        key = cache.key_for(artifact="t", n=1)
        assert cache.load(key, tracer=run) is None
        cache.store(key, {"payload": [1, 2, 3]}, tracer=run)
        assert key in cache
        assert cache.load(key, tracer=run) == {"payload": [1, 2, 3]}
        assert _counters(run) == {
            "cache.hits": 1, "cache.misses": 1, "cache.stores": 1,
        }

    def test_cache_keeps_no_account_of_its_own(self, tmp_path):
        cache = _clean_cache(tmp_path)
        for name in ("metrics", "events", "hits", "misses", "corrupt",
                     "quarantined", "store_failures"):
            assert not hasattr(cache, name), name

    def test_key_for_includes_version_tag(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        implicit = cache.key_for(artifact="t")
        explicit = cache.key_for(artifact="t", pipeline_version=PIPELINE_VERSION)
        bumped = cache.key_for(artifact="t", pipeline_version="9999.99-1")
        assert implicit == explicit
        assert implicit != bumped

    def test_config_change_invalidates(self, tmp_path):
        cache = _clean_cache(tmp_path)
        run = Tracer()
        base = tiny()
        key = cache.key_for(artifact="bundle", config=base)
        cache.store(key, "built-for-base", tracer=run)
        changed = tiny(seed=base.seed + 1)
        assert cache.load(
            cache.key_for(artifact="bundle", config=changed), tracer=run
        ) is None
        assert cache.load(key, tracer=run) == "built-for-base"

    def test_get_or_build_builds_once(self, tmp_path):
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t")
        calls = []

        def builder():
            calls.append(1)
            return 42

        cold, warm = Tracer(), Tracer()
        assert cache.get_or_build(key, builder, tracer=cold) == 42
        assert cache.get_or_build(key, builder, tracer=warm) == 42
        assert len(calls) == 1
        assert _cache_spans(cold) == [
            ("cache:lookup", {"component": "cache", "cache": "miss"}),
            ("cache:store", {"component": "cache"}),
        ]
        assert _cache_spans(warm) == [
            ("cache:lookup", {"component": "cache", "items": 1, "cache": "hit"}),
        ]

    def test_get_or_build_spans_count_a_sized_artifact(self, tmp_path):
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="rows")
        cold, warm = Tracer(), Tracer()
        for run in (cold, warm):
            assert cache.get_or_build(key, lambda: [1, 2, 3], tracer=run) == [1, 2, 3]
        assert _cache_spans(cold) == [
            ("cache:lookup", {"component": "cache", "cache": "miss"}),
            ("cache:store", {"items": 3, "component": "cache"}),
        ]
        assert _cache_spans(warm) == [
            ("cache:lookup", {"component": "cache", "items": 3, "cache": "hit"}),
        ]

    def test_get_or_build_builder_stages_sit_between_its_spans(self, tmp_path):
        cache = _clean_cache(tmp_path)
        run = Tracer()

        def builder():
            with run.stage("build"):
                return "artifact"

        cache.get_or_build(cache.key_for(artifact="t"), builder, tracer=run)
        assert [span.name for span in run.stage_spans()] == [
            "cache:lookup", "build", "cache:store",
        ]
        assert {span.parent_id for span in run.stage_spans()} == {
            run.root.span_id
        }

    def test_get_or_build_caches_none(self, tmp_path):
        # a builder legitimately returning None must hit on the second
        # call, not rebuild forever (the envelope distinguishes a
        # cached None from a miss)
        cache = _clean_cache(tmp_path)
        run = Tracer()
        key = cache.key_for(artifact="maybe-empty")
        calls = []

        def builder():
            calls.append(1)
            return None

        assert cache.get_or_build(key, builder, tracer=run) is None
        assert cache.get_or_build(key, builder, tracer=run) is None
        assert len(calls) == 1
        counters = _counters(run)
        assert (counters["cache.hits"], counters["cache.misses"]) == (1, 1)

    def test_get_or_build_caches_falsy_values(self, tmp_path):
        cache = _clean_cache(tmp_path)
        run = Tracer()
        for i, value in enumerate(([], {}, 0, "")):
            key = cache.key_for(artifact="falsy", n=i)
            assert cache.get_or_build(key, lambda v=value: v, tracer=run) == value
            assert cache.get_or_build(
                key, lambda: pytest.fail("rebuilt"), tracer=run
            ) == value

    def test_payload_without_envelope_is_a_miss_and_rebuilt(self, tmp_path):
        # a checksum-valid entry that store() did not write (no
        # envelope) is never returned: a miss, then a rebuild
        import hashlib
        import json
        import pickle

        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="bare")
        cache.store(key, "enveloped", tracer=Tracer())
        bare = pickle.dumps("bare payload")
        cache.path_for(key).write_bytes(bare)
        manifest_path = cache.manifest_path_for(key)
        manifest = json.loads(manifest_path.read_text())
        manifest.update(sha256=hashlib.sha256(bare).hexdigest(), length=len(bare))
        manifest_path.write_text(json.dumps(manifest))

        run = Tracer()
        assert cache.get_or_build(key, lambda: "rebuilt", tracer=run) == "rebuilt"
        assert _counters(run) == {"cache.misses": 1, "cache.stores": 1}
        assert run.events == [
            f"cache: entry {key[:12]} has no envelope; treating as miss"
        ]
        assert cache.load(key, tracer=run) == "rebuilt"

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = _clean_cache(tmp_path)
        run = Tracer()
        key = cache.key_for(artifact="t")
        cache.store(key, "ok", tracer=run)
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.load(key, tracer=run) is None
        assert key not in cache
        # removed from the entry directory, but preserved in quarantine
        assert _counters(run)["cache.quarantined"] == 1
        assert list(cache.quarantine_dir.iterdir())

    def test_store_writes_sidecar_manifest(self, tmp_path):
        import hashlib
        import json

        from repro.runtime import MANIFEST_FORMAT

        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t")
        cache.store(key, "payload", tracer=Tracer())
        manifest = json.loads(cache.manifest_path_for(key).read_text())
        blob = cache.path_for(key).read_bytes()
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["length"] == len(blob)
        assert manifest["sha256"] == hashlib.sha256(blob).hexdigest()
        assert manifest["pipeline_version"] == PIPELINE_VERSION

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = _clean_cache(tmp_path)
        cache.store(cache.key_for(artifact="t"), list(range(100)), tracer=Tracer())
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_store_overwrites_atomically(self, tmp_path):
        cache = _clean_cache(tmp_path)
        run = Tracer()
        key = cache.key_for(artifact="t")
        cache.store(key, "v1", tracer=run)
        cache.store(key, "v2", tracer=run)
        assert cache.load(key, tracer=run) == "v2"

    def test_concurrent_threaded_stores_cannot_collide(self, tmp_path):
        # pid-only temp names collide across threads of one process;
        # the uniquifier makes every store's temp files distinct, so
        # racing stores of the same key leave one valid winner
        from concurrent.futures import ThreadPoolExecutor

        cache = _clean_cache(tmp_path)
        run = Tracer()
        key = cache.key_for(artifact="racy")
        payload = list(range(2000))
        with ThreadPoolExecutor(max_workers=8) as pool:
            for result in pool.map(
                lambda _: cache.store(key, payload, tracer=run), range(32)
            ):
                assert result is not None
        assert "cache.store_failures" not in _counters(run)
        assert cache.load(key, tracer=run) == payload
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]


@pytest.fixture(scope="module")
def serial_bundle():
    return build_datasets(tiny(seed=7))


class TestCachedBundle:
    def test_warm_hit_equals_cold_build(self, tmp_path, serial_bundle):
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        cold = build_datasets(tiny(seed=7), cache=cache)
        tracer = Tracer()
        warm = build_datasets(tiny(seed=7), cache=cache, tracer=tracer)
        assert _counters(tracer) == {"cache.hits": 1}
        # a hit returns before any pipeline stage runs
        assert [s.name for s in tracer.stage_spans()] == ["cache:lookup"]
        for bundle in (cold, warm):
            assert bundle.restored.stints == serial_bundle.restored.stints
            assert bundle.admin_lives == serial_bundle.admin_lives
            assert bundle.op_lives == serial_bundle.op_lives
            assert (
                bundle.joint.taxonomy.table3_rows()
                == serial_bundle.joint.taxonomy.table3_rows()
            )

    def test_hit_decodes_each_part_on_first_access(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        cold = build_datasets(tiny(seed=7), cache=cache)
        warm = build_datasets(tiny(seed=7), cache=cache)
        assert isinstance(warm, DatasetBundle)
        assert set(warm.__dict__) == {"_parts"}  # nothing decoded yet
        assert warm.admin_lives == cold.admin_lives
        assert set(warm.__dict__) == {"_parts", "admin_lives"}
        # a bundle always unpickles partitioned
        again = pickle.loads(pickle.dumps(warm))
        assert set(again.__dict__) == {"_parts"}
        assert again.op_lives == cold.op_lives

    def test_parameter_change_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        run = Tracer()
        build_datasets(tiny(seed=7), cache=cache, tracer=run)
        build_datasets(tiny(seed=7), cache=cache, tracer=run, timeout=60)
        # timeout is part of the bundle key, so both builds miss
        counters = _counters(run)
        assert counters["cache.misses"] == 2
        assert "cache.hits" not in counters

    def test_dict_form_entry_under_the_old_key_is_never_returned(self, tmp_path):
        """Bundle entries written before bundles pickled themselves were
        ``{"format", "parts"}`` dicts under a key without the format
        tag; the new key never reaches them."""
        from repro.simulation.datasets import _bundle_cache_key

        config = tiny(seed=7)
        cache = ArtifactCache(tmp_path, faults=None)
        old_key = cache.key_for(
            artifact="dataset-bundle",
            config=config,
            inject_pitfalls=True,
            pitfall_config=PitfallConfig(),
            timeout=30,
            min_peers=2,
            scenario=None,
        )
        new_key = _bundle_cache_key(
            cache, config, inject_pitfalls=True, pitfall_config=None,
            timeout=30, min_peers=2,
        )
        assert new_key != old_key
        planted = {"format": "dataset-bundle-parts/v1", "parts": {}}
        cache.store(old_key, planted, tracer=Tracer())

        run = Tracer()
        bundle = build_datasets(config, cache=cache, tracer=run)
        assert isinstance(bundle, DatasetBundle)
        assert bundle.admin_lives  # a real, rebuilt bundle
        assert _counters(run) == {"cache.misses": 1, "cache.stores": 1}
        assert cache.load(old_key, tracer=run) == planted  # left untouched

    def test_shared_cache_splits_its_account_run_by_run(self, tmp_path):
        """One cache directory serving two runs, with its entry
        corrupted between them: each run's own metrics and events hold
        exactly its own outcomes, and the degradation is annotated on
        the span where it happened."""
        cache = ArtifactCache(tmp_path, faults=None)
        first, second = Tracer(), Tracer()
        build_datasets(tiny(seed=3), cache=cache, tracer=first)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"corrupt")
        build_datasets(tiny(seed=3), cache=cache, tracer=second)

        assert _counters(first) == {"cache.misses": 1, "cache.stores": 1}
        assert first.events == []
        assert _counters(second) == {
            "cache.misses": 1, "cache.verify_failures": 1,
            "cache.quarantined": 1, "cache.stores": 1,
        }
        key = entry.name[:12]
        assert len(second.events) == 2
        assert second.events[0] == f"cache: entry {key} failed sha256 verification"
        assert second.events[1].startswith(
            f"cache: quarantined corrupt entry {entry.name} -> "
        )
        (lookup,) = [s for s in second.stage_spans() if s.name == "cache:lookup"]
        assert lookup.annotations == second.events
        assert second.root.annotations == []


#: ``pickle.dumps((stint, interval_set, interval), HIGHEST_PROTOCOL)``,
#: written before ``Stint``, ``DelegationRecord`` and ``Interval`` had
#: slots: the stint, its record and the bare interval carry a field
#: dict as their state.  Artifact-cache entries from those builds hold
#: the same form, and must still load.
_DICT_STATE_ROWS = bytes.fromhex(
    "80059566010000000000008c11726570726f2e7269722e61726368697665948c05537469"
    "6e749493942981947d94288c057374617274944db0368c03656e64944d14378c06726563"
    "6f7264948c0f726570726f2e7269722e6d6f64656c948c1044656c65676174696f6e5265"
    "636f72649493942981947d94288c087265676973747279948c07726970656e6363948c02"
    "6363948c024954948c0361736e944d050d8c087265675f64617465944db0368c06737461"
    "7475739468088c065374617475739493948c09616c6c6f636174656494859452948c096f"
    "70617175655f6964948c054f52472d3194756275628c086275696c74696e73948c076765"
    "74617474729493948c18726570726f2e74696d656c696e652e696e74657276616c73948c"
    "0b496e74657276616c5365749493948c0a5f66726f6d5f666c61749486945294284b0a4b"
    "144b1e4b28749485945294681e8c08496e74657276616c9493942981947d942868054b05"
    "68064b09756287942e"
)


class TestRowsPickledBeforeSlots:
    def test_dict_state_rows_load_equal_and_frozen(self):
        stint, interval_set, interval = pickle.loads(_DICT_STATE_ROWS)
        record = DelegationRecord(
            "ripencc", "IT", 3333, 14000, Status.ALLOCATED, "ORG-1"
        )
        expected = Stint(14000, 14100, record)
        assert stint == expected and hash(stint) == hash(expected)
        assert stint.record == record and hash(stint.record) == hash(record)
        assert interval_set == IntervalSet([Interval(10, 20), Interval(30, 40)])
        assert interval == Interval(5, 9) and hash(interval) == hash(Interval(5, 9))
        for row, name in (
            (stint, "end"), (stint.record, "cc"), (interval, "start"),
            (next(iter(interval_set)), "end"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(row, name, 0)
        # and they pickle again in the current form
        assert pickle.loads(pickle.dumps(stint)) == expected
