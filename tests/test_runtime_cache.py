"""Tests for the content-addressed artifact cache (repro.runtime.cache).

The properties under test are the ones the pipeline relies on: equal
inputs address the same entry, *any* changed input (including the
pipeline version tag) addresses a different one, and corrupt entries
degrade to misses instead of poisoning later runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.rir.pitfalls import PitfallConfig
from repro.runtime import (
    PIPELINE_VERSION,
    ArtifactCache,
    Tracer,
    cache_key,
    fingerprint,
)
from repro.simulation import build_datasets
from repro.simulation.config import tiny


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


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t", n=1)
        assert cache.load(key) is None
        cache.store(key, {"payload": [1, 2, 3]})
        assert key in cache
        assert cache.load(key) == {"payload": [1, 2, 3]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_for_includes_version_tag(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        implicit = cache.key_for(artifact="t")
        explicit = cache.key_for(artifact="t", pipeline_version=PIPELINE_VERSION)
        bumped = cache.key_for(artifact="t", pipeline_version="9999.99-1")
        assert implicit == explicit
        assert implicit != bumped

    def test_config_change_invalidates(self, tmp_path):
        cache = _clean_cache(tmp_path)
        base = tiny()
        key = cache.key_for(artifact="bundle", config=base)
        cache.store(key, "built-for-base")
        changed = tiny(seed=base.seed + 1)
        assert cache.load(cache.key_for(artifact="bundle", config=changed)) is None
        assert cache.load(key) == "built-for-base"

    def test_get_or_build_builds_once(self, tmp_path):
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t")
        calls = []

        def builder():
            calls.append(1)
            return "artifact"

        assert cache.get_or_build(key, builder) == "artifact"
        assert cache.get_or_build(key, builder) == "artifact"
        assert len(calls) == 1

    def test_get_or_build_caches_none(self, tmp_path):
        # a builder legitimately returning None must hit on the second
        # call, not rebuild forever (the envelope distinguishes a
        # cached None from a miss)
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="maybe-empty")
        calls = []

        def builder():
            calls.append(1)
            return None

        assert cache.get_or_build(key, builder) is None
        assert cache.get_or_build(key, builder) is None
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_or_build_caches_falsy_values(self, tmp_path):
        cache = _clean_cache(tmp_path)
        for i, value in enumerate(([], {}, 0, "")):
            key = cache.key_for(artifact="falsy", n=i)
            assert cache.get_or_build(key, lambda v=value: v) == value
            assert cache.get_or_build(key, lambda: pytest.fail("rebuilt")) == value

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t")
        cache.store(key, "ok")
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.load(key) is None
        assert key not in cache
        # removed from the entry directory, but preserved in quarantine
        assert cache.quarantined == 1
        assert list(cache.quarantine_dir.iterdir())

    def test_store_writes_sidecar_manifest(self, tmp_path):
        import hashlib
        import json

        from repro.runtime import MANIFEST_FORMAT

        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t")
        cache.store(key, "payload")
        manifest = json.loads(cache.manifest_path_for(key).read_text())
        blob = cache.path_for(key).read_bytes()
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["length"] == len(blob)
        assert manifest["sha256"] == hashlib.sha256(blob).hexdigest()
        assert manifest["pipeline_version"] == PIPELINE_VERSION

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = _clean_cache(tmp_path)
        cache.store(cache.key_for(artifact="t"), list(range(100)))
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_store_overwrites_atomically(self, tmp_path):
        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="t")
        cache.store(key, "v1")
        cache.store(key, "v2")
        assert cache.load(key) == "v2"

    def test_concurrent_threaded_stores_cannot_collide(self, tmp_path):
        # pid-only temp names collide across threads of one process;
        # the uniquifier makes every store's temp files distinct, so
        # racing stores of the same key leave one valid winner
        from concurrent.futures import ThreadPoolExecutor

        cache = _clean_cache(tmp_path)
        key = cache.key_for(artifact="racy")
        payload = list(range(2000))
        with ThreadPoolExecutor(max_workers=8) as pool:
            for result in pool.map(
                lambda _: cache.store(key, payload), range(32)
            ):
                assert result is not None
        assert cache.store_failures == 0
        assert cache.load(key) == payload
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
        assert cache.hits == 1
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

    def test_parameter_change_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        build_datasets(tiny(seed=7), cache=cache)
        build_datasets(tiny(seed=7), cache=cache, timeout=60)
        # timeout is part of the bundle key, so both builds miss
        assert cache.misses == 2
        assert cache.hits == 0
