"""Fault-matrix tests: every injector × every hardened runtime path.

The contract under test: every injected failure — torn write,
truncated entry, manifest mismatch, read/write/replace ``OSError``,
disk full, read-only directory — must end in either a correct rebuilt
artifact or a clean, typed error.  Never a silent wrong answer, and never an infinite
rebuild loop.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import types
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import (
    ArtifactCache,
    CacheStoreError,
    FaultInjector,
    FaultSpec,
    Tracer,
)
from repro.runtime.faults import from_env
from repro.simulation import build_datasets
from repro.simulation.config import tiny


def _always(site: str, kind: str) -> FaultInjector:
    """An injector that fires one fault kind at one site, forever."""
    return FaultInjector([FaultSpec(site, kind, max_fires=None)], seed=0)


def _once(site: str, kind: str) -> FaultInjector:
    """An injector that fires exactly once (a transient failure)."""
    return FaultInjector([FaultSpec(site, kind, max_fires=1)], seed=0)


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError):
            FaultSpec("cache:fsync", "oserror")

    def test_rejects_kind_at_wrong_site(self):
        with pytest.raises(ValueError):
            FaultSpec("cache:read", "torn-write")
        with pytest.raises(ValueError):
            FaultSpec("cache:replace", "truncate")

    def test_rejects_bad_rate_and_fires(self):
        with pytest.raises(ValueError):
            FaultSpec("cache:read", "oserror", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec("cache:read", "oserror", max_fires=0)


class TestInjectorDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            inj = FaultInjector(
                [FaultSpec("cache:read", "oserror", rate=0.5, max_fires=None)],
                seed=seed,
            )
            fired = []
            for i in range(50):
                try:
                    inj.on_read(f"entry-{i}")
                    fired.append(False)
                except OSError:
                    fired.append(True)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide
        assert any(run(7)) and not all(run(7))

    def test_max_fires_bounds_total(self):
        inj = _once("cache:read", "oserror")
        with pytest.raises(OSError):
            inj.on_read("a")
        inj.on_read("b")  # budget spent: no further faults
        assert inj.fired() == 1

    def test_event_log_records_site_and_kind(self):
        inj = _once("cache:replace", "read-only")
        with pytest.raises(OSError):
            inj.on_replace(Path("a.tmp"), Path("a"))
        assert inj.events[0].site == "cache:replace"
        assert inj.events[0].kind == "read-only"


def _counters(tracer: Tracer) -> dict:
    """The run's ``cache.*`` counters (read without creating any)."""
    return {
        name: value
        for name, value in tracer.metrics.snapshot()["counters"].items()
        if name.startswith("cache.")
    }


class TestCacheFaultMatrix:
    """Every cache-side injector ends in rebuild-or-typed-error."""

    PAYLOAD = {"rows": list(range(500)), "tag": "fault-matrix"}

    def _rebuilds_correctly(self, cache: ArtifactCache, key: str) -> None:
        """The invariant every fault must uphold: get_or_build returns
        the correct artifact afterwards."""
        assert cache.get_or_build(
            key, lambda: self.PAYLOAD, tracer=Tracer()
        ) == self.PAYLOAD

    def test_torn_write_detected_and_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=_once("cache:write", "torn-write"))
        run = Tracer()
        key = cache.key_for(artifact="torn")
        cache.store(key, self.PAYLOAD, tracer=run)
        assert cache.load(key, tracer=run) is None  # checksum catches the torn bytes
        counters = _counters(run)
        assert counters["cache.verify_failures"] == 1
        assert counters["cache.quarantined"] == 1
        assert list(cache.quarantine_dir.iterdir())  # bytes kept for forensics
        self._rebuilds_correctly(cache, key)
        assert cache.load(key, tracer=run) == self.PAYLOAD

    def test_torn_write_unverified_still_degrades_to_miss(self, tmp_path):
        # garbage bytes behind a manifest that vouches for them (a torn
        # write whose manifest was rewritten to match) pass the checksum
        # but fail to unpickle — degraded to a miss + quarantine, never
        # a wrong artifact
        cache = ArtifactCache(tmp_path, faults=None)
        run = Tracer()
        key = cache.key_for(artifact="torn-vouched")
        cache.store(key, self.PAYLOAD, tracer=run)
        garbage = b"\x80\x05 not a pickle"
        cache.path_for(key).write_bytes(garbage)
        manifest_path = cache.manifest_path_for(key)
        manifest = json.loads(manifest_path.read_text())
        manifest.update(
            sha256=hashlib.sha256(garbage).hexdigest(), length=len(garbage)
        )
        manifest_path.write_text(json.dumps(manifest))
        assert cache.load(key, tracer=run) is None
        counters = _counters(run)
        assert counters["cache.verify_failures"] == 1
        assert counters["cache.quarantined"] == 1
        assert any("failed to unpickle" in event for event in run.events)
        self._rebuilds_correctly(cache, key)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=_once("cache:write", "truncate"))
        run = Tracer()
        key = cache.key_for(artifact="trunc")
        cache.store(key, self.PAYLOAD, tracer=run)
        assert cache.path_for(key).stat().st_size == 0
        assert cache.load(key, tracer=run) is None
        self._rebuilds_correctly(cache, key)

    def test_manifest_mismatch_quarantines(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        run = Tracer()
        key = cache.key_for(artifact="tamper")
        cache.store(key, self.PAYLOAD, tracer=run)
        # bit rot: valid pickle, wrong bytes for the manifest
        cache.path_for(key).write_bytes(pickle.dumps("impostor"))
        assert cache.load(key, tracer=run) is None  # never returns the impostor
        counters = _counters(run)
        assert counters["cache.verify_failures"] == 1
        assert counters["cache.quarantined"] == 1
        self._rebuilds_correctly(cache, key)

    def test_entry_naming_a_vanished_module_is_rebuilt(
        self, tmp_path, monkeypatch
    ):
        """A checksum-valid entry whose pickle names a module that no
        longer imports (a dependency dropped since the entry was
        written) fails to unpickle: quarantined, counted as a verify
        failure, and rebuilt."""
        module = types.ModuleType("repro_dropped_dependency")

        class Graph:
            pass

        Graph.__module__ = module.__name__
        Graph.__qualname__ = "Graph"
        module.Graph = Graph
        monkeypatch.setitem(sys.modules, module.__name__, module)
        run = Tracer()
        cache = ArtifactCache(tmp_path, faults=None)
        key = cache.key_for(artifact="dropped-dependency")
        cache.store(key, {"graph": Graph(), **self.PAYLOAD}, tracer=run)
        # the module is gone: importing it now raises ImportError
        monkeypatch.setitem(sys.modules, module.__name__, None)

        assert cache.load(key, tracer=run) is None
        counters = _counters(run)
        assert counters["cache.verify_failures"] == 1
        assert counters["cache.quarantined"] == 1
        assert list(cache.quarantine_dir.iterdir())
        self._rebuilds_correctly(cache, key)
        assert cache.load(key, tracer=run) == self.PAYLOAD

    def test_missing_manifest_is_miss_without_quarantine(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        run = Tracer()
        key = cache.key_for(artifact="lost-manifest")
        cache.store(key, self.PAYLOAD, tracer=run)
        cache.manifest_path_for(key).unlink()
        assert cache.load(key, tracer=run) is None  # unverifiable → miss
        # ... but not proof of corruption
        assert "cache.quarantined" not in _counters(run)
        assert key in cache  # payload left for the rebuild to overwrite
        self._rebuilds_correctly(cache, key)

    def test_read_oserror_is_miss_then_rebuild(self, tmp_path):
        clean = ArtifactCache(tmp_path, faults=None)
        run = Tracer()
        key = clean.key_for(artifact="read-fault")
        clean.store(key, self.PAYLOAD, tracer=run)
        cache = ArtifactCache(tmp_path, faults=_once("cache:read", "oserror"))
        assert cache.load(key, tracer=run) is None
        # transient: next read hits
        assert cache.load(key, tracer=run) == self.PAYLOAD

    def test_disk_full_store_degrades_and_cleans_up(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=_always("cache:write", "disk-full"))
        run = Tracer()
        key = cache.key_for(artifact="full")
        assert cache.store(key, self.PAYLOAD, tracer=run) is None
        assert _counters(run) == {"cache.store_failures": 1}
        assert run.events  # degradation is surfaced, not swallowed
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        # the artifact is still produced, merely uncached
        self._rebuilds_correctly(cache, key)

    def test_read_only_store_degrades(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=_always("cache:write", "read-only"))
        key = cache.key_for(artifact="rofs")
        assert cache.store(key, self.PAYLOAD, tracer=Tracer()) is None
        self._rebuilds_correctly(cache, key)
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]

    def test_replace_failure_degrades_and_cleans_up(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=_always("cache:replace", "oserror"))
        key = cache.key_for(artifact="replace")
        assert cache.store(key, self.PAYLOAD, tracer=Tracer()) is None
        assert key not in cache
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]

    def test_failed_store_is_noted_on_the_store_span(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=_always("cache:write", "disk-full"))
        run = Tracer()
        key = cache.key_for(artifact="noted")
        cache.get_or_build(key, lambda: self.PAYLOAD, tracer=run)
        (store,) = [s for s in run.stage_spans() if s.name == "cache:store"]
        assert len(run.events) == 1
        assert run.events[0].startswith(f"cache: store of {key[:12]} failed")
        # the fault annotation and the degradation land on the span
        # where they happened, not on its parent
        assert store.annotations[-1] == run.events[0]
        assert run.root.annotations == []

    def test_strict_store_raises_typed_error(self, tmp_path):
        cache = ArtifactCache(
            tmp_path,
            faults=_always("cache:write", "disk-full"),
            strict_store=True,
        )
        with pytest.raises(CacheStoreError):
            cache.store(
                cache.key_for(artifact="strict"), self.PAYLOAD, tracer=Tracer()
            )

    def test_unpicklable_artifact_always_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        with pytest.raises(CacheStoreError):
            cache.store(cache.key_for(artifact="bad"), lambda: None, tracer=Tracer())

    def test_quarantine_restores_entry_replaced_by_racing_builder(self, tmp_path):
        # the unlink-race fix: quarantining on the evidence of *stale*
        # bytes must not destroy a fresh entry another builder renamed in
        cache = ArtifactCache(tmp_path, faults=None)
        run = Tracer()
        key = cache.key_for(artifact="race")
        cache.store(key, self.PAYLOAD, tracer=run)
        path = cache.path_for(key)
        stale_observation = b"the corrupt bytes some reader saw earlier"
        cache._quarantine(path, stale_observation, run)
        assert "cache.quarantined" not in _counters(run)
        assert cache.load(key, tracer=run) == self.PAYLOAD  # fresh entry survived

    def test_quarantine_keeps_genuinely_corrupt_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        run = Tracer()
        key = cache.key_for(artifact="bad-bytes")
        path = cache.path_for(key)
        tmp_path.mkdir(exist_ok=True)
        path.write_bytes(b"definitely corrupt")
        cache._quarantine(path, b"definitely corrupt", run)
        assert _counters(run) == {"cache.quarantined": 1}
        assert not path.exists()
        moved = list(cache.quarantine_dir.iterdir())
        assert len(moved) == 1
        assert moved[0].read_bytes() == b"definitely corrupt"


class TestPipelineUnderFaults:
    """End-to-end: faults anywhere, identical datasets everywhere."""

    def test_faulty_cache_never_changes_results(self, tmp_path):
        clean = build_datasets(tiny(seed=11))
        cache = ArtifactCache(
            tmp_path,
            faults=FaultInjector(
                [
                    # the first build writes two entries (delegation
                    # table, then bundle); tear both so the warm path
                    # has to reject each kind
                    FaultSpec("cache:write", "torn-write", max_fires=2),
                    FaultSpec("cache:read", "oserror", max_fires=1),
                ],
                seed=3,
            ),
        )
        # first build stores torn entries; the verified warm path must
        # reject them and rebuild rather than serve them
        first_run, second_run = Tracer(), Tracer()
        first = build_datasets(tiny(seed=11), cache=cache, tracer=first_run)
        second = build_datasets(tiny(seed=11), cache=cache, tracer=second_run)
        for bundle in (first, second):
            assert bundle.admin_lives == clean.admin_lives
            assert bundle.op_lives == clean.op_lives
        for run in (first_run, second_run):
            # every lookup degraded to a miss
            assert "cache.hits" not in _counters(run)

    def test_profile_lists_quarantine_events(self, tmp_path, capsys,
                                             monkeypatch):
        """``simulate --profile`` reports a quarantined cache entry
        under ``runtime events``, after the run's span tree."""
        # the test plants its own corruption; ambient injection could
        # fail the first store and leave nothing to corrupt
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        argv = [
            "simulate", "--scale", "0.006", "--seed", "3",
            "--out", str(tmp_path / "data"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        entries = sorted((tmp_path / "cache").glob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"corrupt")
        capsys.readouterr()
        assert main([*argv, "--profile"]) == 0
        out = capsys.readouterr().out
        profile = out[out.index("critical path starred"):]
        events = profile[profile.index("runtime events ("):].splitlines()
        assert any("cache: quarantined corrupt entry" in line
                   for line in events[1:])


def _fault_trace_script():
    import importlib.util

    path = Path(__file__).parent.parent / "scripts" / "check_fault_trace.py"
    spec = importlib.util.spec_from_file_location("check_fault_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDegradationClosure:
    """The CI closure: every counted cache degradation is an event."""

    def test_faulty_run_closes_and_a_lost_event_does_not(self, tmp_path):
        closure = _fault_trace_script().degradation_mismatches
        cache = ArtifactCache(
            tmp_path,
            faults=FaultInjector(
                [FaultSpec("cache:write", "disk-full", max_fires=1),
                 FaultSpec("cache:write", "torn-write", max_fires=1)],
                seed=0,
            ),
        )
        run = Tracer()
        key = cache.key_for(artifact="closure")
        # a failed store, a torn store, then the torn entry's lookup
        for _ in range(3):
            cache.get_or_build(key, lambda: "payload", tracer=run)
        counters = run.metrics.snapshot()["counters"]
        assert counters["cache.store_failures"] == 1
        assert counters["cache.verify_failures"] == 1
        assert counters["cache.quarantined"] == 1
        assert closure(counters, run.events) == []
        assert len(closure(counters, run.events[1:])) == 1
        assert len(closure(counters, [])) == 2


class TestEnvInjection:
    def test_from_env_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert from_env() is None

    def test_from_env_builds_shared_injector(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        first = from_env()
        assert first is not None
        assert first.seed == 42
        assert from_env() is first  # one ambient injector per process

    def test_default_cache_picks_up_env_injector(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        cache = ArtifactCache(tmp_path)
        assert cache.faults is from_env()
        explicit = ArtifactCache(tmp_path, faults=None)
        assert explicit.faults is None
