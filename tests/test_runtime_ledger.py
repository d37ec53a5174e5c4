"""Dataflow ledger: boundary counters, closure checks, pipeline conservation.

The ledger's contract has three layers, each tested here: the counter
emission primitive (``record_boundary``), the document
layer (``build_ledger``/``check_ledger``/``render_ledger`` and the
``ledger.json`` round trip), and the pipeline-wide invariant — a full
``build_datasets`` run conserves records at every instrumented
boundary, repeats byte for byte, and keeps its counts under ambient
fault injection (a rebuilt artifact must not double-count).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint import JointAnalysis
from repro.core.taxonomy import classify
from repro.lifetimes.bgp import build_bgp_lifetimes
from repro.runtime import (
    ArtifactCache,
    MetricsRegistry,
    Tracer,
    build_ledger,
    check_ledger,
    load_ledger,
    record_boundary,
    render_ledger,
    write_ledger,
)
from repro.simulation import build_datasets
from repro.simulation.config import tiny


class TestBoundary:
    def test_counters_land_in_registry(self):
        metrics = MetricsRegistry()
        record_boundary(
            "x:filter", records_in=10, kept=7, dropped={"bad": 2},
            routed={"weird": 1}, metrics=metrics,
        )
        counters = metrics.snapshot()["counters"]
        assert counters["ledger.x:filter.in"] == 10
        assert counters["ledger.x:filter.out.kept"] == 7
        assert counters["ledger.x:filter.out.dropped:bad"] == 2
        assert counters["ledger.x:filter.out.weird"] == 1

    def test_zero_counts_emit_nothing(self):
        metrics = MetricsRegistry()
        record_boundary(
            "x:filter", records_in=0, kept=0, dropped={"bad": 0},
            metrics=metrics,
        )
        assert metrics.snapshot()["counters"] == {}

    def test_stage_name_may_not_contain_separator(self):
        with pytest.raises(ValueError):
            record_boundary("bad.name", records_in=1, kept=1,
                            metrics=MetricsRegistry())

    def test_record_boundary_summary(self):
        metrics = MetricsRegistry()
        summary = record_boundary(
            "x:filter", records_in=5, kept=3,
            dropped={"dup": 2, "never": 0}, metrics=metrics,
        )
        assert summary == {"in": 5, "kept": 3, "dropped": {"dup": 2}}
        counters = metrics.snapshot()["counters"]
        assert counters["ledger.x:filter.in"] == 5


class TestDocument:
    def _conserving_registry(self):
        metrics = MetricsRegistry()
        record_boundary("a:filter", records_in=10, kept=8,
                        dropped={"dup": 2}, metrics=metrics)
        record_boundary("b:partition", records_in=4,
                        routed={"left": 3, "right": 1}, metrics=metrics)
        return metrics

    def test_build_ledger_conserving(self):
        doc = build_ledger(self._conserving_registry())
        assert doc["format"] == "ledger/v1"
        assert doc["conserved"] is True
        assert [row["stage"] for row in doc["stages"]] == [
            "a:filter", "b:partition",
        ]
        filt, part = doc["stages"]
        assert filt["in"] == 10 and filt["out"] == 10 and filt["conserved"]
        assert part["routed"] == {"left": 3, "right": 1}
        assert check_ledger(doc) == []

    def test_build_ledger_accepts_snapshot_dict(self):
        snapshot = self._conserving_registry().snapshot()
        assert build_ledger(snapshot)["conserved"] is True

    def test_leak_is_a_violation(self):
        metrics = MetricsRegistry()
        # 10 in, only 9 accounted: one record vanished without a reason
        record_boundary("a:filter", records_in=10, kept=7,
                        dropped={"dup": 2}, metrics=metrics)
        doc = build_ledger(metrics)
        assert doc["conserved"] is False
        violations = check_ledger(doc)
        assert len(violations) == 1
        assert "a:filter" in violations[0]
        assert "+1 records unaccounted" in violations[0]

    def test_overclaim_is_a_violation(self):
        metrics = MetricsRegistry()
        # drop bucket claims more than ever entered
        record_boundary("a:filter", records_in=3, kept=3,
                        dropped={"dup": 2}, metrics=metrics)
        doc = build_ledger(metrics)
        assert any("-2 records unaccounted" in v for v in check_ledger(doc))

    def test_check_rejects_foreign_format(self):
        assert check_ledger({"format": "nonsense/v9"})

    def test_roundtrip_and_directory_load(self, tmp_path):
        doc = build_ledger(self._conserving_registry())
        path = write_ledger(tmp_path / "ledger.json", doc)
        assert load_ledger(path) == doc
        assert load_ledger(tmp_path) == doc  # directory form

    def test_load_rejects_foreign_document(self, tmp_path):
        (tmp_path / "ledger.json").write_text(json.dumps({"format": "x"}))
        with pytest.raises(ValueError):
            load_ledger(tmp_path)

    def test_render_shows_reason_shares(self):
        text = render_ledger(build_ledger(self._conserving_registry()))
        assert "all conserving" in text
        assert "dropped[dup]" in text and "(20.00%)" in text
        assert "class[left]" in text and "(75.00%)" in text


def _build_with_taxonomy(config, *, tracer, **kwargs):
    """Build the bundle and classify it through a run-bound joint
    analysis, so the ``taxonomy:*`` boundaries land in the run's
    registry alongside the pipeline's own."""
    bundle = build_datasets(config, tracer=tracer, **kwargs)
    JointAnalysis(
        bundle.admin_lives, bundle.op_lives,
        end_day=bundle.world.end_day, metrics=tracer.metrics,
    ).taxonomy
    return bundle


class TestPipelineClosure:
    def test_full_build_conserves_every_boundary(self):
        tracer = Tracer()
        _build_with_taxonomy(tiny(seed=11), tracer=tracer)
        doc = build_ledger(tracer.metrics)
        assert check_ledger(doc) == []
        assert doc["conserved"] is True
        names = {row["stage"] for row in doc["stages"]}
        # the three instrumented subsystems all reported in
        assert {"taxonomy:admin", "taxonomy:op", "bgp:segment"} <= names
        assert any(name.startswith("restoration/") for name in names)

    def test_taxonomy_rows_partition_exactly(self):
        tracer = Tracer()
        _build_with_taxonomy(tiny(seed=11), tracer=tracer)
        doc = build_ledger(tracer.metrics)
        for row in doc["stages"]:
            if not row["stage"].startswith("taxonomy:"):
                continue
            assert row["kept"] == 0 and not row["dropped"]
            assert row["in"] == sum(row["routed"].values()) > 0

    def test_fault_injection_cannot_break_conservation(
        self, tmp_path, monkeypatch
    ):
        # the clean reference ledger first, before arming the injector
        tracer = Tracer()
        _build_with_taxonomy(tiny(seed=7), tracer=tracer)
        clean = build_ledger(tracer.metrics)
        assert clean["conserved"] is True

        monkeypatch.setenv("REPRO_FAULT_SEED", "2021")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        tracer = Tracer()
        cache = ArtifactCache(tmp_path / "cache")
        _build_with_taxonomy(tiny(seed=7), cache=cache, tracer=tracer)
        faulty = build_ledger(tracer.metrics)

        # conservation holds under injected cache faults — and the
        # counts match the clean run exactly (the cold build emits the
        # same boundaries whether or not its cache writes fail)
        assert check_ledger(faulty) == []
        assert faulty == clean


class TestOneRegistryPerRun:
    """A run counts into its own tracer's registry, and nothing else
    does: no boundary, cache or analysis reaches another run."""

    def test_library_build_ledger_is_complete(self):
        tracer = Tracer()
        bundle = build_datasets(tiny(seed=3), tracer=tracer)
        doc = build_ledger(tracer.metrics)
        assert check_ledger(doc) == []
        names = [row["stage"] for row in doc["stages"]]
        assert len(names) == 32
        assert "bgp:segment" in names

        JointAnalysis(
            bundle.admin_lives, bundle.op_lives,
            end_day=bundle.world.end_day, metrics=tracer.metrics,
        ).taxonomy
        doc = build_ledger(tracer.metrics)
        assert check_ledger(doc) == []
        names = [row["stage"] for row in doc["stages"]]
        assert len(names) == 34
        assert {"taxonomy:admin", "taxonomy:op"} <= set(names)

    def test_two_tracers_share_no_counter(self):
        first, second = Tracer(), Tracer()
        build_datasets(tiny(seed=3), tracer=first)
        assert first.metrics.snapshot()["counters"]
        assert second.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        build_datasets(tiny(seed=3), tracer=second)
        # the same build counted once into each run, never twice
        assert build_ledger(second.metrics) == build_ledger(first.metrics)

    def test_analysis_resegmentation_leaves_run_ledger_alone(self):
        tracer = Tracer()
        bundle = build_datasets(tiny(seed=3), tracer=tracer)
        before = build_ledger(tracer.metrics)
        bundle.rebuild_op_lives(timeout=5)
        bundle.rebuild_op_lives(timeout=30, min_peers=1)
        bundle.joint.taxonomy
        assert build_ledger(tracer.metrics) == before

    def test_cache_built_from_a_path_counts_into_the_run(self, tmp_path):
        # two cold runs, each into its own cache directory: each run
        # sees exactly its own cache's counts
        for name in ("first", "second"):
            tracer = Tracer()
            build_datasets(tiny(seed=3), cache=tmp_path / name, tracer=tracer)
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["cache.misses"] == 1
            # a cold build stores once (ambient injection may fail it)
            assert (
                counters.get("cache.stores", 0)
                + counters.get("cache.store_failures", 0)
            ) == 1

    def test_forgotten_registry_is_a_type_error(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)
        key = cache.key_for(artifact="t")
        with pytest.raises(TypeError):
            cache.store(key, "x")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            cache.load(key)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            record_boundary("a:filter", records_in=1, kept=1)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            classify({}, {})  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            build_bgp_lifetimes({}, end_day=0)  # type: ignore[call-arg]


class TestLedgerDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=40))
    def test_repeat_builds_ledgers_identical(self, seed):
        tracer = Tracer()
        _build_with_taxonomy(tiny(seed=seed), tracer=tracer)
        first_doc = build_ledger(tracer.metrics)

        tracer = Tracer()
        _build_with_taxonomy(tiny(seed=seed), tracer=tracer)
        second_doc = build_ledger(tracer.metrics)

        # the determinism contract covers accounting: a rebuild of the
        # same config yields a byte-identical, conserving ledger
        assert first_doc["conserved"] is True
        assert json.dumps(second_doc, sort_keys=True) == json.dumps(
            first_doc, sort_keys=True
        )
