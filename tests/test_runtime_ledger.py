"""Dataflow ledger: boundary counters, closure checks, pipeline conservation.

The ledger's contract has three layers, each tested here: the counter
emission primitives (``boundary``/``record_boundary``), the document
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

from repro.runtime import (
    ArtifactCache,
    MetricsRegistry,
    Tracer,
    boundary,
    build_ledger,
    check_ledger,
    ledger_disabled,
    ledger_enabled,
    load_ledger,
    record_boundary,
    render_ledger,
    reset_metrics,
    write_ledger,
)
from repro.simulation import build_datasets
from repro.simulation.config import tiny


class TestBoundary:
    def test_counters_land_in_registry(self):
        metrics = MetricsRegistry()
        bound = boundary("x:filter", metrics)
        bound.records_in(10)
        bound.kept(7)
        bound.dropped("bad", 2)
        bound.routed("weird", 1)
        counters = metrics.snapshot()["counters"]
        assert counters["ledger.x:filter.in"] == 10
        assert counters["ledger.x:filter.out.kept"] == 7
        assert counters["ledger.x:filter.out.dropped:bad"] == 2
        assert counters["ledger.x:filter.out.weird"] == 1

    def test_zero_counts_emit_nothing(self):
        metrics = MetricsRegistry()
        bound = boundary("x:filter", metrics)
        bound.records_in(0)
        bound.kept(0)
        bound.dropped("bad", 0)
        assert metrics.snapshot()["counters"] == {}

    def test_stage_name_may_not_contain_separator(self):
        with pytest.raises(ValueError):
            boundary("bad.name", MetricsRegistry())

    def test_record_boundary_summary(self):
        metrics = MetricsRegistry()
        summary = record_boundary(
            "x:filter", records_in=5, kept=3,
            dropped={"dup": 2, "never": 0}, metrics=metrics,
        )
        assert summary == {"in": 5, "kept": 3, "dropped": {"dup": 2}}
        counters = metrics.snapshot()["counters"]
        assert counters["ledger.x:filter.in"] == 5

    def test_disabled_ledger_is_a_noop(self):
        metrics = MetricsRegistry()
        assert ledger_enabled()
        with ledger_disabled():
            assert not ledger_enabled()
            assert record_boundary("x:f", records_in=5, kept=5,
                                   metrics=metrics) is None
            bound = boundary("x:f", metrics)
            bound.records_in(5)
            bound.kept(5)
        assert ledger_enabled()
        assert metrics.snapshot()["counters"] == {}


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


def _build_with_taxonomy(config, **kwargs):
    """Build the bundle and force the lazy taxonomy classification, so
    the ``taxonomy:*`` boundaries fire alongside the pipeline's own."""
    bundle = build_datasets(config, **kwargs)
    bundle.joint.taxonomy
    return bundle


class TestPipelineClosure:
    def test_full_build_conserves_every_boundary(self):
        metrics = reset_metrics()
        _build_with_taxonomy(tiny(seed=11), tracer=Tracer())
        doc = build_ledger(metrics)
        assert check_ledger(doc) == []
        assert doc["conserved"] is True
        names = {row["stage"] for row in doc["stages"]}
        # the three instrumented subsystems all reported in
        assert {"taxonomy:admin", "taxonomy:op", "bgp:segment"} <= names
        assert any(name.startswith("restoration/") for name in names)

    def test_taxonomy_rows_partition_exactly(self):
        metrics = reset_metrics()
        _build_with_taxonomy(tiny(seed=11), tracer=Tracer())
        doc = build_ledger(metrics)
        for row in doc["stages"]:
            if not row["stage"].startswith("taxonomy:"):
                continue
            assert row["kept"] == 0 and not row["dropped"]
            assert row["in"] == sum(row["routed"].values()) > 0

    def test_fault_injection_cannot_break_conservation(
        self, tmp_path, monkeypatch
    ):
        # the clean reference ledger first, before arming the injector
        metrics = reset_metrics()
        _build_with_taxonomy(tiny(seed=7), tracer=Tracer())
        clean = build_ledger(metrics)
        assert clean["conserved"] is True

        monkeypatch.setenv("REPRO_FAULT_SEED", "2021")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        metrics = reset_metrics()
        cache = ArtifactCache(tmp_path / "cache")
        _build_with_taxonomy(tiny(seed=7), cache=cache, tracer=Tracer())
        faulty = build_ledger(metrics)

        # conservation holds under injected cache faults — and the
        # counts match the clean run exactly (the cold build emits the
        # same boundaries whether or not its cache writes fail)
        assert check_ledger(faulty) == []
        assert faulty == clean


class TestLedgerDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=40))
    def test_repeat_builds_ledgers_identical(self, seed):
        metrics = reset_metrics()
        _build_with_taxonomy(tiny(seed=seed), tracer=Tracer())
        first_doc = build_ledger(metrics)

        metrics = reset_metrics()
        _build_with_taxonomy(tiny(seed=seed), tracer=Tracer())
        second_doc = build_ledger(metrics)

        # the determinism contract covers accounting: a rebuild of the
        # same config yields a byte-identical, conserving ledger
        assert first_doc["conserved"] is True
        assert json.dumps(second_doc, sort_keys=True) == json.dumps(
            first_doc, sort_keys=True
        )
