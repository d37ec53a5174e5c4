"""Observability-layer tests: spans, metrics, manifests, event draining.

The contract under test: the span tree of an instrumented run covers
every profiled stage, the run manifest reproduces byte-identically for
identical config and inputs, and metric totals survive ambient fault
injection.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lifetimes.bgp import build_operational_dataset
from repro.runtime import (
    RUN_MANIFEST_FORMAT,
    TRACE_FORMAT,
    FaultInjector,
    FaultSpec,
    ArtifactCache,
    MetricsRegistry,
    Tracer,
    build_run_manifest,
    get_metrics,
    write_run_manifest,
)
from repro.runtime.faults import from_env
from repro.runtime.inspect import (
    RunArtifacts,
    load_trace,
    render_trace,
    stage_seconds,
    trace_view,
)
from repro.runtime.observability import write_jsonl_atomic
from repro.simulation import build_datasets
from repro.simulation.config import tiny


class TestSpanNesting:
    def test_spans_nest_under_opener(self):
        tracer = Tracer()
        with tracer.stage("outer") as outer:
            with tracer.stage("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current() is outer
        assert tracer.current() is tracer.root
        assert outer.parent_id == tracer.root.span_id

    def test_exception_closes_orphaned_children(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.stage("outer"):
                tracer.start_span("orphan")  # never finished by its opener
                raise RuntimeError("stage blew up")
        # the outer finish popped the orphan off the stack
        assert tracer.current() is tracer.root

    def test_threads_build_disjoint_subtrees(self):
        tracer = Tracer()
        seen = {}

        def work(name):
            with tracer.stage(name) as span:
                seen[name] = span

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans) == 4
        # none of the thread spans nested under another thread's span
        for span in tracer.spans:
            assert span.parent_id == tracer.root.span_id

    def test_trace_lines_have_header_and_root(self, tmp_path):
        tracer = Tracer()
        with tracer.stage("simulate", items=10):
            pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["format"] == TRACE_FORMAT
        assert lines[0]["spans"] == len(lines) - 1
        assert lines[1]["kind"] == "root"
        assert lines[2]["name"] == "simulate"
        assert lines[2]["attrs"]["items"] == 10

    def test_note_logs_event_and_annotates_current(self):
        tracer = Tracer()
        with tracer.stage("stage-x") as span:
            tracer.note("cache: quarantined entry")
        assert tracer.events == ["cache: quarantined entry"]
        assert span.annotations == ["cache: quarantined entry"]


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("hits")
        metrics.inc("hits", 2)
        metrics.gauge("workers").set(4)
        metrics.observe("wall", 1.0)
        metrics.observe("wall", 3.0)
        snap = metrics.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["workers"] == 4
        from repro.runtime.observability import bucket_index

        assert snap["histograms"]["wall"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "buckets": {
                str(bucket_index(1.0)): 1, str(bucket_index(3.0)): 1,
            },
        }

    def test_clear_is_in_place(self):
        metrics = MetricsRegistry()
        metrics.inc("n")
        counters = metrics.snapshot()["counters"]
        metrics.clear()
        assert metrics.snapshot()["counters"] == {}
        assert counters == {"n": 1}  # snapshots are copies, not views

    def test_stage_blocks_feed_histograms(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with tracer.stage("simulate", items=3):
            pass
        tracer.record("archive", 0.5)
        hists = metrics.snapshot()["histograms"]
        assert hists["stage.simulate.seconds"]["count"] == 1
        assert hists["stage.archive.seconds"]["sum"] == 0.5

    def test_stage_histograms_agree_with_stage_spans(self, tmp_path):
        """Per stage name, the ``stage.<name>.seconds`` histogram counts
        exactly the stage spans and sums exactly their seconds, so
        :func:`stage_seconds` answers alike from metrics or trace."""
        tracer = Tracer(metrics=MetricsRegistry())
        cache = ArtifactCache(tmp_path, faults=None)
        bundle = build_datasets(tiny(seed=11), cache=cache, tracer=tracer)
        end = bundle.world.config.end_day
        build_operational_dataset(
            bundle.world, start=end - 29, end=end, cache=cache, tracer=tracer,
        )
        spans = tracer.stage_spans()
        names = {span.name for span in spans}
        assert [span.name for span in spans].count("cache:lookup") == 2
        hists = tracer.metrics.snapshot()["histograms"]
        assert {k for k in hists if k.startswith("stage.")} == {
            f"stage.{name}.seconds" for name in names
        }
        for name in names:
            own = [span.seconds for span in spans if span.name == name]
            hist = hists[f"stage.{name}.seconds"]
            assert hist["count"] == len(own), name
            assert hist["sum"] == pytest.approx(sum(own), abs=1e-9), name

        from_metrics = stage_seconds(RunArtifacts(
            path=tmp_path, metrics=tracer.metrics.snapshot(),
        ))
        from_trace = stage_seconds(RunArtifacts(
            path=tmp_path, trace=trace_view(tracer.to_lines()),
        ))
        assert set(from_metrics) == set(from_trace) == names
        for name in names:
            # the trace rounds each span to the microsecond
            assert from_trace[name] == pytest.approx(
                from_metrics[name], abs=1e-6 * len(spans)
            ), name


class TestBucketedHistograms:
    """The log-scaled buckets: the quantile error bound."""

    # 1/64-granular values are binary fractions, so float sums are exact
    _values = st.lists(
        st.integers(min_value=1, max_value=2 ** 20).map(lambda k: k / 64),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=60, deadline=None)
    @given(_values, st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_estimate_lands_in_the_exact_values_bucket(
        self, values, q
    ):
        from repro.runtime.observability import Histogram, bucket_index

        hist = Histogram()
        for value in values:
            hist.observe(value)
        exact = sorted(values)[
            max(0, min(len(values) - 1, round(q * (len(values) - 1))))
        ]
        # one-bucket-width error bound: the estimate shares the exact
        # nearest-rank value's bucket (clamping to min/max stays inside)
        assert bucket_index(hist.quantile(q)) == bucket_index(exact)


class TestAmbientFaultMetrics:
    """Metrics aggregation with REPRO_FAULT_SEED ambient injection on."""

    def test_injected_faults_counted(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_SEED", "2021")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        monkeypatch.setenv("REPRO_FAULT_SITES", "cache:read")
        metrics = get_metrics()
        metrics.clear()
        from repro.runtime import ArtifactCache

        cache = ArtifactCache(tmp_path)
        assert cache.faults is from_env()
        key = cache.key_for(artifact="ambient")
        cache.store(key, {"x": 1})
        assert cache.load(key) is None  # injected read failure → miss
        snap = metrics.snapshot()
        assert snap["counters"]["faults.injected"] >= 1
        assert snap["counters"]["faults.cache:read.oserror"] >= 1
        assert snap["counters"]["cache.misses"] >= 1

    def test_fault_annotations_reach_trace(self, monkeypatch, tmp_path):
        """Closure: every fired fault appears as a span annotation."""
        injector = FaultInjector(
            [FaultSpec("cache:read", "oserror", max_fires=2)], seed=0
        )
        tracer = Tracer()
        detach = tracer.subscribe_faults(injector)
        try:
            from repro.runtime import ArtifactCache

            cache = ArtifactCache(tmp_path, faults=injector)
            key = cache.key_for(artifact="x")
            cache.store(key, {"x": 1})
            with tracer.stage("cache:lookup") as span:
                assert cache.load(key) is None
        finally:
            detach()
        assert len(injector.events) >= 1
        fault_notes = [a for a in span.annotations if a.startswith("fault: ")]
        assert len(fault_notes) == len(injector.events)
        for event, note in zip(injector.events, fault_notes):
            assert f"site={event.site}" in note
            assert f"kind={event.kind}" in note

    def test_detach_stops_annotations(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec("cache:read", "oserror", max_fires=None)], seed=0
        )
        tracer = Tracer()
        detach = tracer.subscribe_faults(injector)
        detach()
        with pytest.raises(OSError):
            injector.on_read(tmp_path / "x")
        assert tracer.root.annotations == []


class TestRunManifest:
    def _manifest(self, tmp_path, seed=7, tracer=None):
        if tracer is None:
            tracer = Tracer(metrics=MetricsRegistry())
        build_datasets(tiny(seed=seed), tracer=tracer)
        return build_run_manifest(
            config=tiny(seed=seed),
            settings={"bgp_window": 120, "timeout": 30},
            tracer=tracer,
        )

    def test_manifest_is_byte_identical_across_runs(self, tmp_path):
        a = self._manifest(tmp_path)
        b = self._manifest(tmp_path)
        blob_a = json.dumps(a, sort_keys=True)
        blob_b = json.dumps(b, sort_keys=True)
        assert blob_a == blob_b
        assert a["digest"] == b["digest"]

    def test_manifest_written_files_are_identical(self, tmp_path):
        a = write_run_manifest(tmp_path / "a.json", self._manifest(tmp_path))
        b = write_run_manifest(tmp_path / "b.json", self._manifest(tmp_path))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_distinguishes_configs(self, tmp_path):
        assert (
            self._manifest(tmp_path, seed=7)["digest"]
            != self._manifest(tmp_path, seed=8)["digest"]
        )

    def test_manifest_fields(self, tmp_path):
        tracer = Tracer(metrics=MetricsRegistry())
        manifest = self._manifest(tmp_path, tracer=tracer)
        assert manifest["format"] == RUN_MANIFEST_FORMAT
        assert manifest["config_hash"]
        assert manifest["cache_versions"]["pipeline"]
        assert "backend" not in manifest  # retired field
        assert manifest["span_digest"]["sha256"]
        stage_names = [row["name"] for row in manifest["span_digest"]["stages"]]
        assert "simulate" in stage_names
        assert "assemble" in stage_names
        # the simulation's three phases are children of its stage
        spans = tracer.stage_spans()
        simulate = next(span for span in spans if span.name == "simulate")
        children = [span for span in spans if span.parent_id == simulate.span_id]
        assert [span.name for span in children] == [
            "simulate:seed", "simulate:days", "simulate:assemble"
        ]
        assert all(span.items for span in children)
        assert {"simulate:seed", "simulate:days", "simulate:assemble"} <= set(stage_names)
        assert "generated_at" not in manifest  # no timestamp, ever

    def test_fault_injection_settings_captured(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "2021")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.1")
        monkeypatch.setenv("REPRO_FAULT_SITES", "cache:read,cache:write")
        manifest = build_run_manifest(config=None, tracer=None)
        assert manifest["fault_injection"] == {
            "seed": 2021,
            "rate": 0.1,
            "sites": ["cache:read", "cache:write"],
        }
        monkeypatch.delenv("REPRO_FAULT_SEED")
        assert build_run_manifest()["fault_injection"] is None


class _LogSource:
    def __init__(self, events):
        self.events = list(events)


class TestDrainEvents:
    def test_drain_moves_and_clears(self):
        tracer = Tracer(metrics=MetricsRegistry())
        source = _LogSource(["cache: store failed"])
        tracer.drain_events_from(source)
        assert tracer.events == ["cache: store failed"]
        assert source.events == []

    def test_source_reused_across_runs_never_rereports(self):
        """Regression: a cache reused across runs must not
        re-report run 1's events into run 2."""
        source = _LogSource(["event-from-run-1"])
        first = Tracer(metrics=MetricsRegistry())
        first.drain_events_from(source)
        source.events.append("event-from-run-2")
        second = Tracer(metrics=MetricsRegistry())
        second.drain_events_from(source)
        assert first.events == ["event-from-run-1"]
        assert second.events == ["event-from-run-2"]

    def test_drain_self_is_noop(self):
        tracer = Tracer(metrics=MetricsRegistry())
        tracer.note("my own event")
        tracer.drain_events_from(tracer)  # must not loop over its own log
        assert tracer.events == ["my own event"]

    def test_drain_shared_tracer_source_is_noop(self):
        tracer = Tracer(metrics=MetricsRegistry())
        tracer.note("shared")
        source = _LogSource(())
        source.events = tracer.events  # same list object as the run's
        tracer.drain_events_from(source)
        assert tracer.events == ["shared"]

    def test_drain_immutable_source_still_reports(self):
        tracer = Tracer(metrics=MetricsRegistry())
        tracer.drain_events_from(_LogSource(()).__class__(("frozen",)))
        assert tracer.events == ["frozen"]

    def test_drain_tuple_log_reported_not_cleared(self):
        class Frozen:
            events = ("tuple event",)

        tracer = Tracer(metrics=MetricsRegistry())
        tracer.drain_events_from(Frozen())
        assert tracer.events == ["tuple event"]


class TestTracerStages:
    def test_stages_project_tracer_spans(self):
        tracer = Tracer(metrics=MetricsRegistry())
        with tracer.stage("simulate", items=100):
            pass
        tracer.record("archive", 0.5, items=3)
        spans = tracer.stage_spans()
        assert [s.name for s in spans] == ["simulate", "archive"]
        assert all(s.kind == "stage" for s in spans)
        assert spans[0].items == 100
        assert spans[1].seconds == 0.5

    def test_late_item_count(self):
        tracer = Tracer(metrics=MetricsRegistry())
        with tracer.stage("restore") as timing:
            timing.items = 42
        assert tracer.stage_spans()[0].items == 42

    def test_in_memory_trace_renders_like_its_file(self, tmp_path):
        tracer = Tracer(metrics=MetricsRegistry())
        tracer.record("simulate", 2.0, items=10)
        with tracer.stage("archive"):
            tracer.note("cache: quarantined corrupt entry")
        lines = tracer.to_lines()
        path = write_jsonl_atomic(tmp_path / "trace.jsonl", lines)
        text = render_trace(trace_view(lines))
        assert text == render_trace(load_trace(path))
        assert "simulate" in text and "[items=10]" in text
        assert "[notes=1]" in text

    def test_stage_attrs_flow_into_digest(self):
        tracer = Tracer(metrics=MetricsRegistry())
        with tracer.stage("bgp:segment", component="bgp", engine="columnar"):
            pass
        digest = tracer.stage_digest()
        assert digest["stages"][0]["attrs"]["engine"] == "columnar"
