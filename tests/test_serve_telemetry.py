"""Tests for the serve telemetry layer.

Labeled metric names, Prometheus exposition render/parse round trips,
the structured access log (sampling, rotation, atomic lines), the
sliding-window SLO tracker, and the ServerTelemetry facade.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.observability import (
    HISTOGRAM_BUCKET_BOUNDS,
    OVERFLOW_BUCKET,
    MetricsRegistry,
    bucket_index,
)
from repro.serve.telemetry import (
    ACCESS_LOG_FORMAT,
    AccessLog,
    ServerTelemetry,
    SloWindow,
    labeled,
    le_label,
    parse_exposition,
    render_exposition,
    request_quantiles,
    split_labeled,
)


class TestLabeledNames:
    def test_round_trip(self):
        name = labeled("serve.http.requests", route="/asn/{n}/lives", status=200)
        assert name == "serve.http.requests|route=/asn/{n}/lives|status=200"
        base, labels = split_labeled(name)
        assert base == "serve.http.requests"
        assert labels == {"route": "/asn/{n}/lives", "status": "200"}

    def test_keys_are_sorted_for_canonical_names(self):
        assert labeled("m", b="2", a="1") == labeled("m", a="1", b="2")

    def test_unlabeled_name_passes_through(self):
        assert labeled("serve.http.requests") == "serve.http.requests"
        assert split_labeled("serve.http.requests") == (
            "serve.http.requests", {},
        )


class TestExposition:
    def test_counters_and_gauges_round_trip(self):
        metrics = MetricsRegistry()
        metrics.inc("serve.http.requests", 7)
        metrics.inc(labeled("serve.http.requests", route="/healthz", status=200), 3)
        metrics.gauge("serve.query.qps").set(123.5)
        text = render_exposition(metrics.snapshot())
        assert "# TYPE repro_serve_http_requests counter" in text
        samples = parse_exposition(text)
        assert samples[("repro_serve_http_requests_total", ())] == 7
        assert samples[(
            "repro_serve_http_requests_total",
            (("route", "/healthz"), ("status", "200")),
        )] == 3
        assert samples[("repro_serve_query_qps", ())] == 123.5

    def test_histogram_buckets_are_cumulative(self):
        metrics = MetricsRegistry()
        name = labeled("serve.http.request_us", route="/healthz")
        for value in (5.0, 50.0, 50.0, 5000.0):
            metrics.observe(name, value)
        samples = parse_exposition(render_exposition(metrics.snapshot()))

        def bucket(le):
            return samples[(
                "repro_serve_http_request_us_bucket",
                (("le", le), ("route", "/healthz")),
            )]

        assert bucket(le_label(bucket_index(5.0))) == 1
        assert bucket(le_label(bucket_index(50.0))) == 3
        assert bucket(le_label(bucket_index(5000.0))) == 4
        assert bucket("+Inf") == 4
        assert samples[(
            "repro_serve_http_request_us_count", (("route", "/healthz"),),
        )] == 4
        assert samples[(
            "repro_serve_http_request_us_sum", (("route", "/healthz"),),
        )] == pytest.approx(5105.0)

    def test_label_values_are_escaped(self):
        metrics = MetricsRegistry()
        metrics.inc(labeled("odd.metric", what='say "hi"\\now'))
        samples = parse_exposition(render_exposition(metrics.snapshot()))
        assert samples[(
            "repro_odd_metric_total", (("what", 'say "hi"\\now'),),
        )] == 1

    def test_parse_rejects_malformed_lines(self):
        for text in ("repro_x", 'repro_x{le="} 1', "repro x 1", "repro_x notanum"):
            with pytest.raises(ValueError):
                parse_exposition(text)

    def test_overflow_values_render_under_inf_only(self):
        metrics = MetricsRegistry()
        metrics.observe("huge", 10.0 ** 9)  # past the last bound
        samples = parse_exposition(render_exposition(metrics.snapshot()))
        last = le_label(len(HISTOGRAM_BUCKET_BOUNDS) - 1)
        assert samples[("repro_huge_bucket", (("le", last),))] == 0
        assert samples[("repro_huge_bucket", (("le", "+Inf"),))] == 1


class TestAccessLog:
    def test_sampling_is_deterministic(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl", sample=3)
        written = [log.log({"format": ACCESS_LOG_FORMAT, "i": i}) for i in range(10)]
        log.close()
        assert written == [i % 3 == 0 for i in range(10)]
        lines = (tmp_path / "a.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [0, 3, 6, 9]
        assert all(r["sample"] == 3 for r in records)

    def test_rotation_keeps_one_backup(self, tmp_path):
        path = tmp_path / "b.jsonl"
        log = AccessLog(path, max_bytes=200)
        for i in range(50):
            log.log({"format": ACCESS_LOG_FORMAT, "i": i})
        log.close()
        backup = tmp_path / "b.jsonl.1"
        assert path.exists() and backup.exists()
        assert backup.stat().st_size <= 200
        # no third file ever appears
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "b.jsonl", "b.jsonl.1",
        ]

    def test_every_line_is_complete_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        log = AccessLog(path, max_bytes=150)
        for i in range(40):
            log.log({"format": ACCESS_LOG_FORMAT, "i": i})
        log.close()
        assert log.written == 40
        survived = 0
        for source in (path.with_name("c.jsonl.1"), path):
            for line in source.read_text().splitlines():
                json.loads(line)  # a torn line would explode here
                survived += 1
        # rotation keeps exactly one backup: older lines are gone, but
        # whatever survives is whole lines, never fragments
        assert 0 < survived <= log.written


class TestSloWindow:
    def test_rolling_quantiles_and_error_rate(self):
        now = [100.0]
        slo = SloWindow(window_seconds=60, slices=12, clock=lambda: now[0])
        for _ in range(98):
            slo.observe(100.0)
        slo.observe(100_000.0, error=True)
        slo.observe(100_000.0, error=True)
        doc = slo.summary()
        assert doc["requests"] == 100
        assert doc["errors"] == 2
        assert doc["error_rate"] == pytest.approx(0.02)
        assert bucket_index(doc["p50_us"]) == bucket_index(100.0)
        assert bucket_index(doc["p99_us"]) == bucket_index(100_000.0)

    def test_old_slices_expire(self):
        now = [0.0]
        slo = SloWindow(window_seconds=60, slices=12, clock=lambda: now[0])
        slo.observe(50.0, error=True)
        assert slo.summary()["requests"] == 1
        now[0] = 59.0  # still inside the window
        slo.observe(50.0)
        assert slo.summary()["requests"] == 2
        now[0] = 70.0  # the first slice has rolled out
        assert slo.summary() ["requests"] == 1
        assert slo.summary()["errors"] == 0

    def test_empty_window_is_all_zero(self):
        slo = SloWindow(clock=lambda: 42.0)
        doc = slo.summary()
        assert doc["requests"] == 0
        assert doc["p99_us"] == 0.0
        assert doc["error_rate"] == 0.0


class TestServerTelemetry:
    def _record(self, telemetry, status=200, route="/asn/{n}/lives", us=80.0):
        telemetry.record_request(
            method="GET", route=route, path="/asn/5/lives", status=status,
            request_us=us, handler_us=us / 2, bytes_out=64, asn=5,
        )

    def test_back_compat_totals_and_labeled_series(self):
        metrics = MetricsRegistry()
        telemetry = ServerTelemetry(metrics=metrics)
        self._record(telemetry)
        self._record(telemetry, status=404)
        snap = metrics.snapshot()
        assert snap["counters"]["serve.http.requests"] == 2
        assert snap["counters"]["serve.http.errors"] == 1
        assert snap["counters"][
            labeled("serve.http.requests", route="/asn/{n}/lives", status=200)
        ] == 1
        assert snap["histograms"]["serve.http.latency_us"]["count"] == 2
        assert snap["histograms"][
            labeled("serve.http.request_us", route="/asn/{n}/lives")
        ]["count"] == 2

    def test_slo_counts_5xx_only(self):
        telemetry = ServerTelemetry(metrics=MetricsRegistry())
        self._record(telemetry, status=404)
        self._record(telemetry, status=500)
        assert telemetry.slo.summary()["errors"] == 1

    def test_dropped_and_exception_accounting(self):
        metrics = MetricsRegistry()
        telemetry = ServerTelemetry(metrics=metrics)
        telemetry.record_dropped("header-flood")
        telemetry.record_exception("/asn/{n}/lives", RuntimeError("rot"))
        snap = metrics.snapshot()
        assert snap["counters"]["serve.http.dropped"] == 1
        assert snap["counters"][
            labeled("serve.http.dropped", reason="header-flood")
        ] == 1
        assert snap["counters"][labeled(
            "serve.http.exceptions", route="/asn/{n}/lives", type="RuntimeError",
        )] == 1

    def test_status_document_tables(self):
        metrics = MetricsRegistry()
        telemetry = ServerTelemetry(metrics=metrics)
        for _ in range(4):
            self._record(telemetry, us=200.0)
        self._record(telemetry, status=404, us=100.0)
        telemetry.record_dropped("malformed-head")
        doc = telemetry.status_document("deadbeef")
        assert doc["snapshot"] == "deadbeef"
        assert doc["uptime_seconds"] >= 0.0
        assert doc["requests"] == 5
        assert doc["errors"] == 1
        assert doc["dropped"] == {"malformed-head": 1}
        row = doc["routes"]["/asn/{n}/lives"]
        assert row["requests"] == 5
        assert row["errors"] == 1
        assert bucket_index(row["p50_us"]) == bucket_index(200.0)
        assert doc["slo"]["requests"] == 5

    def test_access_log_receives_records(self, tmp_path):
        log = AccessLog(tmp_path / "log.jsonl")
        telemetry = ServerTelemetry(metrics=MetricsRegistry(), access_log=log)
        self._record(telemetry)
        log.close()
        record = json.loads((tmp_path / "log.jsonl").read_text())
        assert record["format"] == ACCESS_LOG_FORMAT
        assert record["route"] == "/asn/{n}/lives"
        assert record["asn"] == 5
        assert record["status"] == 200


class _PerCallTelemetry(ServerTelemetry):
    """The recording before handles were resolved once: every call
    formats its labeled names and looks each series up by name."""

    def record_request(self, *, method, route, path, status, request_us,
                       handler_us, bytes_out, asn=None):
        metrics = self.metrics
        metrics.inc("serve.http.requests")
        metrics.inc(labeled("serve.http.requests", route=route, status=status))
        if status >= 400:
            metrics.inc("serve.http.errors")
        metrics.observe("serve.http.latency_us", handler_us)
        metrics.observe(
            labeled("serve.http.request_us", route=route), request_us
        )
        self.slo.observe(request_us, error=status >= 500)


class TestResolvedHandles:
    """Handles resolved once per (route, status) change no reported byte."""

    SEQUENCE = [
        ("/asn/{n}/lives", 200, 80.0), ("/asn/{n}/lives", 404, 35.0),
        ("/range/{lo}-{hi}", 200, 900.0), ("/asn/{n}/lives", 200, 95.0),
        ("/healthz", 200, 12.0), ("/asn/*", 400, 20.0),
        ("/asn/{n}/as-of/{date}", 500, 4_000.0), ("/metrics", 200, 150.0),
        ("/range/{lo}-{hi}", 200, 1_200.0), ("unmatched", 404, 9.0),
    ]

    def _pair(self):
        def make(cls):
            return cls(
                metrics=MetricsRegistry(), wall=lambda: 1_000.0,
                slo=SloWindow(clock=lambda: 5.0),
            )

        return make(_PerCallTelemetry), make(ServerTelemetry)

    def _reports(self, telemetry):
        return (
            telemetry.metrics_text().encode("utf-8"),
            json.dumps(telemetry.status_document("cafe"), sort_keys=True),
        )

    def test_metrics_and_status_bytes_match_per_call_recording(self):
        per_call, resolved = self._pair()
        assert self._reports(per_call) == self._reports(resolved)
        for step, (route, status, us) in enumerate(self.SEQUENCE * 3):
            for telemetry in (per_call, resolved):
                telemetry.record_request(
                    method="GET", route=route, path="/x", status=status,
                    request_us=us + step, handler_us=us / 2, bytes_out=10,
                )
            assert self._reports(per_call) == self._reports(resolved), step

    def test_no_series_appears_before_its_first_request(self):
        _per_call, resolved = self._pair()
        resolved.record_request(
            method="GET", route="/healthz", path="/healthz", status=200,
            request_us=10.0, handler_us=5.0, bytes_out=10,
        )
        counters = resolved.metrics.snapshot()["counters"]
        assert "serve.http.errors" not in counters


class TestRequestQuantiles:
    def test_aggregates_across_routes(self):
        metrics = MetricsRegistry()
        for _ in range(9):
            metrics.observe(labeled("serve.http.request_us", route="/a"), 100.0)
        metrics.observe(labeled("serve.http.request_us", route="/b"), 10_000.0)
        quantiles = request_quantiles(metrics.snapshot())
        assert bucket_index(quantiles["p50_us"]) == bucket_index(100.0)
        assert bucket_index(quantiles["p99_us"]) == bucket_index(10_000.0)

    def test_empty_snapshot_returns_empty(self):
        assert request_quantiles(MetricsRegistry().snapshot()) == {}


def test_le_labels_cover_the_full_grid():
    labels = [le_label(i) for i in range(OVERFLOW_BUCKET + 1)]
    assert labels[-1] == "+Inf"
    assert len(set(labels)) == len(labels)  # distinct after formatting
