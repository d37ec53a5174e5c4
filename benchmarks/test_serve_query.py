"""Serve query-layer benchmark: store build plus a 10k-query load run.

Builds a ``serve-store/v1`` snapshot over the bench world's last year
of BGP activity, then replays the deterministic zipf-skewed load plan
against an in-process server once per telemetry setting — off, metrics
only, and metrics plus the access log at 1-in-1 and 1-in-100 — and
records each setting's client latency and server handler mean to
``benchmarks/results/serve_query.txt``.  The first run (telemetry off)
meets a cold index, so its line carries the index's first-touch
encoding; the runs after it are warm.

The assertions here pin correctness and sanity only (clean runs, every
query answered, latency under an absurdly generous ceiling).  Speed
regressions are caught by the same-runner A/B gate
(``scripts/perf_ab.py``), whose ``query-point`` and ``query-range``
workloads measure this layer against the base commit's.
"""

from __future__ import annotations

import asyncio

from repro.runtime import ArtifactCache, MetricsRegistry, Tracer
from repro.serve.http import LifetimesServer
from repro.serve.index import StoreIndex
from repro.serve.loadgen import plan_queries, run_load
from repro.serve.store import build_store
from repro.serve.telemetry import AccessLog, ServerTelemetry, request_quantiles

from conftest import CACHE_DIR

QUERIES = 10_000
CONCURRENCY = 8


class _NoTelemetry(ServerTelemetry):
    """Telemetry off: a request only adds its handler time to a sum,
    so the setting still reports a handler mean."""

    def __init__(self) -> None:
        super().__init__(metrics=MetricsRegistry())
        self.handler_us = 0.0
        self.requests = 0

    def record_request(self, *, handler_us: float, **_fields) -> None:
        self.handler_us += handler_us
        self.requests += 1


def _run(index, plan, telemetry):
    server = LifetimesServer(index, telemetry=telemetry)

    async def go():
        host, port = await server.start()
        try:
            return await run_load(host, port, plan, concurrency=CONCURRENCY)
        finally:
            await server.close()

    return asyncio.run(go())


def test_serve_query_layer(bundle, record_result, tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serve-store")
    config = bundle.world.config
    end = config.end_day
    start = max(config.start_day, end - 364)
    tracer = Tracer()
    build_store(
        store_dir, bundle.world, bundle.admin_lives,
        start=start, end=end, faults=None, tracer=tracer,
        cache=ArtifactCache(CACHE_DIR),
    )

    index = StoreIndex.open(store_dir, faults=None)
    assert len(index) > 0
    plan = plan_queries(index.all_asns(), index.meta, QUERIES, seed=2021)
    logs = tmp_path_factory.mktemp("serve-logs")

    settings = {
        "off, cold index": _NoTelemetry(),
        "off": _NoTelemetry(),
        "metrics only": ServerTelemetry(metrics=MetricsRegistry()),
        "access log 1-in-1": ServerTelemetry(
            metrics=MetricsRegistry(),
            access_log=AccessLog(logs / "every.jsonl", sample=1),
        ),
        "access log 1-in-100": ServerTelemetry(
            metrics=MetricsRegistry(),
            access_log=AccessLog(logs / "sampled.jsonl", sample=100),
        ),
    }
    lines = []
    for name, telemetry in settings.items():
        report = _run(index, plan, telemetry)
        assert report.queries == QUERIES, name
        assert report.errors == 0, name
        # sanity ceiling only — a point query over the two-level binary
        # search should never be anywhere near this slow
        assert report.p99_us < 250_000, f"{name}: p99 {report.p99_us / 1000:.1f}ms"
        if isinstance(telemetry, _NoTelemetry):
            assert telemetry.requests == QUERIES
            handler_us = telemetry.handler_us / telemetry.requests
            server_p99 = "n/a"
        else:
            snapshot = telemetry.metrics.snapshot()
            latency = snapshot["histograms"]["serve.http.latency_us"]
            assert latency["count"] == QUERIES, name
            handler_us = latency["mean"]
            # the server's own account of the same run: the labeled
            # per-route request_us bucket histograms folded into one p99
            server_q = request_quantiles(snapshot)
            assert server_q, f"{name}: server recorded no request_us histograms"
            server_p99 = f"{server_q['p99_us'] / 1000:.2f}ms"
        if telemetry.access_log is not None:
            sample = telemetry.access_log.sample
            assert telemetry.access_log.written == -(-QUERIES // sample), name
        lines.append(
            f"  {name:<20} {report.qps:>8,.0f} q/s  "
            f"client p50 {report.p50_us / 1000:.2f}ms p99 "
            f"{report.p99_us / 1000:.2f}ms  handler mean {handler_us:.1f}us  "
            f"server p99 {server_p99}"
        )

    build_seconds = sum(
        span.seconds for span in tracer.stage_spans()
        if span.name.startswith("serve:")
    )
    record_result("serve_query", "\n".join([
        "serve query layer (10k zipf-skewed queries, in-process server)",
        f"  store: {len(index)} ASNs in {len(index._shards)} shards, "
        f"window {index.meta.end - index.meta.start + 1} days",
        f"  assemble+publish: {build_seconds:.3f}s",
        f"  concurrency {CONCURRENCY}, one run per telemetry setting:",
        *lines,
    ]))
