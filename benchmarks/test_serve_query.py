"""Serve query-layer benchmark: store build plus a 10k-query load run.

Builds a ``serve-store/v1`` snapshot over the bench world's last year
of BGP activity, then replays the deterministic zipf-skewed load plan
against an in-process server and records client and server latency to
``benchmarks/results/serve_query.txt``.

The assertions here pin correctness and sanity only (clean run, every
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

from conftest import CACHE_DIR

QUERIES = 10_000
CONCURRENCY = 8


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

    server = LifetimesServer(index, metrics=MetricsRegistry())

    async def go():
        host, port = await server.start()
        try:
            return await run_load(host, port, plan, concurrency=CONCURRENCY)
        finally:
            await server.close()

    report = asyncio.run(go())

    assert report.queries == QUERIES
    assert report.errors == 0
    # sanity ceiling only — a point query over the two-level binary
    # search should never be anywhere near this slow
    assert report.p99_us < 250_000, f"p99 {report.p99_us / 1000:.1f}ms"

    # the server's own account of the same run: aggregate the labeled
    # per-route request_us bucket histograms into a server-side p99
    from repro.serve.telemetry import request_quantiles

    server_q = request_quantiles(server.metrics.snapshot())
    assert server_q, "server recorded no request_us histograms"

    build_seconds = sum(
        span.seconds for span in tracer.stage_spans()
        if span.name.startswith("serve:")
    )
    record_result("serve_query", "\n".join([
        "serve query layer (10k zipf-skewed queries, in-process server)",
        f"  store: {len(index)} ASNs in {len(index._shards)} shards, "
        f"window {index.meta.end - index.meta.start + 1} days",
        f"  assemble+publish: {build_seconds:.3f}s",
        f"  throughput: {report.qps:,.0f} q/s at concurrency {CONCURRENCY}",
        f"  latency: client p50 {report.p50_us / 1000:.2f}ms, "
        f"p99 {report.p99_us / 1000:.2f}ms; "
        f"server p99 {server_q['p99_us'] / 1000:.2f}ms",
        f"  errors: {report.errors}",
    ]))
