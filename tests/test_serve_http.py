"""Tests for the serve query layer: StoreIndex, HTTP server, loadgen.

Query results are checked against brute-force scans over the decoded
records — the index's binary searches must agree with the obvious
O(n) answer on every ASN, including the ones between shards.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.http import LifetimesServer
from repro.serve.index import DEFAULT_RANGE_LIMIT, StoreIndex
from repro.serve.loadgen import plan_queries, run_load
from repro.serve.store import ServeStoreError, build_store
from repro.simulation.config import tiny
from repro.simulation.datasets import build_datasets


@pytest.fixture(scope="module")
def bundle():
    return build_datasets(tiny(seed=11))


@pytest.fixture(scope="module")
def store_dir(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("serve-store")
    end = bundle.world.config.end_day
    # small shards force multi-shard stores so the two-level binary
    # search actually crosses shard boundaries in these tests
    build_store(out, bundle.world, bundle.admin_lives,
                start=end - 59, end=end, shard_size=100, faults=None)
    return out


@pytest.fixture(scope="module")
def index(store_dir):
    return StoreIndex.open(store_dir, faults=None)


def _get(host, port, path, *, version="HTTP/1.1", headers=()):
    """One blocking GET against the running server; returns (status, doc)."""

    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        head = f"GET {path} {version}\r\n"
        for line in headers:
            head += line + "\r\n"
        writer.write((head + "\r\n").encode("latin-1"))
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _sep, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        body = await reader.readexactly(length)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return status, json.loads(body)

    return asyncio.run(go())


class TestStoreIndex:
    def test_every_asn_resolves_to_its_record(self, index):
        for asns, records in index._shards:
            for asn, record in zip(asns, records):
                assert index.record(asn) is record

    def test_absent_asns_return_none(self, index):
        universe = set(index.all_asns())
        probes = [min(universe) - 1, max(universe) + 1]
        probes += [a + 1 for a in sorted(universe)[:50] if a + 1 not in universe]
        for asn in probes:
            if asn >= 0 and asn not in universe:
                assert index.record(asn) is None
                assert index.lives(asn) is None
                assert index.taxonomy(asn) is None

    def test_all_asns_sorted_and_complete(self, index):
        asns = index.all_asns()
        assert asns == sorted(asns)
        assert len(asns) == len(index)

    def test_lives_carries_both_datasets_and_snapshot(self, index):
        asn = next(a for a in index.all_asns()
                   if index.record(a).admin and index.record(a).op)
        doc = index.lives(asn)
        assert doc["snapshot"] == index.digest
        assert len(doc["admin"]) == len(index.record(asn).admin)
        assert len(doc["op"]) == len(index.record(asn).op)
        assert doc["admin"][0]["ASN"] == asn
        assert "category" in doc["admin"][0]

    def test_taxonomy_counts_match_assignments(self, index):
        for asn in index.all_asns()[:100]:
            doc = index.taxonomy(asn)
            record = index.record(asn)
            assert doc["admin"] == [c.value for c in record.admin_cats]
            assert doc["op"] == [c.value for c in record.op_cats]
            assert sum(doc["counts"].values()) == (
                len(record.admin_cats) + len(record.op_cats))

    def test_as_of_matches_brute_force(self, index):
        meta = index.meta
        days = [meta.start, (meta.start + meta.end) // 2, meta.end]
        for asn in index.all_asns()[:50]:
            record = index.record(asn)
            for day in days:
                doc = index.as_of(asn, day)
                assert doc["allocated"] == any(
                    life.start <= day <= life.end for life in record.admin)
                assert doc["observed"] == any(
                    iv.start <= day <= iv.end for iv in record.observed)
                assert doc["single_peer"] == any(
                    iv.start <= day <= iv.end for iv in record.single)

    def test_range_summary_matches_brute_force(self, index):
        asns = index.all_asns()
        lo, hi = asns[3], asns[min(len(asns) - 1, 250)]  # spans shards
        doc = index.range_summary(lo, hi)
        expected = [a for a in asns if lo <= a <= hi]
        assert doc["count"] == len(expected)
        assert [row["asn"] for row in doc["asns"]] == expected[:DEFAULT_RANGE_LIMIT]

    def test_range_limit_truncates_but_counts_all(self, index):
        asns = index.all_asns()
        doc = index.range_summary(asns[0], asns[-1], limit=5)
        assert len(doc["asns"]) == 5
        assert doc["truncated"]
        assert doc["count"] == len(asns)

    def test_range_as_of_counts_match_brute_force(self, index):
        day = (index.meta.start + index.meta.end) // 2
        asns = index.all_asns()
        doc = index.range_as_of(asns[0], asns[-1], day)
        allocated = sum(
            any(life.start <= day <= life.end for life in index.record(a).admin)
            for a in asns)
        assert doc["allocated"] == allocated

    def test_open_rejects_missing_store(self, tmp_path):
        with pytest.raises(ServeStoreError):
            StoreIndex.open(tmp_path, faults=None)

    def test_open_rejects_shard_index_mismatch(self, store_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(store_dir, broken)
        index_doc = json.loads((broken / "store.json").read_text())
        index_doc["shards"][0]["lo"] += 1
        blob = (json.dumps(index_doc, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
        # rewrite through the cache so the sidecar manifest stays valid
        from repro.runtime import Tracer
        from repro.serve.store import store_bytes_verified, store_publisher

        store_bytes_verified(store_publisher(broken, faults=None),
                             "store.json", blob, tracer=Tracer())
        with pytest.raises(ServeStoreError, match="does not match its index"):
            StoreIndex.open(broken, faults=None)


class TestHttpServer:
    @pytest.fixture()
    def served(self, index):
        """A running server; yields (host, port) inside a fresh loop."""
        # each test drives its own asyncio.run; the server lives in a
        # dedicated background loop to survive across them
        import threading

        loop = asyncio.new_event_loop()
        server = LifetimesServer(index)
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop).result(10)
        yield host, port
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)

    def test_healthz_and_snapshot(self, served, index):
        status, doc = _get(*served, "/healthz")
        assert (status, doc["status"]) == (200, "ok")
        status, doc = _get(*served, "/snapshot")
        assert doc["snapshot"] == index.digest
        assert doc["counts"]["asns"] == len(index)

    def test_point_routes_match_index(self, served, index):
        asn = index.all_asns()[0]
        for path, expected in [
            (f"/asn/{asn}/lives", index.lives(asn)),
            (f"/asn/{asn}/taxonomy", index.taxonomy(asn)),
        ]:
            status, doc = _get(*served, path)
            assert (status, doc) == (200, expected)

    def test_as_of_route(self, served, index):
        from repro.timeline.dates import to_iso

        asn = index.all_asns()[0]
        day = index.meta.end
        status, doc = _get(*served, f"/asn/{asn}/as-of/{to_iso(day)}")
        assert status == 200
        assert doc == index.as_of(asn, day)

    def test_range_routes(self, served, index):
        asns = index.all_asns()
        status, doc = _get(*served, f"/range/{asns[0]}-{asns[9]}?limit=3")
        assert status == 200
        assert doc == index.range_summary(asns[0], asns[9], limit=3)

    def test_unknown_asn_404(self, served, index):
        status, doc = _get(*served, f"/asn/{max(index.all_asns()) + 7}/lives")
        assert (status, doc["error"]) == (404, "unknown asn")

    def test_bad_inputs_400(self, served):
        for path in ("/asn/xyz/lives", "/asn/12/as-of/not-a-date",
                     "/range/9-5", "/range/abc-def", "/asn/5/unknown"):
            status, _doc = _get(*served, path)
            assert status == 400, path

    def test_unknown_route_404(self, served):
        status, _doc = _get(*served, "/utterly/unknown")
        assert status == 404

    def test_post_is_405(self, served):
        async def go():
            host, port = served
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            return status

        assert asyncio.run(go()) == 405

    def test_keep_alive_serves_many_requests_per_connection(self, served, index):
        async def go():
            host, port = served
            reader, writer = await asyncio.open_connection(host, port)
            statuses = []
            for _ in range(5):
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                statuses.append(int((await reader.readline()).split()[1]))
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
            writer.close()
            return statuses

        assert asyncio.run(go()) == [200] * 5

    def test_connection_close_is_honored(self, served):
        async def go():
            host, port = served
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()  # server closes after one response
            writer.close()
            return raw

        raw = asyncio.run(go())
        assert b"Connection: close" in raw

    def test_http10_defaults_to_close(self, served):
        status, doc = _get(*served, "/healthz", version="HTTP/1.0")
        assert (status, doc["status"]) == (200, "ok")

    def test_healthz_carries_slo_window(self, served):
        status, doc = _get(*served, "/healthz")
        assert status == 200
        assert doc["slo"]["window_seconds"] == 60.0
        assert "error_rate" in doc["slo"]


def _serve_raw(index, interact, *, telemetry=None):
    """Run ``interact(host, port)`` against a fresh private server."""

    async def go():
        from repro.runtime.observability import MetricsRegistry
        from repro.serve.telemetry import ServerTelemetry

        server = LifetimesServer(
            index,
            telemetry=telemetry or ServerTelemetry(metrics=MetricsRegistry()),
        )
        host, port = await server.start()
        try:
            return await interact(server, host, port), server
        finally:
            await server.close()

    return asyncio.run(go())


async def _raw_exchange(host, port, payload):
    """Write raw bytes, read everything until the server closes."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return raw


async def _aget(host, port, path):
    """One keep-alive GET on a fresh connection → (status, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _sep, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length)
    writer.close()
    return status, body


class TestTelemetryRoutes:
    def test_metrics_exposition_parses_and_counts_routes(self, index):
        from repro.serve.telemetry import parse_exposition

        asn = index.all_asns()[0]

        async def interact(server, host, port):
            await _aget(host, port, f"/asn/{asn}/lives")
            await _aget(host, port, f"/asn/{asn}/lives")
            await _aget(host, port, "/range/0-9999999?limit=3")
            return await _aget(host, port, "/metrics")

        (status, body), _server = _serve_raw(index, interact)
        assert status == 200
        samples = parse_exposition(body.decode("utf-8"))
        assert samples[(
            "repro_serve_http_requests_total",
            (("route", "/asn/{n}/lives"), ("status", "200")),
        )] == 2
        assert samples[(
            "repro_serve_http_requests_total",
            (("route", "/range/{lo}-{hi}"), ("status", "200")),
        )] == 1
        assert samples[(
            "repro_serve_http_request_us_count", (("route", "/asn/{n}/lives"),),
        )] == 2

    def test_status_document_over_http(self, index):
        asn = index.all_asns()[0]

        async def interact(server, host, port):
            await _aget(host, port, f"/asn/{asn}/taxonomy")
            return await _aget(host, port, "/status")

        (status, body), _server = _serve_raw(index, interact)
        assert status == 200
        doc = json.loads(body)
        assert doc["snapshot"] == index.digest
        assert doc["uptime_seconds"] >= 0.0
        row = doc["routes"]["/asn/{n}/taxonomy"]
        assert row["requests"] == 1 and row["errors"] == 0
        assert "p99_us" in row
        assert doc["slo"]["requests"] >= 1

    def test_route_template_bounds_cardinality(self):
        from repro.serve.http import route_template

        cases = {
            "/healthz": "/healthz",
            "/metrics": "/metrics",
            "/asn/5/lives": "/asn/{n}/lives",
            "/asn/xyz/lives": "/asn/{n}/lives",
            "/asn/5/taxonomy": "/asn/{n}/taxonomy",
            "/asn/5/as-of/2021-01-01": "/asn/{n}/as-of/{date}",
            "/asn/5/unknown": "/asn/*",
            "/range/1-2": "/range/{lo}-{hi}",
            "/range/1-2/as-of/2021-01-01": "/range/{lo}-{hi}/as-of/{date}",
            "/range/1-2/bogus": "/range/*",
            "/utterly/unknown": "unmatched",
        }
        for path, expected in cases.items():
            assert route_template(path) == expected, path


class TestRequestHardening:
    def _dropped(self, server):
        counters = server.metrics.snapshot()["counters"]
        return {
            name.split("reason=")[1]: value
            for name, value in counters.items()
            if name.startswith("serve.http.dropped|")
        }

    def test_malformed_head_answers_400_and_counts(self, index):
        async def interact(server, host, port):
            return await _raw_exchange(host, port, b"NOT-AN-HTTP-HEAD\r\n\r\n")

        raw, server = _serve_raw(index, interact)
        assert b"400 Bad Request" in raw
        assert b"Connection: close" in raw
        assert b"malformed-head" in raw
        assert self._dropped(server) == {"malformed-head": 1}

    def test_oversized_request_line_answers_400(self, index):
        async def interact(server, host, port):
            head = b"GET /" + b"a" * 8000 + b" HTTP/1.1\r\n\r\n"
            return await _raw_exchange(host, port, head)

        raw, server = _serve_raw(index, interact)
        assert b"400 Bad Request" in raw
        assert self._dropped(server) == {"oversized-line": 1}

    def test_header_flood_answers_400(self, index):
        async def interact(server, host, port):
            payload = b"GET /healthz HTTP/1.1\r\n"
            payload += b"X-Flood: y\r\n" * 200 + b"\r\n"
            return await _raw_exchange(host, port, payload)

        raw, server = _serve_raw(index, interact)
        assert b"400 Bad Request" in raw
        assert self._dropped(server) == {"header-flood": 1}

    def test_request_body_is_never_read_as_a_second_request(self, index):
        # the body is a complete request of its own: a server that
        # ignores Content-Length answers the POST, then the smuggled GET
        smuggled = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        length = str(len(smuggled)).encode()
        cases = [
            (b"POST /healthz HTTP/1.1\r\nContent-Length: " + length + b"\r\n",
             b"HTTP/1.1 413 Content Too Large\r\n", "request-body"),
            # the last of two Content-Length headers must not win
            (b"GET /healthz HTTP/1.1\r\nContent-Length: " + length + b"\r\n"
             b"Content-Length: 0\r\n",
             b"HTTP/1.1 400 Bad Request\r\n", "malformed-head"),
            # int() takes "+0"; 1*DIGIT does not
            (b"GET /healthz HTTP/1.1\r\nContent-Length: +0\r\n",
             b"HTTP/1.1 400 Bad Request\r\n", "malformed-head"),
        ]
        for head, status_line, reason in cases:
            payload = head + b"\r\n" + smuggled

            async def interact(server, host, port):
                return await _raw_exchange(host, port, payload)

            raw, server = _serve_raw(index, interact)
            assert raw.count(b"HTTP/1.1 ") == 1, head
            assert raw.startswith(status_line), head
            assert b"Connection: close" in raw
            assert self._dropped(server) == {reason: 1}
            counters = server.metrics.snapshot()["counters"]
            assert counters.get("serve.http.requests", 0) == 0

    def test_chunked_request_body_answers_501(self, index):
        payload = (
            b"POST /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"1a\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n"
        )

        async def interact(server, host, port):
            return await _raw_exchange(host, port, payload)

        raw, server = _serve_raw(index, interact)
        assert raw.count(b"HTTP/1.1 ") == 1
        assert raw.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert self._dropped(server) == {"request-body": 1}

    def test_empty_declared_body_is_served(self, index):
        async def interact(server, host, port):
            return await _raw_exchange(
                host, port,
                b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n"
                b"Connection: close\r\n\r\n",
            )

        raw, server = _serve_raw(index, interact)
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert self._dropped(server) == {}

    def test_dropped_requests_never_count_as_served(self, index):
        async def interact(server, host, port):
            await _raw_exchange(host, port, b"junk\r\n\r\n")
            return None

        _none, server = _serve_raw(index, interact)
        counters = server.metrics.snapshot()["counters"]
        assert counters.get("serve.http.requests", 0) == 0
        assert counters["serve.http.dropped"] == 1


class _PoisonedIndex:
    """Delegates to a real index, but point lookups hit rotted shards."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def lives(self, asn):
        raise RuntimeError("shard rot")


class TestInternalErrors:
    def test_poisoned_index_is_a_500_json_body(self, index):
        poisoned = _PoisonedIndex(index)
        asn = index.all_asns()[0]

        async def interact(server, host, port):
            # the connection survives the 500: a second request answers
            reader, writer = await asyncio.open_connection(host, port)
            results = []
            for path in (f"/asn/{asn}/lives", f"/asn/{asn}/taxonomy"):
                writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _sep, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value.strip())
                results.append((status, await reader.readexactly(length)))
            writer.close()
            return results

        results, server = _serve_raw(poisoned, interact)
        assert results[0][0] == 500
        assert json.loads(results[0][1]) == {"error": "internal server error"}
        assert results[1][0] == 200  # keep-alive survived the failure
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.http.errors"] == 1
        assert counters["serve.http.exceptions"] == 1
        from repro.serve.telemetry import labeled

        assert counters[labeled(
            "serve.http.exceptions", route="/asn/{n}/lives", type="RuntimeError",
        )] == 1


class TestLoadGen:
    def test_plan_is_deterministic(self, index):
        meta = index.meta
        asns = index.all_asns()
        a = plan_queries(asns, meta, 500, seed=3)
        b = plan_queries(asns, meta, 500, seed=3)
        assert a.paths == b.paths
        assert plan_queries(asns, meta, 500, seed=4).paths != a.paths

    def test_plan_mixes_all_query_kinds(self, index):
        plan = plan_queries(index.all_asns(), index.meta, 1000, seed=0)
        assert sum("/lives" in p for p in plan.paths) > 0
        assert sum("/taxonomy" in p for p in plan.paths) > 0
        assert sum("/as-of/" in p for p in plan.paths) > 0
        assert sum(p.startswith("/range/") for p in plan.paths) > 0

    def test_plan_is_zipf_skewed(self, index):
        from collections import Counter

        plan = plan_queries(index.all_asns(), index.meta, 4000, seed=0)
        hits = Counter()
        for path in plan.paths:
            if path.startswith("/asn/"):
                hits[int(path.split("/")[2])] += 1
        top, total = hits.most_common(1)[0][1], sum(hits.values())
        # the hottest ASN dominates far beyond a uniform draw
        assert top / total > 5.0 / len(index.all_asns())

    def test_plan_rejects_empty_universe(self, index):
        with pytest.raises(ServeStoreError):
            plan_queries([], index.meta, 10)

    def test_run_load_checked_counters_match_exactly(self, index):
        from repro.serve.loadgen import run_load_checked

        plan = plan_queries(index.all_asns(), index.meta, 400, seed=5)

        async def go():
            from repro.runtime.observability import MetricsRegistry
            from repro.serve.telemetry import ServerTelemetry

            server = LifetimesServer(
                index, telemetry=ServerTelemetry(metrics=MetricsRegistry())
            )
            host, port = await server.start()
            try:
                return await run_load_checked(host, port, plan, concurrency=2)
            finally:
                await server.close()

        report, consistency = asyncio.run(go())
        assert report.queries == 400
        assert consistency["sent"] == 400
        assert consistency["server_requests"] == 400
        assert consistency["requests_match"] is True
        # server-side estimates exist and carry the run's latency scale
        assert consistency["server"]["p50_us"] > 0
        assert consistency["server"]["p99_us"] >= consistency["server"]["p50_us"]
        assert consistency["bucket_offsets"]["p99"] is not None

    def test_load_run_reports_clean_numbers(self, index):
        async def go():
            server = LifetimesServer(index)
            host, port = await server.start()
            try:
                plan = plan_queries(index.all_asns(), index.meta, 400, seed=1)
                return await run_load(host, port, plan, concurrency=4)
            finally:
                await server.close()

        report = asyncio.run(go())
        assert report.queries == 400
        assert report.errors == 0
        assert report.qps > 0
        assert 0 < report.p50_us <= report.p99_us
        doc = report.to_json_dict()
        assert doc["concurrency"] == 4
