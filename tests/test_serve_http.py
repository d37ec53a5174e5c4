"""Tests for the serve query layer: StoreIndex, HTTP server, loadgen.

Query results are checked against brute-force scans over the decoded
records — the index's binary searches must agree with the obvious
O(n) answer on every ASN, including the ones between shards.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _rewritten(store_dir, tmp_path, name, mutate):
    """A copy of the store with one file's JSON document changed by
    ``mutate``, republished so its sha256 sidecar still verifies."""
    import shutil

    from repro.runtime import Tracer
    from repro.serve.store import store_bytes_verified, store_publisher

    copy = tmp_path / "copy"
    shutil.copytree(store_dir, copy)
    doc = json.loads((copy / name).read_text())
    mutate(doc)
    blob = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    store_bytes_verified(store_publisher(copy, faults=None), name, blob,
                         tracer=Tracer())
    return copy


def _eager_index(store_dir):
    """The store's index over records built up front by ``decode_shard``."""
    from repro.serve.store import decode_shard

    doc = json.loads((store_dir / "store.json").read_text())
    shards = []
    for row in doc["shards"]:
        records = decode_shard((store_dir / row["name"]).read_bytes())
        shards.append(([record.asn for record in records], records))
    return StoreIndex(doc, shards)


def _decoded_shards(index):
    return [shard._records is not None for shard in index._shards]


class TestLazyOpen:
    def test_open_decodes_no_shard(self, store_dir):
        fresh = StoreIndex.open(store_dir, faults=None)
        assert len(fresh._shards) > 1
        assert len(fresh) == len(fresh.all_asns())
        assert fresh.snapshot()["snapshot"] == fresh.digest
        assert fresh.snapshot()["shards"] == len(fresh._shards)
        fresh.lives_body(fresh.all_asns()[-1] + 1)  # past the universe
        assert not any(_decoded_shards(fresh))

    def test_a_point_query_decodes_only_its_shard(self, store_dir):
        fresh = StoreIndex.open(store_dir, faults=None)
        fresh.taxonomy_body(fresh.all_asns()[-1])
        assert _decoded_shards(fresh) == [False] * (len(fresh._shards) - 1) + [True]
        assert fresh._shards[-1]._columns is None  # parsed columns dropped

    def test_iter_records_matches_eager_decode(self, store_dir):
        fresh = StoreIndex.open(store_dir, faults=None)
        eager = _eager_index(store_dir)
        assert list(fresh.iter_records()) == list(eager.iter_records())
        assert [r.asn for r in fresh.iter_records()] == fresh.all_asns()

    @pytest.mark.parametrize("mutate, reason", [
        (lambda doc: doc["op"].pop(), "differ in length"),
        (lambda doc: doc["observed"].append([]), "differ in length"),
        (lambda doc: doc["asns"].reverse(), "ascend strictly"),
        (lambda doc: doc["asns"].__setitem__(2, doc["asns"][1]), "ascend strictly"),
    ])
    def test_open_rejects_a_reshaped_shard(self, store_dir, tmp_path, mutate, reason):
        broken = _rewritten(store_dir, tmp_path, "shard-00000.json", mutate)
        with pytest.raises(ServeStoreError, match=reason):
            StoreIndex.open(broken, faults=None)

    def test_open_rejects_count_mismatch(self, store_dir, tmp_path):
        def recount(doc):
            doc["shards"][1]["count"] -= 1

        broken = _rewritten(store_dir, tmp_path, "store.json", recount)
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

    def lives_body(self, asn):
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


    def test_a_malformed_row_fails_only_its_shard(self, store_dir, tmp_path):
        """A shard whose bytes verify but which holds a malformed row
        opens; the first query reaching it is a counted 500, and the
        other shards keep answering."""
        def break_row(doc):
            doc["admin"][5] = [[1, 2]]  # an admin life cut short

        broken = _rewritten(store_dir, tmp_path, "shard-00001.json", break_row)
        index = StoreIndex.open(broken, faults=None)
        first, second = index._shards[0].asns[0], index._shards[1].asns[0]

        async def interact(server, host, port):
            return [await _aget(host, port, path) for path in (
                f"/asn/{second}/lives", f"/asn/{second}/taxonomy",
                f"/asn/{first}/lives", f"/range/{first}-{first}",
            )]

        results, server = _serve_raw(index, interact)
        for status, body in results[:2]:
            assert status == 500
            assert json.loads(body) == {"error": "internal server error"}
        assert [status for status, _body in results[2:]] == [200, 200]
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.http.exceptions"] == 2
        from repro.serve.telemetry import labeled

        assert counters[labeled(
            "serve.http.exceptions", route="/asn/{n}/lives",
            type="ServeStoreError",
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
        # every server window nests inside its client window, at any
        # concurrency, so no server quantile sits in a higher bucket
        assert consistency["quantiles_agree"] is True
        assert all(o >= 0 for o in consistency["bucket_offsets"].values())

    def test_run_load_checked_flags_a_server_slower_than_its_client(self, index):
        from repro.runtime.observability import MetricsRegistry
        from repro.serve.loadgen import run_load_checked
        from repro.serve.telemetry import ServerTelemetry

        class _Inflated(ServerTelemetry):
            def record_request(self, *, request_us, **fields):
                super().record_request(request_us=request_us * 1000, **fields)

        plan = plan_queries(index.all_asns(), index.meta, 200, seed=5)

        async def go():
            server = LifetimesServer(
                index, telemetry=_Inflated(metrics=MetricsRegistry())
            )
            host, port = await server.start()
            try:
                return await run_load_checked(host, port, plan, concurrency=1)
            finally:
                await server.close()

        _report, consistency = asyncio.run(go())
        assert consistency["requests_match"] is True
        assert consistency["quantiles_agree"] is False
        assert consistency["bucket_offsets"]["p50"] < 0

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


# -- served bytes against the dict oracle -------------------------------------


def _wide_index(count=2500):
    """A synthetic snapshot of ``count`` ASNs, every third number taken.

    Wide enough that range bodies (plain and as-of) truncate at the
    1000-row cap; the gaps between ASNs make empty ranges and unknown
    ASNs inside the universe.  Lives vary in number (0-2), flags and
    length, so as-of days land on, inside and between them.
    """
    from repro.core.taxonomy import Category
    from repro.lifetimes.records import AdminLifetime, BgpLifetime
    from repro.serve.store import SERVE_STORE_FORMAT, AsnRecord, StoreMeta
    from repro.timeline.dates import from_iso
    from repro.timeline.intervals import Interval, IntervalSet

    start = from_iso("2020-01-01")
    end = start + 99
    categories = list(Category)
    records = []
    for k in range(count):
        asn = 64 + 3 * k
        record = AsnRecord(asn=asn)
        first = start - 30 + k % 50
        for n in range(k % 3):
            life_start = first + 100 * n
            record.admin.append(AdminLifetime(
                asn=asn, start=life_start, end=life_start + 80 + k % 17,
                reg_date=life_start - k % 5, registries=("ripencc", "arin")[n:],
                open_ended=n == 1, via_nir=k % 7 == 0, left_censored=k % 11 == 0,
            ))
        for n in range(k % 4 // 2 + (k % 5 == 0)):
            life_start = first + 5 + 45 * n
            record.op.append(BgpLifetime(
                asn=asn, start=life_start, end=life_start + 10 + k % 13,
                open_ended=k % 2 == 0,
            ))
        record.admin_cats = [
            categories[(k + i) % len(categories)] for i in range(len(record.admin))
        ]
        record.op_cats = [
            categories[(k + 2 * i) % len(categories)] for i in range(len(record.op))
        ]
        record.observed = IntervalSet(
            [Interval(life.start, life.end - 2) for life in record.op]
        )
        record.single = IntervalSet(
            [Interval(life.end - 1, life.end) for life in record.op]
        )
        records.append(record)
    shards = [
        ([record.asn for record in records[i:i + 300]], records[i:i + 300])
        for i in range(0, count, 300)
    ]
    doc = {
        "format": SERVE_STORE_FORMAT,
        "digest": "5" * 64,
        "config_hash": None,
        "meta": StoreMeta(start=start, end=end).to_json_dict(),
        "counts": {"asns": count},
        "shards": [],
    }
    return StoreIndex(doc, shards)


@pytest.fixture(scope="module")
def appended_pair(bundle, tmp_path_factory):
    """A store before and after ``serve.append`` of its last two days."""
    from repro.serve.append import append_days

    out = tmp_path_factory.mktemp("serve-append")
    end = bundle.world.config.end_day
    build_store(out, bundle.world, bundle.admin_lives,
                start=end - 59, end=end - 2, shard_size=100, faults=None)
    before = StoreIndex.open(out, faults=None)
    before.lives_body(before.all_asns()[0])  # encode a shard pre-append
    append_days(out, bundle.world, 2, faults=None)
    return before, StoreIndex.open(out, faults=None)


@pytest.fixture(scope="module")
def servers(index, appended_pair):
    """name -> (index, host, port): one live server per snapshot."""
    import threading

    from repro.runtime.observability import MetricsRegistry

    indexes = {
        "tiny": index,
        "wide": _wide_index(),
        "pre-append": appended_pair[0],
        "appended": appended_pair[1],
    }
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    running = {}
    for name, store in indexes.items():
        server = LifetimesServer(store, metrics=MetricsRegistry())
        host, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop).result(10)
        running[name] = (server, store, host, port)
    yield {name: (store, host, port)
           for name, (_server, store, host, port) in running.items()}
    for server, *_rest in running.values():
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


def _fetch_all(host, port, paths):
    """GET each path in turn → [(status, body bytes)]."""

    async def go():
        return [await _aget(host, port, path) for path in paths]

    return asyncio.run(go())


def _oracle(index, path):
    """``(status, _json_body(dict))`` from the index's dict methods."""
    from urllib.parse import parse_qs, urlsplit

    from repro.serve.http import _json_body
    from repro.timeline.dates import from_iso

    parts = urlsplit(path)
    segments = [s for s in parts.path.split("/") if s]
    if segments == ["snapshot"]:
        return 200, _json_body(index.snapshot())
    if segments[0] == "asn":
        asn = int(segments[1])
        if segments[2] == "lives":
            document = index.lives(asn)
        elif segments[2] == "taxonomy":
            document = index.taxonomy(asn)
        else:
            document = index.as_of(asn, from_iso(segments[3]))
        if document is None:
            return 404, _json_body({"error": "unknown asn"})
        return 200, _json_body(document)
    lo, _sep, hi = segments[1].partition("-")
    query = parse_qs(parts.query)
    limit = int(query["limit"][-1]) if "limit" in query else DEFAULT_RANGE_LIMIT
    if len(segments) == 2:
        document = index.range_summary(int(lo), int(hi), limit=limit)
    else:
        document = index.range_as_of(
            int(lo), int(hi), from_iso(segments[3]), limit=limit)
    return 200, _json_body(document)


def _probe_days(index, record):
    """Window edges, the days around them, and every life's first and
    last day (and the days just outside them)."""
    meta = index.meta
    days = {meta.start - 400, meta.start - 1, meta.start, meta.end,
            meta.end + 1, meta.end + 400}
    if record is not None:
        for life in record.admin + record.op:
            days |= {life.start - 1, life.start, life.end, life.end + 1}
    return sorted(days)


_SNAPSHOTS = ["tiny", "wide", "pre-append", "appended"]
_LIMITS = [None, 0, 1, 2, 999, 1000, 1001, 10**6]


class TestServedBytes:
    """Every data route and ``/snapshot`` serve, byte for byte, the
    ``_json_body`` encoding of the index's dict answer."""

    @pytest.mark.parametrize("name", _SNAPSHOTS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_point_routes(self, servers, name, data):
        from repro.timeline.dates import to_iso

        index, host, port = servers[name]
        asns = index.all_asns()
        asn = data.draw(st.one_of(
            st.sampled_from(asns),
            st.sampled_from([0, asns[0] - 1, asns[-1] + 1, 10**10]),
            st.integers(0, asns[-1] + 10),
        ), label="asn")
        day = data.draw(st.one_of(
            st.sampled_from(_probe_days(index, index.record(asn))),
            st.integers(index.meta.start - 50, index.meta.end + 50),
        ), label="day")
        paths = [f"/asn/{asn}/lives", f"/asn/{asn}/taxonomy",
                 f"/asn/{asn}/as-of/{to_iso(day)}", "/snapshot"]
        for path, got in zip(paths, _fetch_all(host, port, paths)):
            assert got == _oracle(index, path), path

    @pytest.mark.parametrize("name", _SNAPSHOTS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_range_routes(self, servers, name, data):
        from repro.timeline.dates import to_iso

        index, host, port = servers[name]
        asns = index.all_asns()
        top = asns[-1]
        lo = data.draw(st.one_of(
            st.sampled_from(asns),
            st.integers(0, top + 10),
            st.integers(top + 1, 10**10),  # past the universe
        ), label="lo")
        hi = lo + data.draw(st.one_of(
            st.integers(0, 3), st.integers(0, top), st.just(10**10),
        ), label="width")
        limit = data.draw(st.sampled_from(_LIMITS), label="limit")
        record = index.record(lo)
        day = data.draw(st.sampled_from(_probe_days(index, record)), label="day")
        query = "" if limit is None else f"?limit={limit}"
        paths = [f"/range/{lo}-{hi}{query}",
                 f"/range/{lo}-{hi}/as-of/{to_iso(day)}{query}"]
        for path, got in zip(paths, _fetch_all(host, port, paths)):
            assert got == _oracle(index, path), path

    def test_edge_cases(self, servers):
        """The cases the generators must not leave to chance."""
        from repro.timeline.dates import to_iso

        for name in _SNAPSHOTS:
            index, host, port = servers[name]
            asns = index.all_asns()
            top = asns[-1]
            mid = (index.meta.start + index.meta.end) // 2
            paths = [
                f"/asn/{top + 1}/lives", f"/asn/{top + 1}/taxonomy",
                f"/asn/{top + 1}/as-of/{to_iso(mid)}",
                f"/range/{top + 1}-{top + 10**6}",  # past the universe
                f"/range/{top + 1}-{top + 10**6}/as-of/{to_iso(mid)}",
                f"/range/{asns[0]}-{top}?limit=1",
                f"/range/{asns[0]}-{top}/as-of/{to_iso(mid)}?limit=1",
                f"/range/0-{10**10}", f"/range/0-{10**10}/as-of/{to_iso(mid)}",
                f"/range/0-{10**10}/as-of/{to_iso(index.meta.start - 1)}",
                f"/range/0-{10**10}/as-of/{to_iso(index.meta.end + 1)}",
            ]
            for path, got in zip(paths, _fetch_all(host, port, paths)):
                assert got == _oracle(index, path), (name, path)

    def test_wide_snapshot_truncates_at_the_cap(self, servers):
        from repro.timeline.dates import to_iso

        index, host, port = servers["wide"]
        mid = (index.meta.start + index.meta.end) // 2
        paths = [f"/range/0-{10**10}?limit=5000",
                 f"/range/0-{10**10}/as-of/{to_iso(mid)}"]
        (_s1, summary), (_s2, as_of) = _fetch_all(host, port, paths)
        summary, as_of = json.loads(summary), json.loads(as_of)
        assert summary["truncated"] and len(summary["asns"]) == 1000
        assert summary["count"] == len(index)
        assert as_of["truncated"] and len(as_of["asns"]) == 1000
        assert as_of["allocated"] + as_of["active"] > 1000  # counts past the cap

    def test_the_empty_gap_between_asns_is_an_empty_range(self, servers):
        index, host, port = servers["wide"]
        asn = index.all_asns()[10]
        path = f"/range/{asn + 1}-{asn + 2}"
        ((status, body),) = _fetch_all(host, port, [path])
        assert (status, body) == _oracle(index, path)
        assert json.loads(body)["count"] == 0

    def test_an_append_serves_its_new_digest(self, servers):
        before, host, port = servers["pre-append"]
        after, host2, port2 = servers["appended"]
        assert before.digest != after.digest
        asn = after.all_asns()[0]
        ((_s1, old),) = _fetch_all(host, port, [f"/asn/{asn}/lives"])
        ((_s2, new),) = _fetch_all(host2, port2, [f"/asn/{asn}/lives"])
        assert json.loads(old)["snapshot"] == before.digest
        assert json.loads(new)["snapshot"] == after.digest

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_lazy_open_serves_the_eager_bytes(self, servers, store_dir, data):
        """Every route of a lazily opened index, cold and warm, answers
        the bytes of an index over records built by ``decode_shard``."""
        from repro.timeline.dates import to_iso

        eager = _eager_index(store_dir)
        asns = eager.all_asns()
        top = asns[-1]
        edges = [asn for shard in eager._shards
                 for asn in (shard.asns[0], shard.asns[-1])]
        asn = data.draw(st.one_of(
            st.sampled_from(asns), st.integers(0, top + 10)), label="asn")
        lo = data.draw(st.one_of(
            st.sampled_from(asns), st.integers(0, top + 10),
            st.sampled_from(edges),  # ranges that cross a shard boundary
        ), label="lo")
        hi = lo + data.draw(st.one_of(
            st.integers(0, 3), st.integers(0, top), st.just(10**10),
        ), label="width")
        day = data.draw(st.one_of(
            st.sampled_from(_probe_days(eager, eager.record(asn))),
            st.integers(eager.meta.start - 50, eager.meta.end + 50),
        ), label="day")
        limit = data.draw(st.sampled_from([1, 2, 250, 1000]), label="limit")
        calls = [
            ("lives_body", (asn,), {}),
            ("taxonomy_body", (asn,), {}),
            ("as_of_body", (asn, day), {}),
            ("range_summary_body", (lo, hi), {"limit": limit}),
            ("range_as_of_body", (lo, hi, day), {"limit": limit}),
        ]
        for name, args, kwargs in calls:
            lazy = StoreIndex.open(store_dir, faults=None)
            want = getattr(eager, name)(*args, **kwargs)
            assert getattr(lazy, name)(*args, **kwargs) == want, ("cold", name)
            assert getattr(lazy, name)(*args, **kwargs) == want, ("warm", name)
        # the served "tiny" snapshot is a lazy open too
        _index, host, port = servers["tiny"]
        paths = [f"/asn/{asn}/lives", f"/asn/{asn}/taxonomy",
                 f"/asn/{asn}/as-of/{to_iso(day)}",
                 f"/range/{lo}-{hi}?limit={limit}",
                 f"/range/{lo}-{hi}/as-of/{to_iso(day)}?limit={limit}",
                 "/snapshot"]
        for path, got in zip(paths, _fetch_all(host, port, paths)):
            assert got == _oracle(eager, path), path

    def test_open_encodes_nothing(self, store_dir):
        fresh = StoreIndex.open(store_dir, faults=None)
        assert fresh._encoded == {}
        assert all(rows is None for rows in fresh._summaries)
        assert all(columns is None for columns in fresh._as_of)

    def test_a_query_encodes_only_what_it_emits(self, store_dir):
        fresh = StoreIndex.open(store_dir, faults=None)
        asns = fresh.all_asns()
        day = fresh.meta.end
        fresh.lives_body(asns[0])
        fresh.taxonomy_body(asns[-1])
        fresh.as_of_body(asns[0], day)
        fresh.range_summary_body(asns[0], asns[-1])
        assert all(columns is None for columns in fresh._as_of)
        fresh = StoreIndex.open(store_dir, faults=None)
        second = fresh._shards[1].asns
        fresh.range_as_of_body(second[0], second[-1], day)
        assert [columns is not None for columns in fresh._as_of] == (
            [False, True] + [False] * (len(fresh._shards) - 2))
        fresh.range_as_of_body(asns[0], asns[-1], day)
        assert all(columns is not None for columns in fresh._as_of)
        record = fresh.record(asns[0])
        before = min(life.start for life in record.admin + record.op) - 1
        fresh.as_of_body(asns[0], before)  # covers no life
        assert fresh._encoded == {}
        assert all(rows is None for rows in fresh._summaries)
        fresh.lives_body(asns[0])
        assert list(fresh._encoded) == [asns[0]]
        fresh.range_summary_body(asns[0], asns[0])
        assert sum(rows is not None for rows in fresh._summaries) == 1


class TestRangeAsOfColumns:
    """The range as-of body, built from per-shard life columns, against
    ``_json_body`` of the dict answer on the cases a vectorised pass
    could get wrong."""

    @staticmethod
    def _assert_oracle(index, lo, hi, day, limit=DEFAULT_RANGE_LIMIT):
        from repro.serve.http import _json_body

        body = index.range_as_of_body(lo, hi, day, limit=limit)
        assert body == _json_body(index.range_as_of(lo, hi, day, limit=limit)), (
            lo, hi, day, limit)
        return json.loads(body)

    @pytest.mark.parametrize("name", ["tiny", "wide"])
    def test_every_life_edge_across_a_shard_boundary(self, store_dir, name):
        index = (StoreIndex.open(store_dir, faults=None) if name == "tiny"
                 else _wide_index())
        lo, hi = index._shards[0].asns[-20], index._shards[1].asns[20]
        days = set(_probe_days(index, None))  # the window's edges, and past them
        for record in index.iter_records():
            if lo <= record.asn <= hi:
                days |= set(_probe_days(index, record))
        for day in sorted(days):
            for limit in (1, DEFAULT_RANGE_LIMIT):
                self._assert_oracle(index, lo, hi, day, limit)

    def test_records_with_lives_of_one_kind(self):
        index = _wide_index()
        records = list(index.iter_records())
        admin_only = [r for r in records if r.admin and not r.op][:20]
        op_only = [r for r in records if r.op and not r.admin][:20]
        assert admin_only and op_only
        for record in admin_only + op_only:
            for day in _probe_days(index, record):
                doc = self._assert_oracle(index, record.asn, record.asn, day)
                assert doc["allocated"] <= bool(record.admin)
                assert doc["active"] <= bool(record.op)
                self._assert_oracle(index, record.asn - 10, record.asn + 10, day)

    def test_limit_one_counts_past_the_limit(self, store_dir):
        index = StoreIndex.open(store_dir, faults=None)
        asns = index.all_asns()
        doc = self._assert_oracle(index, asns[0], asns[-1], index.meta.end, 1)
        assert doc["truncated"] and len(doc["asns"]) == 1
        assert doc["allocated"] > 1

    def test_an_inverted_range_is_empty(self, store_dir):
        from repro.serve.http import _json_body

        index = StoreIndex.open(store_dir, faults=None)
        lo, hi = index._shards[0].asns[-2], index._shards[0].asns[1]
        assert index.range_summary_body(lo, hi) == _json_body(
            index.range_summary(lo, hi))
        assert self._assert_oracle(index, lo, hi, index.meta.end)["asns"] == []

    def test_a_range_between_two_shards_is_empty(self):
        index = _wide_index()
        below, above = index._shards[0].asns[-1], index._shards[1].asns[0]
        assert above - below > 1
        for day in _probe_days(index, index.record(below)):
            doc = self._assert_oracle(index, below + 1, above - 1, day)
            assert doc["asns"] == [] and doc["allocated"] == doc["active"] == 0
        assert all(columns is None for columns in index._as_of)


# -- connection framing: parse_head, the protocol, limits and lifecycle -------


async def _read_response(reader):
    """One response off the stream → (status, {header: value}, body)."""
    status_line = await reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _split_responses(raw):
    """Every response in ``raw`` → [(status, body)]; asserts framing."""
    responses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, raw[:200]
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = status_line.split(" ", 2)
        assert parts[0] == "HTTP/1.1" and parts[1].isdigit(), status_line
        headers = dict(
            (name.strip().lower(), value.strip())
            for name, _sep, value in (h.partition(":") for h in header_lines)
        )
        length = int(headers["content-length"])
        assert len(rest) >= length, (status_line, length, len(rest))
        responses.append((int(parts[1]), rest[:length]))
        raw = rest[length:]
    return responses


def _counter(server, name):
    return server.metrics.snapshot()["counters"].get(name, 0)


class _FakeTransport:
    """Just enough of a socket transport to drive ``_Connection``."""

    def __init__(self):
        self.out = bytearray()
        self.closed = False
        self.eof_sent = False

    def write(self, data):
        assert not (self.closed or self.eof_sent)
        self.out += data

    def write_eof(self):
        self.eof_sent = True

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):  # pragma: no cover - writes never back up here
        raise AssertionError("a fake transport never pauses")

    resume_reading = pause_reading


def _recording_telemetry():
    from repro.runtime.observability import MetricsRegistry
    from repro.serve.telemetry import ServerTelemetry

    class _Recording(ServerTelemetry):
        def __init__(self):
            super().__init__(metrics=MetricsRegistry())
            self.events = []

        def record_request(self, *, method, path, status, **fields):
            self.events.append(("request", method, path, status))
            super().record_request(method=method, path=path, status=status,
                                   **fields)

        def record_dropped(self, reason):
            self.events.append(("drop", reason))
            super().record_dropped(reason)

    return _Recording()


def _feed(index, pieces, eof=True):
    """Feed ``pieces`` to one connection, then EOF → (events, bytes out)."""
    from repro.serve.http import _Connection

    loop = asyncio.new_event_loop()
    try:
        telemetry = _recording_telemetry()
        connection = _Connection(LifetimesServer(index, telemetry=telemetry), loop)
        transport = _FakeTransport()
        connection.connection_made(transport)
        for piece in pieces:
            if transport.closed:
                break
            connection.data_received(piece)
        if eof and not transport.closed and not connection.eof_received():
            transport.close()
        assert transport.closed or transport.eof_sent or not eof
        return telemetry.events, bytes(transport.out)
    finally:
        loop.close()


def _head_pieces(asn):
    """The grammar of byte-stream pieces: valid heads and every way to
    break one (junk, oversized lines, header floods, request bodies)."""
    from repro.serve.http import MAX_HEADER_LINES, MAX_LINE

    path = st.sampled_from([
        f"/asn/{asn}/lives", f"/asn/{asn}/taxonomy", "/range/0-999999?limit=3",
        "/snapshot", "/utterly/unknown", "/asn/xyz/lives",
    ])
    header = st.sampled_from([
        "Host: bench", "Connection: close", "Connection: keep-alive",
        "Content-Length: 0", "X-Any: thing", "no colon here",
    ])
    valid = st.builds(
        lambda method, path, version, headers, eol: (
            eol.join([f"{method} {path} {version}", *headers, "", ""])
        ).encode("latin-1"),
        st.sampled_from(["GET", "GET", "GET", "POST"]), path,
        st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]),
        st.lists(header, max_size=3), st.sampled_from(["\r\n", "\n"]),
    )
    broken = st.sampled_from([
        b"NOT-AN-HTTP-HEAD\r\n\r\n",
        b"\r\n",
        b"GET /" + b"a" * 5000 + b" HTTP/1.1\r\n\r\n",
        b"GET /snapshot HTTP/1.1\r\nX-Big: " + b"a" * MAX_LINE + b"\r\n\r\n",
        b"GET /snapshot HTTP/1.1\r\n" + b"X-Flood: y\r\n" * MAX_HEADER_LINES
        + b"\r\n",
        b"POST /snapshot HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        b"POST /snapshot HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"0\r\n\r\n",
        b"GET /snapshot HTTP/1.1\r\nContent-Length: +0\r\n\r\n",
    ])
    return st.one_of(valid, valid, broken, st.binary(max_size=12))


def _chunks(data, stream):
    """``stream`` cut at arbitrary points (hypothesis-drawn)."""
    cuts = sorted(set(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=12), label="cuts")))
    bounds = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestParseHead:
    def test_results(self):
        from repro.serve.http import Drop, parse_head

        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        assert parse_head(head + b"GET") == ("GET", "/healthz", True, len(head))
        assert parse_head(head[:-1]) is None
        assert parse_head(b"") is None and parse_head(b"", eof=True) is None
        # at EOF a head needs neither its blank line nor a final LF
        assert parse_head(b"GET / HTTP/1.0", eof=True) == ("GET", "/", False, 14)
        assert parse_head(b"junk\r\n") == Drop("malformed-head", True, 400)
        assert parse_head(b"GET /" + b"a" * 5000) == Drop(
            "oversized-line", True, 400)
        assert parse_head(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        ) == Drop("request-body", True, 501)

    def test_line_limits(self):
        from repro.serve.http import MAX_HEADER_LINES, MAX_LINE, MAX_REQUEST_LINE
        from repro.serve.http import parse_head

        line = b"GET /" + b"a" * (MAX_REQUEST_LINE - 16) + b" HTTP/1.1\r\n"
        assert len(line) == MAX_REQUEST_LINE
        assert parse_head(line + b"\r\n")[3] == MAX_REQUEST_LINE + 2
        assert parse_head(b"GET /a" + line[5:] + b"\r\n").reason == "oversized-line"
        big = b"X: " + b"a" * (MAX_LINE - 5) + b"\r\n"
        assert len(big) == MAX_LINE
        assert parse_head(b"GET / HTTP/1.1\r\n" + big + b"\r\n")[0] == "GET"
        assert parse_head(b"GET / HTTP/1.1\r\nX" + big).reason == "oversized-line"
        # an open line is oversized as soon as it is too long
        assert parse_head(b"GET / HTTP/1.1\r\nXX" + big[:-1]).reason == (
            "oversized-line")
        flood = b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * (MAX_HEADER_LINES - 1)
        assert parse_head(flood + b"\r\n")[0] == "GET"
        assert parse_head(flood + b"X: y\r\n").reason == "header-flood"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_split_serves_the_whole_stream(self, index, data):
        """However a byte stream is cut into reads, the connection
        answers and drops exactly what it does for the whole stream."""
        pieces = data.draw(st.lists(
            _head_pieces(index.all_asns()[0]), min_size=1, max_size=6),
            label="pieces")
        stream = b"".join(pieces)
        whole = _feed(index, [stream])
        assert _feed(index, _chunks(data, stream)) == whole
        events, out = whole
        assert len(_split_responses(out)) == len(events)

    def test_one_byte_per_read(self, index):
        stream = b"GET /snapshot HTTP/1.1\r\nHost: x\r\n\r\nGET /nope HTTP/1.0\r\n\r\n"
        events, out = _feed(index, [stream[i:i + 1] for i in range(len(stream))])
        assert events == [("request", "GET", "/snapshot", 200),
                          ("request", "GET", "/nope", 404)]
        assert (events, out) == _feed(index, [stream])

    def test_an_open_line_past_a_limit_drops_before_eof(self, index):
        from repro.serve.http import MAX_LINE

        for head in (b"GET /" + b"a" * 5000,
                     b"GET / HTTP/1.1\r\nX: " + b"a" * MAX_LINE):
            pieces = [head[i:i + 1000] for i in range(0, len(head), 1000)]
            events, out = _feed(index, pieces, eof=False)
            assert events == [("drop", "oversized-line")]
            assert _split_responses(out) == [
                (400, b'{"error":"oversized-line"}\n')]


class TestConnections:
    def test_pipelined_requests_answer_in_order(self, index):
        asns = index.all_asns()[:3]

        async def interact(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(
                f"GET /asn/{asn}/lives HTTP/1.1\r\n\r\n".encode() for asn in asns
            ))
            answers = [await _read_response(reader) for _asn in asns]
            writer.close()
            return answers

        answers, server = _serve_raw(index, interact)
        assert [(status, body) for status, _h, body in answers] == [
            (200, index.lives_body(asn)) for asn in asns]
        assert _counter(server, "serve.http.requests") == 3

    def test_a_head_one_byte_per_write_is_served(self, index):
        async def interact(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            for byte in b"GET /snapshot HTTP/1.1\r\nHost: x\r\n\r\n":
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0.001)
            answer = await _read_response(reader)
            writer.close()
            return answer

        (status, _headers, body), _server = _serve_raw(index, interact)
        assert status == 200 and json.loads(body)["snapshot"] == index.digest

    def test_a_request_line_then_eof_is_served(self, index):
        async def interact(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /healthz HTTP/1.1\r\n")
            writer.write_eof()
            raw = await reader.read()
            writer.close()
            return raw

        raw, server = _serve_raw(index, interact)
        ((status, body),) = _split_responses(raw)
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_an_oversized_header_line_answers_400(self, index):
        from repro.serve.http import MAX_LINE

        async def interact(server, host, port):
            served = await _raw_exchange(
                host, port, b"GET /snapshot HTTP/1.1\r\nX-Big: "
                + b"a" * 10_000 + b"\r\nConnection: close\r\n\r\n")
            dropped = await _raw_exchange(
                host, port, b"GET /snapshot HTTP/1.1\r\nX-Big: "
                + b"a" * MAX_LINE + b"\r\n\r\n")
            return served, dropped

        (served, dropped), server = _serve_raw(index, interact)
        assert _split_responses(served)[0][0] == 200
        assert _split_responses(dropped) == [
            (400, b'{"error":"oversized-line"}\n')]
        assert _counter(server, "serve.http.dropped|reason=oversized-line") == 1

    def test_head_deadline_closes_a_silent_client(self, index, monkeypatch):
        import repro.serve.http as http

        monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.05)

        async def interact(server, host, port):
            silent = await asyncio.open_connection(host, port)
            partial = await asyncio.open_connection(host, port)
            partial[1].write(b"GET /healthz HTTP/1.1\r\n")  # no blank line
            busy_reader, busy = await asyncio.open_connection(host, port)
            statuses = []
            loop = asyncio.get_running_loop()
            until = loop.time() + 0.25  # five deadlines of back-to-back requests
            while loop.time() < until:
                busy.write(b"GET /snapshot HTTP/1.1\r\n\r\n")
                statuses.append((await _read_response(busy_reader))[0])
            busy.close()
            closed = [await asyncio.wait_for(reader.read(), 5)
                      for reader, _writer in (silent, partial)]
            for _reader, writer in (silent, partial):
                writer.close()
            return statuses, closed

        (statuses, closed), server = _serve_raw(index, interact)
        assert len(statuses) > 5 and set(statuses) == {200}
        assert closed == [b"", b""]
        assert _counter(server, "serve.http.dropped|reason=head-timeout") == 2
        assert _counter(server, "serve.http.requests") == len(statuses)

    def test_connections_over_the_cap_get_503(self, index, monkeypatch):
        import repro.serve.http as http

        monkeypatch.setattr(http, "MAX_CONNECTIONS", 2)

        async def interact(server, host, port):
            held = [await asyncio.open_connection(host, port) for _ in range(2)]
            for reader, writer in held:
                writer.write(b"GET /snapshot HTTP/1.1\r\n\r\n")
                assert (await _read_response(reader))[0] == 200
            over_reader, over = await asyncio.open_connection(host, port)
            refused = await asyncio.wait_for(over_reader.read(), 5)
            over.close()
            # the held connections keep serving; once one goes, there is room
            reader, writer = held[0]
            writer.write(b"GET /snapshot HTTP/1.1\r\n\r\n")
            assert (await _read_response(reader))[0] == 200
            writer.close()
            for _ in range(500):
                if len(server._connections) < 2:
                    break
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /snapshot HTTP/1.1\r\n\r\n")
            admitted = (await _read_response(reader))[0]
            writer.close()
            held[1][1].close()
            return refused, admitted

        (refused, admitted), server = _serve_raw(index, interact)
        assert refused.startswith(b"HTTP/1.1 503 Service Unavailable\r\n")
        assert b"Connection: close" in refused
        assert _split_responses(refused) == [
            (503, b'{"error":"connection-cap"}\n')]
        assert admitted == 200
        assert _counter(server, "serve.http.dropped|reason=connection-cap") == 1
        assert _counter(server, "serve.http.requests") == 4

    def test_a_full_write_buffer_pauses_reading(self):
        import socket

        index = _wide_index()
        asns = index.all_asns()
        ranges = [(asns[i], asns[-1]) for i in range(50)]

        async def interact(server, host, port):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            reader, writer = await asyncio.open_connection(sock=sock)
            writer.write(b"GET /snapshot HTTP/1.1\r\n\r\n")
            await _read_response(reader)
            (connection,) = server._connections
            transport = connection.transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            transport.set_write_buffer_limits(high=256, low=64)
            writer.write(b"".join(
                f"GET /range/{lo}-{hi}?limit=1000 HTTP/1.1\r\n\r\n".encode()
                for lo, hi in ranges))
            for _ in range(500):
                if connection.paused:
                    break
                await asyncio.sleep(0.01)
            paused = (connection.paused, transport.is_reading(),
                      _counter(server, "serve.http.requests"))
            answers = [await _read_response(reader) for _range in ranges]
            writer.close()
            return paused, answers

        (paused, answers), server = _serve_raw(index, interact)
        is_paused, reading, answered = paused
        assert is_paused and not reading
        assert answered < 51  # heads were left waiting in the buffer
        assert [(status, body) for status, _h, body in answers] == [
            (200, index.range_summary_body(lo, hi, limit=1000))
            for lo, hi in ranges]
        assert _counter(server, "serve.http.requests") == 51
        assert _counter(server, "serve.http.dropped") == 0

    def test_close_ends_idle_keep_alive_connections(self, index):
        import gc
        import warnings

        from repro.runtime.observability import MetricsRegistry

        async def go():
            server = LifetimesServer(index, metrics=MetricsRegistry())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /snapshot HTTP/1.1\r\n\r\n")
            status = (await _read_response(reader))[0]
            await server.close()
            tail = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            await writer.wait_closed()
            return status, tail, len(server._connections)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = asyncio.run(go())
            gc.collect()
        assert result == (200, b"", 0)
        assert not [w for w in caught if "unclosed" in str(w.message)]


    def test_close_cuts_off_a_client_that_reads_nothing(self, monkeypatch):
        import socket

        import repro.serve.http as http
        from repro.runtime.observability import MetricsRegistry

        monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.05)
        index = _wide_index()
        asns = index.all_asns()

        async def go():
            server = LifetimesServer(index, metrics=MetricsRegistry())
            host, port = await server.start()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            _reader, writer = await asyncio.open_connection(sock=sock)
            writer.write(50 * (
                f"GET /range/{asns[0]}-{asns[-1]}?limit=1000 HTTP/1.1\r\n\r\n"
            ).encode())
            for _ in range(500):
                if any(c.paused for c in server._connections):
                    break
                await asyncio.sleep(0.01)
            paused = any(c.paused for c in server._connections)
            await asyncio.wait_for(server.close(), 5)
            writer.close()
            return paused, len(server._connections)

        assert asyncio.run(go()) == (True, 0)


class TestLiveByteStreams:
    """Random byte streams, sent in random chunks, to a live server."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_stream_gets_framed_answers_and_a_clean_eof(self, index, data):
        pieces = data.draw(st.lists(
            _head_pieces(index.all_asns()[0]), min_size=1, max_size=6),
            label="pieces")
        chunks = _chunks(data, b"".join(pieces))

        async def interact(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            received = asyncio.ensure_future(reader.read())
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                await asyncio.sleep(0)
            writer.write_eof()
            raw = await asyncio.wait_for(received, 10)
            writer.close()
            return raw

        raw, server = _serve_raw(index, interact)
        responses = _split_responses(raw)
        silent = _counter(server, "serve.http.dropped|reason=head-timeout")
        assert (
            _counter(server, "serve.http.requests")
            + _counter(server, "serve.http.dropped")
        ) == len(responses) + silent
