"""The two query workloads: ``query-point`` and ``query-range``.

Set-up builds a 365-day serve store of the pinned scenario, opens it
and forks a server process that holds the index.  The benchmark process
then drives a closed loop over :data:`CONNECTIONS` keep-alive
connections: each connection sends its next request only after the
previous response has been read in full.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import select
import shutil
import signal
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from batch import load_scenario

#: Client connections of the closed loop.
CONNECTIONS = 2

#: Days of activity the served store covers.
STORE_DAYS = 365

#: Planned requests per measured second; a plan longer than a run can
#: use means a range plan never repeats a request.
POINT_PLAN_PER_S = 20_000
RANGE_PLAN_PER_S = 2_000

#: Range width in stored ASNs, and the ``limit`` every range asks for.
RANGE_MIN_ASNS = 100
RANGE_MAX_ASNS = 1000
RANGE_LIMIT = 1000

#: Responses re-fetched after the timed phase and compared byte for byte
#: with the body rendered from a direct ``StoreIndex`` call.
SAMPLE_CHECKS = 200

#: Seconds to wait for the server to bind, and to exit when told.
SERVER_START_S = 60.0
SERVER_STOP_S = 10.0

_REQUESTS_TOTAL = "repro_serve_http_requests_total"


def plan_point(index, count: int, seed: int) -> List[str]:
    """``plan_queries`` with its default mix and zipf skew."""
    from repro.serve.loadgen import plan_queries

    return list(plan_queries(index.all_asns(), index.meta, count, seed=seed).paths)


def plan_range(index, count: int, seed: int) -> List[str]:
    """Distinct range queries over 100 to 1000 stored ASNs, half as-of."""
    from repro.timeline.dates import to_iso

    asns = index.all_asns()
    meta = index.meta
    rng = random.Random(seed)
    widest = min(RANGE_MAX_ASNS, len(asns))
    narrowest = min(RANGE_MIN_ASNS, widest)
    seen = set()
    paths: List[str] = []
    while len(paths) < count:
        width = rng.randint(narrowest, widest)
        first = rng.randrange(len(asns) - width + 1)
        path = f"/range/{asns[first]}-{asns[first + width - 1]}"
        if rng.random() < 0.5:
            path += f"/as-of/{to_iso(meta.start + rng.randrange(meta.end - meta.start + 1))}"
        path += f"?limit={RANGE_LIMIT}"
        if path not in seen:
            seen.add(path)
            paths.append(path)
    return paths


def render_direct(index, path: str) -> Tuple[int, bytes]:
    """The status and body the server must send for ``path``, rendered
    from a direct :class:`StoreIndex` call."""
    from urllib.parse import parse_qs, urlsplit

    from repro.timeline.dates import from_iso

    parts = urlsplit(path)
    segments = [s for s in parts.path.split("/") if s]
    if segments[0] == "asn":
        asn = int(segments[1])
        if segments[2] == "lives":
            document = index.lives(asn)
        elif segments[2] == "taxonomy":
            document = index.taxonomy(asn)
        else:
            document = index.as_of(asn, from_iso(segments[3]))
        status = 200
        if document is None:
            status, document = 404, {"error": "unknown asn"}
    else:
        lo, _sep, hi = segments[1].partition("-")
        limit = int(parse_qs(parts.query)["limit"][-1])
        if len(segments) == 2:
            document = index.range_summary(int(lo), int(hi), limit=limit)
        else:
            document = index.range_as_of(
                int(lo), int(hi), from_iso(segments[3]), limit=limit
            )
        status = 200
    body = (json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n")
    return status, body.encode("utf-8")


class ServerProcess:
    """A :class:`LifetimesServer` in a forked process.

    With a ``tracer``, the child records spans (its wrappers were
    installed before the fork); when told to stop it appends them to
    ``spans_path`` and writes their self times and counts to
    ``summary_path``.
    """

    def __init__(
        self, index, *, tracer=None, spans_path: Optional[Path] = None,
        summary_path: Optional[Path] = None,
    ) -> None:
        self.index = index
        self.tracer = tracer
        self.spans_path = spans_path
        self.summary_path = summary_path
        self.pid = 0
        self.port = 0
        self.maxrss_kb = 0

    def start(self) -> int:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.close(read_fd)
            code = 1
            try:
                self._child(write_fd)
                code = 0
            finally:
                os._exit(code)
        self.pid = pid
        os.close(write_fd)
        try:
            ready = select.select([read_fd], [], [], SERVER_START_S)[0]
            line = os.read(read_fd, 64) if ready else b""
        finally:
            os.close(read_fd)
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("server process did not report a port")
        self.port = int(line)
        return self.port

    def _child(self, ready_fd: int) -> None:  # pragma: no cover - child only
        from repro.runtime.observability import MetricsRegistry
        from repro.serve.http import LifetimesServer

        untrack_gc = None
        if self.tracer is not None:
            self.tracer.reset()
            untrack_gc = self.tracer.track_gc()

        async def serve() -> None:
            server = LifetimesServer(self.index, metrics=MetricsRegistry())
            _host, port = await server.start()
            stop = asyncio.Event()
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
            os.write(ready_fd, f"{port}\n".encode("ascii"))
            os.close(ready_fd)
            await stop.wait()
            await server.close()

        asyncio.run(serve())
        if untrack_gc is not None:
            untrack_gc()
            from tracing import self_times

            self.tracer.write_jsonl(self.spans_path, process="server")
            summary = {
                "self_s": self_times(self.tracer.spans),
                "counts": dict(self.tracer.counts),
            }
            self.summary_path.write_text(json.dumps(summary), encoding="utf-8")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if it lingers; always reaps the child."""
        if not self.pid:
            return
        try:
            os.kill(self.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = perf_counter() + SERVER_STOP_S
        while True:
            pid, _status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                break
            if perf_counter() > deadline:
                os.kill(self.pid, signal.SIGKILL)
                _pid, _status, usage = os.wait4(self.pid, 0)
                break
            select.select([], [], [], 0.01)
        self.maxrss_kb = usage.ru_maxrss
        self.pid = 0


async def _request(reader, writer, path: str) -> Tuple[int, bytes]:
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1"))
    await writer.drain()
    status_line = await reader.readline()
    parts = status_line.split()
    status = int(parts[1]) if len(parts) >= 2 else 0
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class LoopReport:
    """What one closed-loop phase observed from the client side."""

    starts: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    sent: List[int] = field(default_factory=list)
    bad_status: int = 0
    errors: List[str] = field(default_factory=list)
    interval: Tuple[float, float] = (0.0, 0.0)


async def closed_loop(
    port: int, paths: Sequence[str], seconds: float, ok_status: Dict[int, Tuple[int, ...]]
) -> LoopReport:
    """Drive ``paths`` in order over :data:`CONNECTIONS` connections for
    ``seconds``; ``ok_status[i]`` lists the statuses path ``i`` may get."""
    report = LoopReport()
    cursor = itertools.count()
    deadline = perf_counter() + seconds

    async def worker() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while perf_counter() < deadline:
                i = next(cursor) % len(paths)
                started = perf_counter()
                status, _body = await _request(reader, writer, paths[i])
                report.starts.append(started)
                report.latencies_s.append(perf_counter() - started)
                report.sent.append(i)
                if status not in ok_status.get(i, (200,)):
                    report.bad_status += 1
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
            report.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    started = perf_counter()
    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    report.interval = (started, perf_counter())
    return report


async def scrape(port: int) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """One parsed ``/metrics`` exposition."""
    from repro.serve.telemetry import parse_exposition

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, body = await _request(reader, writer, "/metrics")
    finally:
        writer.close()
        await writer.wait_closed()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_exposition(body.decode("utf-8"))


def _data_route(labels: Tuple[Tuple[str, str], ...]) -> bool:
    route = dict(labels).get("route", "")
    return route.startswith("/asn") or route.startswith("/range")


def data_requests(samples) -> int:
    """Requests the server counted on its data routes."""
    return int(sum(
        value for (name, labels), value in samples.items()
        if name == _REQUESTS_TOTAL and _data_route(labels)
    ))


def histogram_total(samples, base: str, data_only: bool = False) -> Tuple[float, int]:
    """``(sum, count)`` of one histogram family, over its label sets."""
    total, count = 0.0, 0
    for (name, labels), value in samples.items():
        if data_only and not _data_route(labels):
            continue
        if name == base + "_sum":
            total += value
        elif name == base + "_count":
            count += int(value)
    return total, count


async def settled_scrape(port: int, at_least: int, retries: int = 40):
    """Scrape until the server has recorded ``at_least`` data requests.

    The server records a request after draining its response, so the
    client can read the last response a moment before it is counted.
    """
    for _attempt in range(retries):
        samples = await scrape(port)
        if data_requests(samples) >= at_least:
            return samples
        await asyncio.sleep(0.05)
    return samples


async def sample_check(port: int, index, paths: Sequence[str]) -> List[str]:
    """Re-fetch ``paths`` and compare with :func:`render_direct`."""
    problems: List[str] = []
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for path in paths:
            got = await _request(reader, writer, path)
            want = render_direct(index, path)
            if got != want:
                problems.append(f"{path}: got status {got[0]}, {len(got[1])} bytes; "
                                f"want {want[0]}, {len(want[1])} bytes")
    finally:
        writer.close()
        await writer.wait_closed()
    return problems


class QueryWorkload:
    """Set-up, server lifetime and plans shared by both query loads."""

    name = ""
    plan_per_s = 0

    def __init__(self, seed: int, workdir: Path, seconds: float) -> None:
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.server: Optional[ServerProcess] = None

    def setup(self) -> None:
        self.build()
        self.server = ServerProcess(self.index)
        self.server.start()

    def build(self) -> None:
        """Everything of the set-up but the server process."""
        from repro.serve.index import StoreIndex
        from repro.serve.store import build_store
        from repro.simulation.datasets import build_datasets

        self.scenario = load_scenario(None)
        config = self.scenario.compile()
        bundle = build_datasets(config)
        end = config.end_day
        self.store_dir = self.workdir / "store"
        build_store(
            self.store_dir, bundle.world, bundle.admin_lives,
            start=max(config.start_day, end - STORE_DAYS + 1), end=end, faults=None,
        )
        del bundle
        self.index = StoreIndex.open(self.store_dir, faults=None)
        count = max(1, int(self.plan_per_s * self.seconds))
        self.paths = self.plan(count)
        self.ok_status = self.planned_status()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir / "store", ignore_errors=True)

    def facts(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.name,
            "scenario_digest": self.scenario.digest(),
            "scenario_seed": self.scenario.seed,
            "store_digest": self.index.digest,
            "store_asns": len(self.index),
            "planned_requests": len(self.paths),
            "connections": CONNECTIONS,
        }

    def plan(self, count: int) -> List[str]:
        raise NotImplementedError

    def planned_status(self) -> Dict[int, Tuple[int, ...]]:
        return {}


class QueryPointWorkload(QueryWorkload):
    """``plan_queries``: default mix, zipf skew 1.1, planned 404 misses."""

    name = "query-point"
    plan_per_s = POINT_PLAN_PER_S

    def plan(self, count: int) -> List[str]:
        return plan_point(self.index, count, self.seed)

    def planned_status(self) -> Dict[int, Tuple[int, ...]]:
        # the plan's miss dial targets ASNs past the universe: 404 is planned
        known = set(self.index.all_asns())
        out: Dict[int, Tuple[int, ...]] = {}
        for i, path in enumerate(self.paths):
            segments = path.split("/")
            if segments[1] == "asn" and int(segments[2]) not in known:
                out[i] = (404,)
        return out


class QueryRangeWorkload(QueryWorkload):
    """Distinct ASN-range scans, half of them as-of a day."""

    name = "query-range"
    plan_per_s = RANGE_PLAN_PER_S

    def plan(self, count: int) -> List[str]:
        return plan_range(self.index, count, self.seed)


def sample_indices(sent: Sequence[int], count: int = SAMPLE_CHECKS) -> List[int]:
    """An evenly spaced, deterministic sample of the plan indices sent."""
    distinct = sorted(set(sent))
    if len(distinct) <= count:
        return distinct
    step = len(distinct) / count
    return [distinct[int(k * step)] for k in range(count)]

