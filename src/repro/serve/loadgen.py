"""Deterministic load generator for the serve HTTP layer.

Builds a reproducible query plan — zipf-skewed ASN popularity over the
store's universe, mixed across the four query shapes — and replays it
against a running server from asyncio client workers holding
keep-alive connections.  The report carries the latency distribution
(p50/p99 in microseconds) and sustained throughput, which is what
``serve-bench --assert-p99-ms`` bounds.

The plan is a pure function of ``(asns, meta, count, seed, skew)``:
no wall clock, no global RNG — two runs against byte-identical stores
issue byte-identical request streams.

:func:`run_load_checked` turns a load run into an end-to-end telemetry
consistency test: it scrapes ``/metrics`` before and after the run,
parses both expositions, and cross-checks the server's account of the
run (per-route request counters, bucketed latency quantiles) against
what the client itself observed.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..asn.numbers import ASN
from ..runtime.observability import (
    OVERFLOW_BUCKET,
    bucket_index,
    nearest_rank,
    quantile_from_buckets,
)
from ..timeline.dates import to_iso
from .store import ServeStoreError, StoreMeta
from .telemetry import le_label, parse_exposition

__all__ = [
    "QueryPlan",
    "LoadReport",
    "plan_queries",
    "run_load",
    "run_load_checked",
]

#: Default query mix: the point lookup dominates (it is what a
#: lifetimes service exists for), with taxonomy, as-of and range
#: queries keeping the other code paths warm.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("lives", 0.60),
    ("taxonomy", 0.15),
    ("as_of", 0.15),
    ("range", 0.10),
)

DEFAULT_SKEW = 1.1
DEFAULT_CONCURRENCY = 16

#: Query-miss dial: one in this many point lookups targets an ASN just
#: past the universe, exercising the 404 path.
MISS_EVERY = 50

#: Budget for the final ``/metrics`` scrape of :func:`run_load_checked`
#: to catch up with the client (about one second in all).
SCRAPE_RETRIES = 20
SCRAPE_DELAY_S = 0.05


@dataclass(frozen=True)
class QueryPlan:
    """A reproducible request stream (paths only; all GETs)."""

    paths: Tuple[str, ...]
    seed: int
    skew: float

    def __len__(self) -> int:
        return len(self.paths)


@dataclass
class LoadReport:
    """What one load run measured."""

    queries: int
    errors: int
    seconds: float
    qps: float
    p50_us: float
    p99_us: float
    concurrency: int
    min_us: float = 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "errors": self.errors,
            "seconds": round(self.seconds, 6),
            "qps": round(self.qps, 2),
            "p50_us": round(self.p50_us, 1),
            "p99_us": round(self.p99_us, 1),
            "min_us": round(self.min_us, 1),
            "concurrency": self.concurrency,
        }


def plan_queries(
    asns: Sequence[ASN],
    meta: StoreMeta,
    count: int,
    *,
    seed: int = 0,
    skew: float = DEFAULT_SKEW,
    mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
) -> QueryPlan:
    """A ``count``-query plan over the store's ASN universe.

    ASN popularity is zipf-like: the universe is shuffled once (so the
    hot set is not simply the lowest ASNs), then ASN at popularity
    rank ``r`` is drawn with weight ``1 / r**skew``.
    """
    if not asns:
        raise ServeStoreError("cannot plan load against an empty store")
    rng = random.Random(seed)
    ranked = list(asns)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(ranked))]
    kinds = [kind for kind, _w in mix]
    kind_weights = [w for _kind, w in mix]
    max_asn = max(asns)
    span_days = max(1, meta.end - meta.start)

    chosen_asns = rng.choices(ranked, weights=weights, k=count)
    chosen_kinds = rng.choices(kinds, weights=kind_weights, k=count)
    paths: List[str] = []
    for i, (asn, kind) in enumerate(zip(chosen_asns, chosen_kinds)):
        if kind == "lives":
            if i % MISS_EVERY == MISS_EVERY - 1:
                asn = max_asn + 1 + rng.randrange(1000)
            paths.append(f"/asn/{asn}/lives")
        elif kind == "taxonomy":
            paths.append(f"/asn/{asn}/taxonomy")
        elif kind == "as_of":
            day = meta.start + rng.randrange(span_days + 1)
            paths.append(f"/asn/{asn}/as-of/{to_iso(day)}")
        else:
            width = rng.randrange(1, 2000)
            paths.append(f"/range/{asn}-{asn + width}?limit=100")
    return QueryPlan(paths=tuple(paths), seed=seed, skew=skew)


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, Optional[int]]:
    """Read one response's status line and headers.

    Returns ``(status, content_length)``; the status is 0 for a
    malformed status line and the length ``None`` when the response
    carries no ``Content-Length``.  The body is left on the stream.
    """
    parts = (await reader.readline()).split()
    status = int(parts[1]) if len(parts) >= 2 else 0
    length: Optional[int] = None
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            return status, length
        name, _sep, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())


async def _worker(
    host: str,
    port: int,
    paths: Sequence[str],
    latencies: List[float],
) -> int:
    """Replay ``paths`` over one keep-alive connection; returns errors."""
    errors = 0
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for path in paths:
            t0 = perf_counter()
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
            )
            await writer.drain()
            status, length = await _read_head(reader)
            if length:
                await reader.readexactly(length)
            latencies.append((perf_counter() - t0) * 1e6)
            # 404s are planned (the miss dial); anything else >= 400 is not.
            if status != 200 and status != 404:
                errors += 1
    except (ConnectionError, asyncio.IncompleteReadError, ValueError):
        errors += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
    return errors


async def run_load(
    host: str,
    port: int,
    plan: QueryPlan,
    *,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> LoadReport:
    """Replay a plan with ``concurrency`` keep-alive connections."""
    concurrency = max(1, min(concurrency, len(plan.paths) or 1))
    latencies: List[float] = []
    slices = [plan.paths[i::concurrency] for i in range(concurrency)]
    t0 = perf_counter()
    errors = sum(
        await asyncio.gather(
            *(_worker(host, port, chunk, latencies) for chunk in slices if chunk)
        )
    )
    seconds = perf_counter() - t0
    latencies.sort()
    done = len(latencies)
    return LoadReport(
        queries=done,
        errors=errors,
        seconds=seconds,
        qps=done / seconds if seconds > 0 else 0.0,
        p50_us=nearest_rank(latencies, 0.50),
        p99_us=nearest_rank(latencies, 0.99),
        concurrency=concurrency,
        min_us=latencies[0] if latencies else 0.0,
    )


async def _fetch(host: str, port: int, path: str) -> Tuple[int, bytes]:
    """One ``Connection: close`` GET → (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        status, length = await _read_head(reader)
        body = (
            await reader.readexactly(length)
            if length is not None
            else await reader.read()
        )
        return status, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


def _data_route(labels: Dict[str, str]) -> bool:
    """Is this sample from a data route the plan can have exercised?

    The scrapes themselves land under ``/metrics``; restricting the
    cross-check to ``/asn/*`` / ``/range/*`` routes keeps the counter
    equality exact even though observing the server perturbs it.
    """
    route = labels.get("route", "")
    return route.startswith("/asn") or route.startswith("/range")


_REQUESTS_TOTAL = "repro_serve_http_requests_total"
_REQUEST_US_BUCKET = "repro_serve_http_request_us_bucket"

_LE_TO_INDEX = {le_label(i): i for i in range(OVERFLOW_BUCKET + 1)}


def _data_requests(samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]) -> int:
    """Total data-route requests a parsed exposition reports."""
    total = 0
    for (name, label_items), value in samples.items():
        if name == _REQUESTS_TOTAL and _data_route(dict(label_items)):
            total += int(value)
    return total


def _data_buckets(
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float],
) -> List[int]:
    """Data-route ``request_us`` histograms folded to per-bucket counts."""
    cumulative = [0] * (OVERFLOW_BUCKET + 1)
    for (name, label_items), value in samples.items():
        if name != _REQUEST_US_BUCKET:
            continue
        labels = dict(label_items)
        if not _data_route(labels):
            continue
        index = _LE_TO_INDEX.get(labels.get("le", ""))
        if index is None:  # pragma: no cover - foreign bucket grid
            raise ValueError(f"unknown le bucket {labels.get('le')!r}")
        cumulative[index] += int(value)
    buckets = [0] * (OVERFLOW_BUCKET + 1)
    previous = 0
    for i, cum in enumerate(cumulative):
        buckets[i] = cum - previous
        previous = cum
    return buckets


async def run_load_checked(
    host: str,
    port: int,
    plan: QueryPlan,
    *,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> Tuple[LoadReport, Dict[str, Any]]:
    """:func:`run_load` bracketed by ``/metrics`` scrapes.

    Returns ``(report, consistency)`` where ``consistency`` records the
    server's account of the run against the client's:

    * ``requests_match`` — the delta of the server's data-route request
      counters exactly equals the number of queries sent.
    * ``quantiles_agree`` — server-side p50/p99 (derived from the
      ``request_us`` bucket deltas) land within one bucket of the
      client's nearest-rank percentiles.  The two planes observe the
      same requests through different windows: client latency is the
      server's request window plus a near-constant transport floor
      (one loopback round trip + two event-loop wakeups), so the
      checker first estimates that floor as ``min(client) −
      min(server)`` over the run and aligns the client's percentiles
      onto the server's plane before bucketizing.  Meaningful at low
      concurrency only: with many in-flight requests the client's
      numbers include event-loop queueing the server never sees, so
      callers asserting agreement should drive ``concurrency=1``.

    The final scrape is retried briefly: a worker's last response can
    be read by the client a scheduling slot before the server coroutine
    records it, so the counters are eventually — not instantaneously —
    consistent.
    """
    _status, before_body = await _fetch(host, port, "/metrics")
    before = parse_exposition(before_body.decode("utf-8"))
    report = await run_load(host, port, plan, concurrency=concurrency)

    sent = len(plan.paths)
    base_requests = _data_requests(before)
    retries = 0
    while True:
        _status, after_body = await _fetch(host, port, "/metrics")
        after = parse_exposition(after_body.decode("utf-8"))
        server_requests = _data_requests(after) - base_requests
        if server_requests >= sent or retries >= SCRAPE_RETRIES:
            break
        retries += 1
        await asyncio.sleep(SCRAPE_DELAY_S)

    before_buckets = _data_buckets(before)
    after_buckets = _data_buckets(after)
    deltas = [a - b for a, b in zip(after_buckets, before_buckets)]
    count = sum(deltas)
    server_q: Dict[str, float] = {}
    offsets: Dict[str, Optional[int]] = {"p50": None, "p99": None}
    floor_us = 0.0
    if count > 0:
        # q=0 lands in the lowest non-empty bucket: the server's
        # fastest request, as reconstructible from the exposition.
        server_min = quantile_from_buckets(deltas, 0.0, count=count)
        floor_us = max(0.0, report.min_us - server_min)
        for label, q, client_value in (
            ("p50", 0.50, report.p50_us),
            ("p99", 0.99, report.p99_us),
        ):
            value = quantile_from_buckets(deltas, q, count=count)
            server_q[f"{label}_us"] = round(value, 1)
            aligned = max(client_value - floor_us, server_min)
            offsets[label] = abs(bucket_index(value) - bucket_index(aligned))
    quantiles_agree = all(
        offset is not None and offset <= 1 for offset in offsets.values()
    )
    consistency: Dict[str, Any] = {
        "sent": sent,
        "server_requests": server_requests,
        "requests_match": server_requests == sent,
        "client": {"p50_us": round(report.p50_us, 1), "p99_us": round(report.p99_us, 1)},
        "server": server_q,
        "floor_us": round(floor_us, 1),
        "bucket_offsets": offsets,
        "quantiles_agree": quantiles_agree,
        "scrape_retries": retries,
    }
    return report, consistency

