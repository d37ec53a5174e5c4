"""Stdlib-asyncio HTTP/JSON front end over a :class:`StoreIndex`.

A deliberately small HTTP/1.1 server — request-line + header parsing,
keep-alive, ``Content-Length``-framed responses — with no dependencies
beyond ``asyncio``.  Routes:

===================================  =====================================
``GET /healthz``                     liveness probe (+ rolling SLO window)
``GET /snapshot``                    snapshot identity (manifest digest)
``GET /metrics``                     Prometheus text exposition
``GET /status``                      uptime, per-route tables, SLO window
``GET /asn/<n>/lives``               both lifetime datasets of one ASN
``GET /asn/<n>/taxonomy``            §5 categories of one ASN
``GET /asn/<n>/as-of/<YYYY-MM-DD>``  the ASN's state on one day
``GET /range/<lo>-<hi>``             per-ASN summaries over an ASN range
``GET /range/<lo>-<hi>/as-of/<d>``   allocated/active ASNs on one day
===================================  =====================================

Range routes accept ``?limit=N`` (capped at
:data:`~repro.serve.index.DEFAULT_RANGE_LIMIT`).  Unknown ASNs are 404,
malformed paths 400, every error body is JSON.  An unexpected handler
exception is a 500 JSON body (never a torn connection) and lands in
``serve.http.exceptions``.

Telemetry goes through :class:`~repro.serve.telemetry.ServerTelemetry`:
per-route+status labeled counters and latency histograms (labels use
route *templates* like ``/asn/{n}/lives`` so cardinality is bounded by
this route table, not by client traffic), the sliding SLO window, and
the optional structured access log.  Request heads we refuse to parse
(oversized line, malformed head, header flood) are counted under
``serve.http.dropped`` and — where the byte stream still permits a
response — answered with a ``400`` + ``Connection: close`` instead of
a silent hangup.  The API takes no request bodies: a request that
declares one (``Content-Length`` > 0, or any ``Transfer-Encoding``) is
answered with a closing ``413`` or ``501`` and counted under
``serve.http.dropped|reason=request-body``, so body bytes are never
read as the next request on a keep-alive connection.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from ..runtime.observability import MetricsRegistry, resolve_metrics
from ..timeline.dates import from_iso
from .index import DEFAULT_RANGE_LIMIT, StoreIndex
from .telemetry import ServerTelemetry

__all__ = [
    "LifetimesServer",
    "MAX_REQUEST_LINE",
    "MAX_HEADER_LINES",
    "route_template",
]

#: Request-line / header hard limits (a query API needs no more).
MAX_REQUEST_LINE = 4096
MAX_HEADER_LINES = 64

_SERVER_NAME = "repro-serve"

_JSON = "application/json"
_PROM_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class _BadRequest(Exception):
    """Raised by route parsing; rendered as a 400 JSON body."""


class _DroppedRequest(Exception):
    """A request we refuse to serve.

    ``reason`` feeds ``serve.http.dropped``; ``respond`` says whether
    the byte stream is still in a state where ``status`` can be written
    (always followed by ``Connection: close`` — framing is suspect).
    """

    def __init__(self, reason: str, respond: bool, status: int = 400) -> None:
        super().__init__(reason)
        self.reason = reason
        self.respond = respond
        self.status = status


def _parse_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _BadRequest(f"{what} must be an integer") from None
    if value < 0:
        raise _BadRequest(f"{what} must be non-negative")
    return value


def _parse_day(text: str):
    try:
        return from_iso(unquote(text))
    except ValueError:
        raise _BadRequest("dates must be YYYY-MM-DD") from None


def _parse_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("-")
    if not sep:
        raise _BadRequest("ranges are <lo>-<hi>")
    lo_n = _parse_int(lo, "range lo")
    hi_n = _parse_int(hi, "range hi")
    if hi_n < lo_n:
        raise _BadRequest("range hi precedes lo")
    return lo_n, hi_n


def route_template(path: str) -> str:
    """The bounded-cardinality route label for a request path.

    Every path maps into a fixed, finite set of templates — well-formed
    routes get their shape (``/asn/{n}/lives``), near-misses collapse
    to a prefix bucket (``/asn/*``), everything else to ``unmatched``.
    Metric labels therefore never echo client-controlled strings.
    """
    if path in ("/healthz", "/snapshot", "/metrics", "/status"):
        return path
    segments = [s for s in path.split("/") if s]
    if segments and segments[0] == "asn":
        if len(segments) == 3 and segments[2] == "lives":
            return "/asn/{n}/lives"
        if len(segments) == 3 and segments[2] == "taxonomy":
            return "/asn/{n}/taxonomy"
        if len(segments) == 4 and segments[2] == "as-of":
            return "/asn/{n}/as-of/{date}"
        return "/asn/*"
    if segments and segments[0] == "range":
        if len(segments) == 2:
            return "/range/{lo}-{hi}"
        if len(segments) == 4 and segments[2] == "as-of":
            return "/range/{lo}-{hi}/as-of/{date}"
        return "/range/*"
    return "unmatched"


def _asn_of(path: str) -> Optional[int]:
    """The ASN a path addresses, when it addresses one (for access logs)."""
    segments = [s for s in path.split("/") if s]
    if len(segments) >= 2 and segments[0] == "asn":
        try:
            return int(segments[1])
        except ValueError:
            return None
    return None


def _json_body(document: Dict[str, Any]) -> bytes:
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class LifetimesServer:
    """Serve one immutable :class:`StoreIndex` snapshot over HTTP."""

    def __init__(
        self,
        index: StoreIndex,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[ServerTelemetry] = None,
    ) -> None:
        self.index = index
        self.host = host
        self.port = port
        if telemetry is not None:
            # an injected telemetry brings its own registry; keep the
            # server's metrics handle pointing at the same place
            self.telemetry = telemetry
            self.metrics = telemetry.metrics
        else:
            self.metrics = resolve_metrics(metrics)
            self.telemetry = ServerTelemetry(metrics=self.metrics)
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.telemetry.access_log is not None:
            self.telemetry.access_log.close()

    # -- connection handling -------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_client(reader, writer)
        except asyncio.CancelledError:
            pass  # event-loop shutdown cancelled this connection mid-close

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _DroppedRequest as drop:
                    self.telemetry.record_dropped(drop.reason)
                    if drop.respond:
                        body = _json_body({"error": drop.reason})
                        writer.write(
                            self._head(drop.status, len(body), False, _JSON)
                            + body
                        )
                        await writer.drain()
                    break
                if request is None:
                    break
                t_request = perf_counter()
                method, target, keep_alive = request
                path = urlsplit(target).path
                t_handler = perf_counter()
                status, body, content_type, route = self._dispatch(
                    method, target, path
                )
                handler_us = (perf_counter() - t_handler) * 1e6
                writer.write(
                    self._head(status, len(body), keep_alive, content_type)
                    + body
                )
                await writer.drain()
                self.telemetry.record_request(
                    method=method,
                    route=route,
                    path=path,
                    status=status,
                    request_us=(perf_counter() - t_request) * 1e6,
                    handler_us=handler_us,
                    bytes_out=len(body),
                    asn=_asn_of(path),
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bool]]:
        """One request head → (method, target, keep_alive), EOF → None.

        Unparseable heads, and heads that declare a request body, raise
        :class:`_DroppedRequest` so the caller can count them and, when
        ``respond`` is set, still answer before closing.
        """
        try:
            line = await reader.readline()
        except ValueError:
            # The stream-level line limit tripped: the line is larger
            # than the reader buffer, framing is gone.  The writer side
            # is still usable, so a closing 400 can go out.
            raise _DroppedRequest("oversized-line", True) from None
        except ConnectionError:
            return None
        if not line:
            return None
        if len(line) > MAX_REQUEST_LINE:
            raise _DroppedRequest("oversized-line", True)
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _DroppedRequest("malformed-head", True)
        method, target, version = parts
        keep_alive = version.upper() != "HTTP/1.0"
        content_length = 0
        chunked = False
        for _ in range(MAX_HEADER_LINES):
            try:
                header = await reader.readline()
            except ValueError:
                raise _DroppedRequest("oversized-line", True) from None
            except ConnectionError:
                return None
            if header in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "connection":
                keep_alive = value.strip().lower() != "close"
            elif name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _DroppedRequest("malformed-head", True) from None
                if content_length < 0:
                    raise _DroppedRequest("malformed-head", True)
            elif name == "transfer-encoding":
                chunked = True
        else:
            raise _DroppedRequest("header-flood", True)
        # the body is never read, so a request that carries one must
        # end the connection: its bytes would parse as the next request
        if chunked:
            raise _DroppedRequest("request-body", True, 501)
        if content_length > 0:
            raise _DroppedRequest("request-body", True, 413)
        return method, target, keep_alive

    @staticmethod
    def _head(
        status: int, length: int, keep_alive: bool, content_type: str = _JSON
    ) -> bytes:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            413: "Content Too Large",
            500: "Internal Server Error",
            501: "Not Implemented",
        }.get(status, "Error")
        connection = "keep-alive" if keep_alive else "close"
        return (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Server: {_SERVER_NAME}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {length}\r\n"
            f"Connection: {connection}\r\n"
            f"\r\n"
        ).encode("latin-1")

    # -- routing -------------------------------------------------------

    def _dispatch(
        self, method: str, target: str, path: str
    ) -> Tuple[int, bytes, str, str]:
        """One request → (status, body, content type, route template).

        Everything a handler can throw is caught here: expected parse
        failures as 400, anything else as a 500 JSON body counted in
        ``serve.http.exceptions`` — a broken shard or poisoned index
        must never tear down the connection without an answer.
        """
        route = route_template(path)
        if method != "GET":
            return (
                405,
                _json_body({"error": "only GET is supported"}),
                _JSON,
                route,
            )
        try:
            if path == "/metrics":
                return (
                    200,
                    self.telemetry.metrics_text().encode("utf-8"),
                    _PROM_TEXT,
                    route,
                )
            if path == "/status":
                document = self.telemetry.status_document(self.index.digest)
                return 200, _json_body(document), _JSON, route
            query = parse_qs(urlsplit(target).query)
            status, document = self._route(path, query)
        except _BadRequest as exc:
            return 400, _json_body({"error": str(exc)}), _JSON, route
        except Exception as exc:  # noqa: BLE001 - catch-all is the contract
            self.telemetry.record_exception(route, exc)
            return (
                500,
                _json_body({"error": "internal server error"}),
                _JSON,
                route,
            )
        return status, _json_body(document), _JSON, route

    def _route(
        self, path: str, query: Dict[str, list]
    ) -> Tuple[int, Dict[str, Any]]:
        limit = DEFAULT_RANGE_LIMIT
        if "limit" in query:
            limit = _parse_int(query["limit"][-1], "limit")
        segments = [s for s in path.split("/") if s]
        if path == "/healthz":
            return 200, {
                "status": "ok",
                "snapshot": self.index.digest,
                "slo": self.telemetry.slo.summary(),
            }
        if path == "/snapshot":
            return 200, self.index.snapshot()
        if len(segments) >= 2 and segments[0] == "asn":
            asn = _parse_int(segments[1], "asn")
            if len(segments) == 3 and segments[2] == "lives":
                return self._found(self.index.lives(asn))
            if len(segments) == 3 and segments[2] == "taxonomy":
                return self._found(self.index.taxonomy(asn))
            if len(segments) == 4 and segments[2] == "as-of":
                return self._found(self.index.as_of(asn, _parse_day(segments[3])))
            raise _BadRequest(
                "asn routes: /asn/<n>/lives, /asn/<n>/taxonomy, "
                "/asn/<n>/as-of/<date>"
            )
        if len(segments) >= 2 and segments[0] == "range":
            lo, hi = _parse_range(segments[1])
            if len(segments) == 2:
                return 200, self.index.range_summary(lo, hi, limit=limit)
            if len(segments) == 4 and segments[2] == "as-of":
                return 200, self.index.range_as_of(
                    lo, hi, _parse_day(segments[3]), limit=limit
                )
            raise _BadRequest(
                "range routes: /range/<lo>-<hi>, /range/<lo>-<hi>/as-of/<date>"
            )
        return 404, {"error": f"no route for {path}"}

    @staticmethod
    def _found(document: Optional[Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
        if document is None:
            return 404, {"error": "unknown asn"}
        return 200, document
