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

Responses are encoded once.  Every data route answers with the index's
``*_body`` bytes (joined from per-ASN fragments encoded on first touch)
and ``/snapshot`` with a body encoded when the server is built; only
errors, ``/healthz``, ``/status`` and ``/metrics`` are rendered per
request.  A request's path is split once, and each response head is
joined from a prefix built once per (status, content type, keep-alive).

Each connection is one :class:`asyncio.Protocol` (``_Connection``), with
no task and no stream reader behind it.  ``data_received`` appends to a
receive buffer and answers every complete head in it, in order: the
pure :func:`parse_head` says "need more bytes", "request" or "drop",
and each response goes out as one ``transport.write(head + body)``.
When the transport's write buffer passes its high-water mark the
connection stops reading and leaves pipelined heads buffered until the
transport resumes writing.  A complete head must arrive within
:data:`HEAD_TIMEOUT_S` of the connection opening or of the previous
response, and at most :data:`MAX_CONNECTIONS` connections are served
at once; one more is answered with a closing ``503``.  A closing
response half-closes the connection and reads (and discards) what the
client still sends until its EOF, so late client bytes never turn the
close into a reset that could destroy the response.

Telemetry goes through :class:`~repro.serve.telemetry.ServerTelemetry`:
per-route+status labeled counters and latency histograms (labels use
route *templates* like ``/asn/{n}/lives`` so cardinality is bounded by
this route table, not by client traffic), the sliding SLO window, and
the optional structured access log.  Request heads we refuse to parse
(oversized line, malformed head, header flood) are counted under
``serve.http.dropped`` and answered with a ``400`` + ``Connection:
close`` instead of a silent hangup; a head deadline that expires is
counted there too (``head-timeout``) and closes the connection without
an answer.  The API takes no request bodies: a request that
declares one (``Content-Length`` > 0, or any ``Transfer-Encoding``) is
answered with a closing ``413`` or ``501`` and counted under
``serve.http.dropped|reason=request-body``, so body bytes are never
read as the next request on a keep-alive connection.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from ..runtime.observability import MetricsRegistry
from ..timeline.dates import from_iso
from .index import DEFAULT_RANGE_LIMIT, StoreIndex
from .telemetry import ServerTelemetry

__all__ = [
    "Drop",
    "HEAD_TIMEOUT_S",
    "LifetimesServer",
    "MAX_CONNECTIONS",
    "MAX_HEADER_LINES",
    "MAX_LINE",
    "MAX_REQUEST_LINE",
    "parse_head",
    "route_template",
]

#: Request-line / header hard limits (a query API needs no more).
MAX_REQUEST_LINE = 4096
MAX_HEADER_LINES = 64
#: The longest header line, its LF included (the default line limit of
#: the asyncio stream reader the server once read heads through).
MAX_LINE = 64 * 1024

#: Seconds a connection may wait, from opening or from its previous
#: response, before a complete request head has arrived.
HEAD_TIMEOUT_S = 10.0

#: Connections served at once; one more gets a closing 503.
MAX_CONNECTIONS = 512

_SERVER_NAME = "repro-serve"

_JSON = "application/json"
_PROM_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class _BadRequest(Exception):
    """Raised by route parsing; rendered as a 400 JSON body."""


class Drop(NamedTuple):
    """A request we refuse to serve.

    ``reason`` feeds ``serve.http.dropped``; ``respond`` says whether
    ``status`` is written (always with ``Connection: close``: framing
    is suspect) before the connection ends.
    """

    reason: str
    respond: bool
    status: int


_OVERSIZED = Drop("oversized-line", True, 400)
_MALFORMED = Drop("malformed-head", True, 400)
_FLOOD = Drop("header-flood", True, 400)
_CHUNKED = Drop("request-body", True, 501)
_BODY = Drop("request-body", True, 413)
_HEAD_TIMEOUT = Drop("head-timeout", False, 0)
_CONNECTION_CAP = Drop("connection-cap", True, 503)

_BLANK = (b"\r\n", b"\n", b"")


def parse_head(
    buffer: Union[bytes, bytearray], eof: bool = False
) -> Union[None, Tuple[str, str, bool, int], Drop]:
    """The request head at the start of ``buffer``.

    Returns ``None`` when more bytes are needed, a :class:`Drop`, or,
    when a complete head is there, ``(method, target, keep_alive,
    consumed)``: the head is the first ``consumed`` bytes.  Lines end at
    LF.  At ``eof`` the buffer is all there will be: a last line with
    no LF is still a line and the end of the buffer ends the head, so
    ``None`` then means an empty buffer.  Lines are judged in order,
    so a drop is returned as soon as the line that causes it is
    complete (or, for an oversized line, as soon as it is too long).
    A request that declares a body is dropped: the body is never read,
    and its bytes would parse as the next request.
    """
    size = len(buffer)
    end = buffer.find(b"\n") + 1
    if not end:
        if size > MAX_REQUEST_LINE:
            return _OVERSIZED
        if not eof or not size:
            return None
        end = size
    if end > MAX_REQUEST_LINE:
        return _OVERSIZED
    parts = buffer[:end].decode("latin-1").split()
    if len(parts) != 3:
        return _MALFORMED
    method, target, version = parts
    keep_alive = version.upper() != "HTTP/1.0"
    content_length: Optional[int] = None
    chunked = False
    start = end
    for _ in range(MAX_HEADER_LINES):
        end = buffer.find(b"\n", start) + 1
        if not end:
            if size - start > MAX_LINE:
                return _OVERSIZED
            if not eof:
                return None
            end = size
        elif end - start > MAX_LINE:
            return _OVERSIZED
        line = buffer[start:end]
        start = end
        if line in _BLANK:
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "connection":
            keep_alive = value.strip().lower() != "close"
        elif name == "content-length":
            # 1*DIGIT, once: a repeated header would let the last
            # one hide a body the first one declared
            value = value.strip()
            if content_length is not None or not (
                value.isascii() and value.isdigit()
            ):
                return _MALFORMED
            content_length = int(value)
        elif name == "transfer-encoding":
            chunked = True
    else:
        return _FLOOD
    if chunked:
        return _CHUNKED
    if content_length:
        return _BODY
    return method, target, keep_alive, start


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


def _segments(path: str) -> List[str]:
    return [s for s in path.split("/") if s]


def route_template(path: str) -> str:
    """The bounded-cardinality route label for a request path.

    Every path maps into a fixed, finite set of templates — well-formed
    routes get their shape (``/asn/{n}/lives``), near-misses collapse
    to a prefix bucket (``/asn/*``), everything else to ``unmatched``.
    Metric labels therefore never echo client-controlled strings.
    """
    return _template(path, _segments(path))


def _template(path: str, segments: List[str]) -> str:
    """:func:`route_template` over an already split path."""
    if path in ("/healthz", "/snapshot", "/metrics", "/status"):
        return path
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


def _asn_of(segments: List[str]) -> Optional[int]:
    """The ASN a path addresses, when it addresses one (for access logs)."""
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


_UNKNOWN_ASN = _json_body({"error": "unknown asn"})

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: ``(status, content type, keep-alive)`` -> the head around its length.
_HEADS: Dict[Tuple[int, str, bool], Tuple[bytes, bytes]] = {}


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
        # an injected telemetry brings its own registry; ``metrics=None``
        # gives the server a fresh one of its own
        self.telemetry = (
            telemetry if telemetry is not None else ServerTelemetry(metrics=metrics)
        )
        self.metrics = self.telemetry.metrics
        self._snapshot_body = _json_body(index.snapshot())
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self, loop), self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.close()

    async def close(self) -> None:
        """Stop accepting and close every open connection.

        Closing a transport sends what it has queued first; a client
        that has not taken it within :data:`HEAD_TIMEOUT_S` is cut off.
        """
        if self._server is not None:
            self._server.close()
            connections = list(self._connections)
            for connection in connections:
                connection.transport.close()
            if connections:
                lost = [connection.lost for connection in connections]
                await asyncio.wait(lost, timeout=HEAD_TIMEOUT_S)
                for connection in connections:
                    connection.transport.abort()  # no-op once lost
                await asyncio.gather(*lost)
            await self._server.wait_closed()
            self._server = None
        if self.telemetry.access_log is not None:
            self.telemetry.access_log.close()

    @staticmethod
    def _head(
        status: int, length: int, keep_alive: bool, content_type: str = _JSON
    ) -> bytes:
        key = (status, content_type, keep_alive)
        around = _HEADS.get(key)
        if around is None:
            connection = "keep-alive" if keep_alive else "close"
            around = _HEADS[key] = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                f"Server: {_SERVER_NAME}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: ".encode("latin-1"),
                f"\r\nConnection: {connection}\r\n\r\n".encode("latin-1"),
            )
        return b"%s%d%s" % (around[0], length, around[1])

    # -- routing -------------------------------------------------------

    def _dispatch(
        self, method: str, path: str, segments: List[str], query: str,
        route: str,
    ) -> Tuple[int, bytes, str]:
        """One request → (status, body, content type).

        Everything a handler can throw is caught here: expected parse
        failures as 400, anything else as a 500 JSON body counted in
        ``serve.http.exceptions`` — a broken shard or poisoned index
        must never tear down the connection without an answer.
        """
        if method != "GET":
            return 405, _json_body({"error": "only GET is supported"}), _JSON
        try:
            if path == "/metrics":
                return (
                    200, self.telemetry.metrics_text().encode("utf-8"), _PROM_TEXT
                )
            if path == "/status":
                document = self.telemetry.status_document(self.index.digest)
                return 200, _json_body(document), _JSON
            status, body = self._route(path, segments, parse_qs(query))
        except _BadRequest as exc:
            return 400, _json_body({"error": str(exc)}), _JSON
        except Exception as exc:  # noqa: BLE001 - catch-all is the contract
            self.telemetry.record_exception(route, exc)
            return 500, _json_body({"error": "internal server error"}), _JSON
        return status, body, _JSON

    def _route(
        self, path: str, segments: List[str], query: Dict[str, list]
    ) -> Tuple[int, bytes]:
        limit = DEFAULT_RANGE_LIMIT
        if "limit" in query:
            limit = _parse_int(query["limit"][-1], "limit")
        if path == "/healthz":
            return 200, _json_body({
                "status": "ok",
                "snapshot": self.index.digest,
                "slo": self.telemetry.slo.summary(),
            })
        if path == "/snapshot":
            return 200, self._snapshot_body
        index = self.index
        if len(segments) >= 2 and segments[0] == "asn":
            asn = _parse_int(segments[1], "asn")
            if len(segments) == 3 and segments[2] == "lives":
                return _found(index.lives_body(asn))
            if len(segments) == 3 and segments[2] == "taxonomy":
                return _found(index.taxonomy_body(asn))
            if len(segments) == 4 and segments[2] == "as-of":
                return _found(index.as_of_body(asn, _parse_day(segments[3])))
            raise _BadRequest(
                "asn routes: /asn/<n>/lives, /asn/<n>/taxonomy, "
                "/asn/<n>/as-of/<date>"
            )
        if len(segments) >= 2 and segments[0] == "range":
            lo, hi = _parse_range(segments[1])
            if len(segments) == 2:
                return 200, index.range_summary_body(lo, hi, limit=limit)
            if len(segments) == 4 and segments[2] == "as-of":
                return 200, index.range_as_of_body(
                    lo, hi, _parse_day(segments[3]), limit=limit
                )
            raise _BadRequest(
                "range routes: /range/<lo>-<hi>, /range/<lo>-<hi>/as-of/<date>"
            )
        return 404, _json_body({"error": f"no route for {path}"})


class _Connection(asyncio.Protocol):
    """One client connection: a receive buffer answered head by head.

    Every complete head in the buffer is answered as it arrives, in
    order, unless the transport has asked the connection to pause
    writing; then reading pauses too and buffered heads wait for
    ``resume_writing``.  One timer per connection enforces
    :data:`HEAD_TIMEOUT_S`: it fires at the deadline set when the
    connection opened and re-arms itself when a response has moved
    the deadline since.
    """

    def __init__(
        self, server: LifetimesServer, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.server = server
        self.loop = loop
        self.lost = loop.create_future()
        self.transport: Any = None
        self.buffer = bytearray()
        self.paused = False  # the transport's write buffer is full
        self.eof = False  # the client sent EOF
        self.closing = False  # a closing response went out
        self.deadline = 0.0
        self.timer: Optional[asyncio.TimerHandle] = None

    # -- transport callbacks -------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        connections = self.server._connections
        over_cap = len(connections) >= MAX_CONNECTIONS
        connections.add(self)
        self.deadline = self.loop.time() + HEAD_TIMEOUT_S
        self.timer = self.loop.call_at(self.deadline, self._check_deadline)
        if over_cap:
            self._drop(_CONNECTION_CAP)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.timer is not None:
            self.timer.cancel()
        self.server._connections.discard(self)
        self.lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return  # only the client's EOF is awaited now
        buffer = self.buffer
        buffer += data
        if self.paused:
            return
        if b"\n" not in data:
            # no line ended: the parse can change only if the open line
            # just grew past a line limit
            grown = len(buffer) - 1 - buffer.rfind(b"\n")
            before = grown - len(data)
            if not (
                before <= MAX_REQUEST_LINE < grown or before <= MAX_LINE < grown
            ):
                return
        self._answer()

    def eof_received(self) -> bool:
        if self.closing:
            return False  # the transport closes itself
        self.eof = True
        if not self.paused:
            self._answer()
        return True  # the connection closes once its heads are answered

    def pause_writing(self) -> None:
        self.paused = True
        if not self.eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.deadline = self.loop.time() + HEAD_TIMEOUT_S
        if not self.eof:
            self.transport.resume_reading()
        if not self.closing:
            self._answer()

    # -- answering -----------------------------------------------------

    def _answer(self) -> None:
        """Answer every complete head in the buffer while writes flow."""
        buffer = self.buffer
        while not self.paused and (buffer or self.eof):
            head = parse_head(buffer, self.eof)
            if head is None:
                if self.eof:
                    self.transport.close()
                return
            if isinstance(head, Drop):
                self._drop(head)
                return
            method, target, keep_alive, consumed = head
            del buffer[:consumed]
            if not self._respond(method, target, keep_alive):
                return
            if not keep_alive:
                self._finish()
                return

    def _respond(self, method: str, target: str, keep_alive: bool) -> bool:
        """Answer one request; False when the write found the client gone."""
        server = self.server
        t_request = perf_counter()
        parts = urlsplit(target)
        path = parts.path
        segments = _segments(path)
        route = _template(path, segments)
        t_handler = perf_counter()
        status, body, content_type = server._dispatch(
            method, path, segments, parts.query, route
        )
        handler_us = (perf_counter() - t_handler) * 1e6
        transport = self.transport
        transport.write(server._head(status, len(body), keep_alive, content_type) + body)
        if transport.is_closing():
            return False  # the send failed: the client reset the connection
        server.telemetry.record_request(
            method=method,
            route=route,
            path=path,
            status=status,
            request_us=(perf_counter() - t_request) * 1e6,
            handler_us=handler_us,
            bytes_out=len(body),
            asn=_asn_of(segments),
        )
        self.deadline = self.loop.time() + HEAD_TIMEOUT_S
        return True

    def _drop(self, drop: Drop) -> None:
        self.server.telemetry.record_dropped(drop.reason)
        if not drop.respond:
            self.transport.close()
            return
        body = _json_body({"error": drop.reason})
        self.transport.write(
            self.server._head(drop.status, len(body), False, _JSON) + body
        )
        self._finish()

    def _finish(self) -> None:
        """End the connection after a closing response.

        Closing a socket with unread input resets it, and a reset can
        destroy a response the client has not read yet.  So, unless the
        client already sent EOF, the connection half-closes (EOF after
        the response) and discards input until the client's EOF or
        the deadline.
        """
        self.closing = True
        self.buffer.clear()
        self.deadline = self.loop.time() + HEAD_TIMEOUT_S
        if self.eof:
            self.transport.close()
        else:
            self.transport.write_eof()

    def _check_deadline(self) -> None:
        transport = self.transport
        if transport.is_closing():
            return
        now = self.loop.time()
        if self.paused:
            # the client owes no head while it is being answered
            self.timer = self.loop.call_at(now + HEAD_TIMEOUT_S, self._check_deadline)
        elif now < self.deadline:
            self.timer = self.loop.call_at(self.deadline, self._check_deadline)
        elif self.closing:
            transport.close()
        else:
            self._drop(_HEAD_TIMEOUT)


def _found(body: Optional[bytes]) -> Tuple[int, bytes]:
    if body is None:
        return 404, _UNKNOWN_ASN
    return 200, body
