"""Live service telemetry for the serve layer.

The batch pipeline's observability (DESIGN §7) answers "what did this
run do"; a long-lived server needs the streaming version: what is it
doing *right now*, and how has the last minute looked?  This module
supplies that, stdlib-only, on top of the registry-level histogram
buckets (:mod:`repro.runtime.observability`):

* **Labeled metric names** — the flat :class:`MetricsRegistry`
  namespace grows a canonical label encoding
  (``serve.http.requests|route=/asn/{n}/lives|status=200``) so
  per-route/per-status series ride the existing flat snapshot.
  Labels always use *route templates*, never raw paths, so
  series cardinality is bounded by the route table, not the universe
  of ASNs clients probe.
* **Prometheus text exposition** — :func:`render_exposition` turns a
  registry snapshot into the ``text/plain; version=0.0.4`` format
  (counters as ``_total``, bucketed histograms as cumulative
  ``_bucket{le=...}`` series); :func:`parse_exposition` is the strict
  inverse the load generator and CI use to cross-check the server's
  account of a load run against the client's.
* :class:`AccessLog` — structured JSONL access logs with deterministic
  1-in-N sampling (request sequence number, not a coin flip), size-
  based rotation to a single ``.1`` backup, and atomic line appends
  (one ``os.write`` per line on an ``O_APPEND`` descriptor — two
  processes tailing the log never see a torn line).
* :class:`SloWindow` — a sliding window of bucketed sub-windows (ring
  of per-slice histogram counts) yielding a rolling p99 and error
  rate over the last ``window_seconds``, cheap enough to update on
  every request (one bucket increment) and evaluated lazily when
  ``/status`` or ``/healthz`` asks.
* :class:`ServerTelemetry` — the facade :class:`LifetimesServer`
  drives: per-request recording, drop accounting, the ``/status``
  document, and the ``/metrics`` exposition body.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..runtime.observability import (
    HISTOGRAM_BUCKET_BOUNDS,
    OVERFLOW_BUCKET,
    MetricsRegistry,
    quantile_from_buckets,
    resolve_metrics,
)

__all__ = [
    "labeled",
    "split_labeled",
    "render_exposition",
    "parse_exposition",
    "le_label",
    "AccessLog",
    "SloWindow",
    "ServerTelemetry",
    "ACCESS_LOG_FORMAT",
    "DEFAULT_LOG_SAMPLE",
    "DEFAULT_LOG_MAX_BYTES",
    "DEFAULT_SLO_WINDOW_SECONDS",
    "DEFAULT_SLO_SLICES",
    "request_quantiles",
]

#: Format tag carried by every access-log line.
ACCESS_LOG_FORMAT = "serve-access/v1"

#: Default access-log sampling: every request (1-in-1).
DEFAULT_LOG_SAMPLE = 1

#: Default size threshold before the access log rotates to ``.1``.
DEFAULT_LOG_MAX_BYTES = 64 * 1024 * 1024

DEFAULT_SLO_WINDOW_SECONDS = 60.0
DEFAULT_SLO_SLICES = 12


# -- labeled metric names ---------------------------------------------------

_LABEL_SEP = "|"


def labeled(name: str, **labels: Any) -> str:
    """Canonical labeled metric name: ``name|k1=v1|k2=v2`` (sorted keys).

    The separator never appears in route templates or status codes, so
    the encoding is unambiguous; sorted keys make the name canonical,
    so the same series always lands in one entry.
    """
    return name + "".join(
        f"{_LABEL_SEP}{key}={labels[key]}" for key in sorted(labels)
    )


def split_labeled(name: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`labeled`: ``(base name, labels dict)``."""
    base, *parts = name.split(_LABEL_SEP)
    labels: Dict[str, str] = {}
    for part in parts:
        key, _sep, value = part.partition("=")
        labels[key] = value
    return base, labels


# -- Prometheus text exposition ---------------------------------------------

_PROM_PREFIX = "repro_"

#: Canonical ``le`` label per bucket bound — formatted once so the
#: exposition and its parser agree bit-for-bit on bucket identity.
_LE_LABELS: List[str] = [f"{bound:.6g}" for bound in HISTOGRAM_BUCKET_BOUNDS]
_LE_INDEX: Dict[str, int] = {text: i for i, text in enumerate(_LE_LABELS)}


def le_label(index: int) -> str:
    """The ``le`` label of bucket ``index`` (``+Inf`` for overflow)."""
    return "+Inf" if index >= OVERFLOW_BUCKET else _LE_LABELS[index]


def _prom_name(base: str) -> str:
    return _PROM_PREFIX + base.replace(".", "_").replace("-", "_")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(labels[key])}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bools are ints; never emit True/False
        value = int(value)
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_exposition(snapshot: Mapping[str, Any]) -> str:
    """A registry snapshot as Prometheus text exposition (v0.0.4).

    Counters become ``<name>_total``, gauges stay plain, histograms
    expand to cumulative ``_bucket{le=...}`` series over the shared
    log-scaled bounds plus ``_sum``/``_count``.  Labeled registry
    names (:func:`labeled`) become real Prometheus labels.  Families
    are emitted sorted, with one ``# TYPE`` line each.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(base: str, kind: str) -> Dict[str, Any]:
        name = _prom_name(base)
        entry = families.setdefault(name, {"kind": kind, "samples": []})
        return entry

    for name, value in snapshot.get("counters", {}).items():
        base, labels_map = split_labeled(name)
        family(base, "counter")["samples"].append(
            (_prom_name(base) + "_total" + _label_text(labels_map), value)
        )
    for name, value in snapshot.get("gauges", {}).items():
        base, labels_map = split_labeled(name)
        family(base, "gauge")["samples"].append(
            (_prom_name(base) + _label_text(labels_map), value)
        )
    for name, summary in snapshot.get("histograms", {}).items():
        base, labels_map = split_labeled(name)
        entry = family(base, "histogram")
        prom = _prom_name(base)
        dense = [0] * (OVERFLOW_BUCKET + 1)
        for key, n in (summary.get("buckets") or {}).items():
            dense[int(key)] += int(n)
        cum = 0
        for i, n in enumerate(dense[:OVERFLOW_BUCKET]):
            cum += n
            bucket_labels = dict(labels_map)
            bucket_labels["le"] = le_label(i)
            entry["samples"].append(
                (prom + "_bucket" + _label_text(bucket_labels), cum)
            )
        inf_labels = dict(labels_map)
        inf_labels["le"] = "+Inf"
        entry["samples"].append(
            (prom + "_bucket" + _label_text(inf_labels),
             int(summary.get("count", 0)))
        )
        entry["samples"].append(
            (prom + "_sum" + _label_text(labels_map),
             float(summary.get("sum", 0.0)))
        )
        entry["samples"].append(
            (prom + "_count" + _label_text(labels_map),
             int(summary.get("count", 0)))
        )

    lines: List[str] = []
    for name in sorted(families):
        entry = families[name]
        lines.append(f"# TYPE {name} {entry['kind']}")
        for sample, value in entry["samples"]:
            lines.append(f"{sample} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_exposition(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Labels are a sorted tuple of ``(key, value)`` pairs.  Raises
    :class:`ValueError` on any malformed non-comment line, so callers
    (the load generator's consistency check, CI) validate the format
    as a side effect of reading it.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _sep, value_text = line.rpartition(" ")
        if not head:
            raise ValueError(f"exposition line {lineno}: no value: {raw!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"exposition line {lineno}: bad value {value_text!r}"
            ) from None
        labels: List[Tuple[str, str]] = []
        name = head
        if head.endswith("}"):
            brace = head.index("{")
            name = head[:brace]
            inner = head[brace + 1:-1]
            while inner:
                eq = inner.index("=")
                key = inner[:eq]
                if len(inner) <= eq + 1 or inner[eq + 1] != '"':
                    raise ValueError(
                        f"exposition line {lineno}: unquoted label: {raw!r}"
                    )
                pos = eq + 2
                chunks: List[str] = []
                while pos < len(inner) and inner[pos] != '"':
                    if inner[pos] == "\\" and pos + 1 < len(inner):
                        escaped = inner[pos + 1]
                        chunks.append(
                            {"n": "\n"}.get(escaped, escaped)
                        )
                        pos += 2
                    else:
                        chunks.append(inner[pos])
                        pos += 1
                if pos >= len(inner):
                    raise ValueError(
                        f"exposition line {lineno}: unterminated label: {raw!r}"
                    )
                labels.append((key, "".join(chunks)))
                inner = inner[pos + 1:].lstrip(",")
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(
                f"exposition line {lineno}: bad metric name {name!r}"
            )
        samples[(name, tuple(sorted(labels)))] = value
    return samples


# -- structured access log --------------------------------------------------


class AccessLog:
    """JSONL access log: deterministic sampling, rotation, atomic lines.

    * **Sampling** is 1-in-``sample`` by request sequence number
      (``seq % sample == 0``) — deterministic, so two identical load
      runs produce identical logs and the analyzer can scale counts
      back up by exactly ``sample``.
    * **Rotation** is size-based: when the next line would push the
      file past ``max_bytes``, the current file is atomically renamed
      to ``<name>.1`` (replacing any previous backup) and a fresh file
      starts.  At most two files ever exist.
    * **Atomicity**: each line is one ``os.write`` on an ``O_APPEND``
      descriptor — concurrent readers never observe a torn line.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        sample: int = DEFAULT_LOG_SAMPLE,
        max_bytes: int = DEFAULT_LOG_MAX_BYTES,
    ) -> None:
        self.path = Path(path)
        self.sample = max(1, int(sample))
        self.max_bytes = max(1, int(max_bytes))
        self._fd: Optional[int] = None
        self._size = 0
        self._seq = 0
        self.written = 0

    def _open(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._size = os.fstat(self._fd).st_size
        return self._fd

    def _rotate(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        backup = self.path.with_name(self.path.name + ".1")
        try:
            os.replace(self.path, backup)
        except FileNotFoundError:  # pragma: no cover - racy external unlink
            pass
        self._size = 0

    def log(self, record: Mapping[str, Any]) -> bool:
        """Maybe write one record; returns True when the line was written."""
        seq = self._seq
        self._seq += 1
        if seq % self.sample:
            return False
        doc = dict(record)
        doc["seq"] = seq
        doc["sample"] = self.sample
        line = (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        fd = self._open()
        if self._size and self._size + len(line) > self.max_bytes:
            self._rotate()
            fd = self._open()
        os.write(fd, line)
        self._size += len(line)
        self.written += 1
        return True

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# -- sliding-window SLO tracker ---------------------------------------------


class SloWindow:
    """Rolling p99 / error-rate over a ring of bucketed sub-windows.

    The window is cut into ``slices`` equal sub-windows; each holds a
    dense bucket-count array plus request/error totals.  ``observe``
    is O(1): map now → slice slot, reset the slot if it belongs to an
    expired cycle, bump one bucket.  ``summary`` folds the live slots
    together and derives the rolling quantiles — the expensive part
    runs only when someone asks (``/status``, ``/healthz``).

    Error semantics: the SLO error rate counts **server** failures
    (status >= 500).  Client errors (4xx) are the service working as
    specified and are visible per route in ``/status`` instead.
    """

    def __init__(
        self,
        *,
        window_seconds: float = DEFAULT_SLO_WINDOW_SECONDS,
        slices: int = DEFAULT_SLO_SLICES,
        clock=time.monotonic,
    ) -> None:
        if window_seconds <= 0 or slices < 1:
            raise ValueError("SLO window needs window_seconds > 0, slices >= 1")
        self.window_seconds = float(window_seconds)
        self.slices = int(slices)
        self.slice_seconds = self.window_seconds / self.slices
        self._clock = clock
        self._slots: List[Dict[str, Any]] = [
            self._fresh_slot(-1) for _ in range(self.slices)
        ]

    @staticmethod
    def _fresh_slot(slot: int) -> Dict[str, Any]:
        return {
            "slot": slot,
            "buckets": [0] * (OVERFLOW_BUCKET + 1),
            "requests": 0,
            "errors": 0,
            "sum": 0.0,
        }

    def _slot_for(self, now: float) -> Dict[str, Any]:
        slot = int(now / self.slice_seconds)
        entry = self._slots[slot % self.slices]
        if entry["slot"] != slot:
            entry = self._fresh_slot(slot)
            self._slots[slot % self.slices] = entry
        return entry

    def observe(
        self,
        latency_us: float,
        *,
        error: bool = False,
        now: Optional[float] = None,
    ) -> None:
        from ..runtime.observability import bucket_index

        now = self._clock() if now is None else now
        entry = self._slot_for(now)
        entry["buckets"][bucket_index(latency_us)] += 1
        entry["requests"] += 1
        entry["sum"] += float(latency_us)
        if error:
            entry["errors"] += 1

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The rolling window folded down to its health signals."""
        now = self._clock() if now is None else now
        current = int(now / self.slice_seconds)
        live_floor = current - self.slices + 1
        buckets = [0] * (OVERFLOW_BUCKET + 1)
        requests = errors = 0
        total = 0.0
        for entry in self._slots:
            if entry["slot"] < live_floor or entry["slot"] < 0:
                continue
            for i, n in enumerate(entry["buckets"]):
                buckets[i] += n
            requests += entry["requests"]
            errors += entry["errors"]
            total += entry["sum"]
        doc: Dict[str, Any] = {
            "window_seconds": self.window_seconds,
            "requests": requests,
            "errors": errors,
            "error_rate": (errors / requests) if requests else 0.0,
        }
        if requests:
            doc["p50_us"] = round(quantile_from_buckets(buckets, 0.50), 1)
            doc["p99_us"] = round(quantile_from_buckets(buckets, 0.99), 1)
            doc["mean_us"] = round(total / requests, 1)
        else:
            doc["p50_us"] = doc["p99_us"] = doc["mean_us"] = 0.0
        return doc


# -- server-side aggregate quantiles ----------------------------------------


def request_quantiles(
    snapshot: Mapping[str, Any],
    *,
    base: str = "serve.http.request_us",
    quantiles: Mapping[str, float] = None,
) -> Dict[str, float]:
    """Aggregate per-route request histograms → server-side quantiles.

    Folds every ``<base>|route=...`` histogram in a registry snapshot
    into one bucket array and derives the named quantiles (default
    p50/p90/p99), clamped to the merged min/max.  Returns ``{}`` when
    the snapshot has no matching observations.
    """
    if quantiles is None:
        quantiles = {"p50_us": 0.50, "p90_us": 0.90, "p99_us": 0.99}
    buckets = [0] * (OVERFLOW_BUCKET + 1)
    count = 0
    minimum = float("inf")
    maximum = float("-inf")
    for name, summary in snapshot.get("histograms", {}).items():
        if split_labeled(name)[0] != base:
            continue
        n = int(summary.get("count", 0))
        if n == 0:
            continue
        count += n
        minimum = min(minimum, float(summary.get("min", 0.0)))
        maximum = max(maximum, float(summary.get("max", 0.0)))
        for key, v in (summary.get("buckets") or {}).items():
            buckets[int(key)] += int(v)
    if count == 0:
        return {}
    return {
        label: quantile_from_buckets(
            buckets, q, count=count, minimum=minimum, maximum=maximum
        )
        for label, q in quantiles.items()
    }


# -- the server-facing facade -----------------------------------------------


class ServerTelemetry:
    """Everything :class:`LifetimesServer` records and reports.

    One instance per server.  Metrics go into the (shared) registry
    under labeled names; the SLO ring and access log are per-instance.
    Two latency series exist on purpose: ``serve.http.latency_us``
    (handler time only, the PR-8 series, unlabeled) and
    ``serve.http.request_us|route=...`` (request-head-parsed through
    response-drained — the series quantiles, ``/status`` tables, and
    the SLO window are derived from).
    """

    def __init__(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        access_log: Optional[AccessLog] = None,
        slo: Optional[SloWindow] = None,
        wall=time.time,
    ) -> None:
        self.metrics = resolve_metrics(metrics)
        self.access_log = access_log
        self.slo = slo if slo is not None else SloWindow()
        self._wall = wall
        self.started = wall()

    # -- recording -----------------------------------------------------

    def record_request(
        self,
        *,
        method: str,
        route: str,
        path: str,
        status: int,
        request_us: float,
        handler_us: float,
        bytes_out: int,
        asn: Optional[int] = None,
    ) -> None:
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
        if self.access_log is not None:
            self.access_log.log({
                "format": ACCESS_LOG_FORMAT,
                "t": round(self._wall(), 3),
                "method": method,
                "route": route,
                "path": path,
                "status": status,
                "us": round(request_us, 1),
                "bytes": bytes_out,
                **({"asn": asn} if asn is not None else {}),
            })

    def record_dropped(self, reason: str) -> None:
        """A request head we refused to parse (oversized, flood, ...)."""
        self.metrics.inc("serve.http.dropped")
        self.metrics.inc(labeled("serve.http.dropped", reason=reason))

    def record_exception(self, route: str, exc: BaseException) -> None:
        """An unexpected handler exception (rendered as a 500)."""
        self.metrics.inc("serve.http.exceptions")
        self.metrics.inc(labeled(
            "serve.http.exceptions", route=route, type=type(exc).__name__
        ))

    # -- reporting -----------------------------------------------------

    def uptime_seconds(self) -> float:
        return max(0.0, self._wall() - self.started)

    def metrics_text(self) -> str:
        """The ``/metrics`` body: the registry as Prometheus text."""
        return render_exposition(self.metrics.snapshot())

    def status_document(self, snapshot_digest: str) -> Dict[str, Any]:
        """The ``/status`` body: uptime, per-route tables, SLO window."""
        snap = self.metrics.snapshot()
        routes: Dict[str, Dict[str, Any]] = {}
        for name, value in snap.get("counters", {}).items():
            base, labels_map = split_labeled(name)
            if base != "serve.http.requests" or "route" not in labels_map:
                continue
            row = routes.setdefault(
                labels_map["route"], {"requests": 0, "errors": 0}
            )
            row["requests"] += int(value)
            try:
                if int(labels_map.get("status", 0)) >= 400:
                    row["errors"] += int(value)
            except ValueError:  # pragma: no cover - foreign label
                pass
        for name, summary in snap.get("histograms", {}).items():
            base, labels_map = split_labeled(name)
            if base != "serve.http.request_us" or "route" not in labels_map:
                continue
            row = routes.setdefault(
                labels_map["route"], {"requests": 0, "errors": 0}
            )
            count = int(summary.get("count", 0))
            if count:
                buckets = summary.get("buckets") or {}
                extremes = {
                    "minimum": float(summary.get("min", 0.0)),
                    "maximum": float(summary.get("max", 0.0)),
                }
                for label, q in (
                    ("p50_us", 0.50), ("p90_us", 0.90), ("p99_us", 0.99)
                ):
                    row[label] = round(quantile_from_buckets(
                        buckets, q, count=count, **extremes
                    ), 1)
                row["mean_us"] = round(
                    float(summary.get("sum", 0.0)) / count, 1
                )
        dropped = {}
        for name, value in snap.get("counters", {}).items():
            base, labels_map = split_labeled(name)
            if base == "serve.http.dropped" and "reason" in labels_map:
                dropped[labels_map["reason"]] = int(value)
        return {
            "snapshot": snapshot_digest,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "requests": int(snap.get("counters", {}).get(
                "serve.http.requests", 0
            )),
            "errors": int(snap.get("counters", {}).get(
                "serve.http.errors", 0
            )),
            "dropped": dropped,
            "routes": {
                route: routes[route] for route in sorted(routes)
            },
            "slo": self.slo.summary(),
        }
