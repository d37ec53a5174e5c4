"""Structured observability: span tracing, metrics, run manifests.

Longitudinal measurement work lives or dies on provenance — being able
to say *which inputs, code version, and stage path produced this
artifact, and how long every step took*.  Historic-attribution services
(Back-to-the-Future Whois and kin) must justify every derived record;
this module gives the reproduction pipeline the same receipts:

* :class:`Tracer` — nested spans with stage/component/engine
  attributes, monotonic timings, and free-form annotations (cache
  hit/miss, quarantines, degradations, injected faults).  Thread-safe:
  per-thread span stacks over one shared trace.
* :class:`MetricsRegistry` — counters, gauges, and histograms
  (``cache.hits``, ``cache.verify_failures``, ``bgp.contributions``,
  per-stage wall histograms, ...) behind one lock.
* Run manifests — :func:`build_run_manifest` assembles the config hash,
  cache-key versions, run settings, fault-injection settings,
  ``git describe``, and a per-stage span digest into a deterministic
  JSON document: identical config and inputs reproduce the manifest
  byte-for-byte (timestamps are opt-in precisely so the default stays
  reproducible).

All three artifacts are written atomically (unique temp file +
``os.replace``), the same publish discipline the artifact cache uses,
so a crashed run can never leave a torn trace or manifest next to the
exported datasets.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

__all__ = [
    "TRACE_FORMAT",
    "RUN_MANIFEST_FORMAT",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "BUCKETS_PER_DECADE",
    "HISTOGRAM_BUCKET_BOUNDS",
    "OVERFLOW_BUCKET",
    "bucket_index",
    "nearest_rank",
    "quantile_from_buckets",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
    "write_json_atomic",
    "write_jsonl_atomic",
    "git_describe",
    "build_run_manifest",
    "write_run_manifest",
]

#: Format tag of the JSON-lines trace file (first line of every file).
TRACE_FORMAT = "pipeline-trace/v1"

#: Format tag of the per-run manifest document.
RUN_MANIFEST_FORMAT = "run-manifest/v1"


# -- atomic JSON writers ----------------------------------------------------

_UNIQUE = itertools.count()


def _write_text_atomic(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` via a unique temp file + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{next(_UNIQUE)}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_json_atomic(path: Union[str, Path], document: Any) -> Path:
    """Atomically write one canonical (sorted-key) JSON document."""
    return _write_text_atomic(
        path, json.dumps(document, sort_keys=True, indent=2) + "\n"
    )


def write_jsonl_atomic(path: Union[str, Path], lines: Sequence[Any]) -> Path:
    """Atomically write one JSON document per line."""
    text = "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in lines
    )
    return _write_text_atomic(path, text)


# -- spans ------------------------------------------------------------------


class Span:
    """One timed operation in a trace.

    Mutable by design: stage code sets ``items`` (work width) after
    the block exits, and annotations arrive while the span is open.
    Attribute access is cheap; cross-thread mutation is guarded by the
    owning tracer's lock where it matters (annotation, finishing).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "attrs",
        "annotations",
        "start_wall",
        "seconds",
        "pid",
        "finished",
        "_start_mono",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        *,
        kind: str = "stage",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.annotations: List[str] = []
        self.start_wall = time.time()
        self._start_mono = time.perf_counter()
        self.seconds = 0.0
        self.pid = os.getpid()
        self.finished = False

    @property
    def items(self) -> Optional[int]:
        """Work width, stored as the ``items`` attribute."""
        return self.attrs.get("items")

    @items.setter
    def items(self, value: Optional[int]) -> None:
        if value is None:
            self.attrs.pop("items", None)
        else:
            self.attrs["items"] = value

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def annotate(self, message: str) -> None:
        self.annotations.append(str(message))

    def to_dict(self) -> Dict[str, Any]:
        """The span's JSON-lines representation."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start_wall, 6),
            "seconds": round(self.seconds, 6),
            "attrs": self.attrs,
            "annotations": list(self.annotations),
            "pid": self.pid,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.span_id} {self.name!r} kind={self.kind} "
            f"{'finished' if self.finished else 'open'}>"
        )


class Tracer:
    """The run's one accounting object: nested stage spans and events.

    Every tracer owns a root span named ``run``; stages opened with
    :meth:`stage` nest under the opener thread's innermost open span,
    falling back to the root, so concurrent threads build disjoint
    subtrees of one tree.  Every finished stage span also observes its
    wall time into the ``stage.<name>.seconds`` histogram of
    :attr:`metrics`, so the metrics snapshot and the trace can never
    disagree.

    Parameters
    ----------
    metrics:
        The :class:`MetricsRegistry` the run aggregates into (default:
        the process-global registry).
    """

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(2)
        self._local = threading.local()
        self.trace_id = os.urandom(8).hex()
        self.metrics = resolve_metrics(metrics)
        #: Degradation/event log: the runtime's quarantines and failed
        #: stores.  A clean run leaves it empty.
        self.events: List[str] = []
        self.root = Span(1, None, "run", kind="root")
        #: Stage spans in finish order (the root is added at export time).
        self.spans: List[Span] = []

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span:
        """The opener thread's innermost open span (root if none)."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    def _new_span(self, name: str, items: Optional[int], attrs: Dict[str, Any]) -> Span:
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, self.current().span_id, name, attrs=attrs)
        if items is not None:
            span.items = items
        return span

    def _finished(self, span: Span) -> None:
        """The one place a stage span finishes: log it, observe its wall."""
        span.finished = True
        with self._lock:
            self.spans.append(span)
        self.metrics.observe(f"stage.{span.name}.seconds", span.seconds)

    def start_span(self, name: str, *, items: Optional[int] = None, **attrs: Any) -> Span:
        """Open a stage span; close it with :meth:`finish_span`."""
        span = self._new_span(name, items, attrs)
        self._stack().append(span)
        return span

    def finish_span(self, span: Span) -> None:
        if span.finished:
            return
        span.seconds = time.perf_counter() - span._start_mono
        stack = self._stack()
        if span in stack:
            # close any orphaned children left open by an exception
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        self._finished(span)

    @contextmanager
    def stage(self, name: str, items: Optional[int] = None, **attrs: Any) -> Iterator[Span]:
        """Time a stage; the yielded span can be given a late item count.

        Extra keyword attributes (component, engine, registry, ...)
        land on the stage's span and flow into the exported trace and
        the manifest's span digest.
        """
        span = self.start_span(name, items=items, **attrs)
        try:
            yield span
        finally:
            self.finish_span(span)

    def record(
        self, name: str, seconds: float, items: Optional[int] = None, **attrs: Any
    ) -> Span:
        """Append an externally measured stage; returns its span so
        callers can attach late attributes (ledger summaries)."""
        span = self._new_span(name, items, attrs)
        span.seconds = float(seconds)
        self._finished(span)
        return span

    # -- annotations and events ----------------------------------------

    def note(self, message: str) -> None:
        """Record one runtime event and annotate the current span."""
        message = str(message)
        with self._lock:
            self.events.append(message)
        self.current().annotate(message)

    def annotate_current(self, message: str) -> None:
        """Annotate the current span without logging an event."""
        self.current().annotate(message)

    def drain_events_from(self, *sources: object) -> None:
        """Move the ``events`` logs of caches into this run.

        The source log is snapshotted before extending and cleared
        afterwards, so a source reused across runs never re-reports old
        events — and draining a source that shares this run's event
        list (including this tracer itself) is a safe no-op instead of
        an unbounded self-extension.
        """
        for source in sources:
            log = getattr(source, "events", None)
            if log is None or log is self.events:
                continue
            pending = [str(event) for event in log]
            if not pending:
                continue
            try:
                log.clear()
            except AttributeError:
                pass  # immutable source log: report it, cannot drain it
            for event in pending:
                self.note(event)

    def subscribe_faults(self, injector: Any) -> Callable[[], None]:
        """Mirror every fired fault of ``injector`` into this trace.

        Each :class:`~repro.runtime.faults.FaultEvent` becomes a
        ``fault: site=... kind=... detail=...`` annotation on the span
        active when the fault fired, closing the loop between the
        injection harness and the emitted trace.  Returns a detach
        callable (tests subscribe short-lived tracers).
        """

        def _on_fire(event: Any) -> None:
            self.annotate_current(
                f"fault: site={event.site} kind={event.kind} "
                f"detail={event.detail}"
            )

        injector.listeners.append(_on_fire)

        def _detach() -> None:
            try:
                injector.listeners.remove(_on_fire)
            except ValueError:
                pass

        return _detach

    # -- export --------------------------------------------------------

    def stage_spans(self) -> List[Span]:
        """Finished stage spans in finish order (the profile view)."""
        with self._lock:
            return list(self.spans)

    def to_lines(self) -> List[Dict[str, Any]]:
        """The JSON-lines trace: a header line, then one line per span."""
        root = self.root.to_dict()
        root["seconds"] = round(time.perf_counter() - self.root._start_mono, 6)
        header = {
            "format": TRACE_FORMAT,
            "trace_id": self.trace_id,
            "spans": len(self.spans) + 1,
        }
        with self._lock:
            return [header, root] + [span.to_dict() for span in self.spans]

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Atomically write the trace as JSON lines."""
        return write_jsonl_atomic(path, self.to_lines())

    def stage_digest(self) -> Dict[str, Any]:
        """A deterministic digest of the stage path this run took.

        Covers stage names, order, item counts, and non-timing
        attributes — never durations, pids, or span ids — so identical
        configs and inputs produce identical digests.
        """
        rows = []
        for span in self.stage_spans():
            attrs = {
                k: v for k, v in sorted(span.attrs.items())
                if not isinstance(v, float)
            }
            rows.append({"name": span.name, "attrs": attrs})
        blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return {
            "stages": rows,
            "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {self.trace_id} spans={len(self.spans)}>"


# -- metrics ----------------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value


#: Bucket resolution of every histogram: 4 log-scaled buckets per
#: decade, a ~78% relative span per bucket (bound ratio 10^(1/4)), so a
#: bucket-derived quantile estimate is off by at most half a bucket —
#: a factor of 10^(1/8) ≈ 1.33 — from the true sample quantile.
BUCKETS_PER_DECADE = 4

#: Shared upper bucket bounds (inclusive, ``le`` semantics), fixed for
#: every histogram so Prometheus ``le`` series line up across scrapes.
#: The span 1e-4 .. 1e7 covers both unit conventions in use:
#: stage walls in seconds (0.1ms .. months) and latencies in µs
#: (sub-µs .. 10s).  Values above the last bound land in the overflow
#: bucket; values at or below the first bound land in bucket 0.
HISTOGRAM_BUCKET_BOUNDS: Sequence[float] = tuple(
    10.0 ** (k / BUCKETS_PER_DECADE) for k in range(-16, 29)
)

#: Index of the +Inf overflow bucket (one past the bounded buckets).
OVERFLOW_BUCKET = len(HISTOGRAM_BUCKET_BOUNDS)


def bucket_index(value: float) -> int:
    """The bucket a value falls in: first ``i`` with value <= bounds[i]."""
    return bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def quantile_from_buckets(
    buckets: Union[Sequence[int], Mapping[Any, int]],
    q: float,
    *,
    count: Optional[int] = None,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """Estimate the q-th quantile from per-bucket counts.

    ``buckets`` is either the dense per-bucket count list or the sparse
    ``{index: count}`` mapping a snapshot carries.  Nearest-rank over
    the cumulative counts picks the bucket — using the same
    ``round(q * (n - 1))`` zero-based rank convention as
    :func:`nearest_rank` (the client-side percentiles), so the two
    planes agree on which observation a quantile names — and the
    estimate is the geometric midpoint of its bounds (the point
    minimising worst-case relative error), clamped into ``[minimum,
    maximum]`` when the histogram's observed extremes are known.
    """
    dense = [0] * (OVERFLOW_BUCKET + 1)
    if isinstance(buckets, Mapping):
        for key, n in buckets.items():
            dense[int(key)] += int(n)
    else:
        for i, n in enumerate(buckets):
            dense[i] += int(n)
    total = int(count) if count is not None else sum(dense)
    if total <= 0:
        return 0.0
    rank = max(0, min(total - 1, round(q * (total - 1)))) + 1
    cum = 0
    estimate = 0.0
    for i, n in enumerate(dense):
        cum += n
        if cum >= rank:
            if i >= OVERFLOW_BUCKET:
                estimate = (
                    maximum if maximum is not None
                    else HISTOGRAM_BUCKET_BOUNDS[-1]
                )
            elif i == 0:
                estimate = HISTOGRAM_BUCKET_BOUNDS[0]
            else:
                lo = HISTOGRAM_BUCKET_BOUNDS[i - 1]
                hi = HISTOGRAM_BUCKET_BOUNDS[i]
                estimate = (lo * hi) ** 0.5
            break
    if minimum is not None:
        estimate = max(estimate, minimum)
    if maximum is not None:
        estimate = min(estimate, maximum)
    return estimate


class Histogram:
    """A streaming summary of observations: count / sum / min / max plus
    fixed log-scaled bucket counts (:data:`HISTOGRAM_BUCKET_BOUNDS`).

    The bucket layout is fixed, so server-side quantiles (p50/p90/p99) derive from the counts via
    :func:`quantile_from_buckets` with bounded relative error.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets = [0] * (OVERFLOW_BUCKET + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.buckets[bucket_index(value)] += 1

    def quantile(self, q: float) -> float:
        """Bucket-derived quantile estimate (0.0 for an empty histogram)."""
        return quantile_from_buckets(
            self.buckets, q,
            count=self.count,
            minimum=self.minimum if self.count else None,
            maximum=self.maximum if self.count else None,
        )

    def snapshot(self) -> Dict[str, Any]:
        if self.count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "buckets": {},
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            "buckets": {
                str(i): n for i, n in enumerate(self.buckets) if n
            },
        }


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            return gauge

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            return hist

    def inc(self, name: str, n: int = 1) -> None:
        """Shorthand: bump a counter."""
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        """Shorthand: add one histogram observation."""
        self.histogram(name).observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of every metric."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.snapshot() for k, h in sorted(self._histograms.items())
                },
            }

    def clear(self) -> None:
        """Drop every metric (in place, so shared references survive)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry: the cache and the fault injector
#: report here by default, so zero-configuration runs still aggregate.
_GLOBAL_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL_METRICS


def reset_metrics() -> MetricsRegistry:
    """Clear the global registry in place (same object) and return it."""
    _GLOBAL_METRICS.clear()
    return _GLOBAL_METRICS


def resolve_metrics(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``None`` → the process-global registry, else pass through."""
    return metrics if metrics is not None else _GLOBAL_METRICS


# -- run manifests ----------------------------------------------------------


def git_describe(root: Union[str, Path, None] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the repo, or ``None``."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def build_run_manifest(
    *,
    config: Any = None,
    settings: Optional[Mapping[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    git_root: Union[str, Path, None] = None,
) -> Dict[str, Any]:
    """Assemble the provenance manifest of one pipeline run.

    The manifest answers "which inputs, code version, and stage path
    produced these datasets": the config's canonical fingerprint and
    cache-key hash, every cache-key version tag, the run settings
    the caller passes, the ambient fault-injection settings,
    ``git describe``, and the tracer's per-stage span digest.

    Deterministic by construction: identical config + settings + stage
    path yield a byte-identical document; it carries no timestamp.
    """
    # Call-time import: the cache module imports this one for metrics.
    from .cache import CACHE_VERSIONS, cache_key, fingerprint
    from .faults import ENV_RATE, ENV_SEED, ENV_SITES, SITES

    seed_text = os.environ.get(ENV_SEED)
    fault_injection: Optional[Dict[str, Any]] = None
    if seed_text:
        sites_text = os.environ.get(ENV_SITES)
        fault_injection = {
            "seed": int(seed_text),
            "rate": float(os.environ.get(ENV_RATE) or 0.05),
            "sites": sorted(
                s.strip() for s in sites_text.split(",") if s.strip()
            ) if sites_text else sorted(SITES),
        }

    manifest: Dict[str, Any] = {
        "format": RUN_MANIFEST_FORMAT,
        "config": fingerprint(config) if config is not None else None,
        "config_hash": cache_key(config=config) if config is not None else None,
        "cache_versions": dict(CACHE_VERSIONS),
        "settings": fingerprint(dict(settings)) if settings is not None else {},
        "fault_injection": fault_injection,
        "git": git_describe(git_root) or "unknown",
        "span_digest": tracer.stage_digest() if tracer is not None else None,
        "events": list(tracer.events) if tracer is not None else [],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    manifest["digest"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return manifest


def write_run_manifest(path: Union[str, Path], manifest: Mapping[str, Any]) -> Path:
    """Atomically write a manifest document (canonical JSON)."""
    return write_json_atomic(path, dict(manifest))
