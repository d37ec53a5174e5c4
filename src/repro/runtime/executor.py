"""Pluggable execution backends for the dataset pipeline.

The pipeline's expensive stages are embarrassingly parallel along
natural axes — per registry (archive views, the five per-registry
restoration steps), per ASN chunk (lifetime inference), per collector
(dump materialization).  :class:`PipelineExecutor` abstracts *how*
those fan-outs run: :class:`SerialExecutor` runs them inline,
:class:`ProcessPoolBackend` fans them out over worker processes.

The determinism contract (see DESIGN.md) is that every backend yields
**bit-identical** pipeline output:

* ``map`` always returns results in input order, whatever order the
  workers finished in;
* work is split with :func:`chunked`, whose chunk boundaries depend
  only on the item list and the fixed chunk size — never on the worker
  count or on dict iteration order (callers sort their items first);
* tasks are pure functions of their payload (workers never mutate
  shared state), so merging chunk results in input order reproduces
  the serial result exactly.

Purity buys fault tolerance for free: because re-running a task cannot
change its result, a fan-out whose worker pool died
(:class:`~concurrent.futures.process.BrokenProcessPool` — an OOM kill,
a segfaulting extension, a stray ``kill -9``) can simply be retried on
a fresh pool, and if the pool keeps dying the same items can run
inline on the :class:`SerialExecutor` path with identical output.
:class:`ProcessPoolBackend` does exactly that: bounded
retry-with-backoff, then either a typed :class:`WorkerPoolError` or —
with ``on_failure="serial"`` — permanent degradation to inline
execution, surfaced via :attr:`ProcessPoolBackend.events` and from
there in :class:`~repro.runtime.profiling.PipelineStats`.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor as _StdProcessPool
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar, Union

from .faults import USE_ENV_FAULTS, FaultInjector, resolve_faults
from .observability import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    resolve_metrics,
)

__all__ = [
    "PipelineExecutor",
    "SerialExecutor",
    "ProcessPoolBackend",
    "WorkerPoolError",
    "resolve_executor",
    "chunked",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_RETRIES",
]

T = TypeVar("T")
R = TypeVar("R")

#: Items per chunk for per-ASN fan-outs.  Fixed (not derived from the
#: worker count) so that chunk boundaries — and therefore merge order —
#: are identical under every backend.
DEFAULT_CHUNK_SIZE = 512

#: Default retry budget for transient worker-pool failures: a fan-out
#: gets ``1 + DEFAULT_RETRIES`` attempts before the backend gives up
#: (raises or degrades to serial, per ``on_failure``).
DEFAULT_RETRIES = 2

ExecutorSpec = Union[None, int, str, "PipelineExecutor"]

#: Failures worth retrying on a fresh pool: the pool itself broke
#: (worker death) or the OS refused resources (fork/pipe exhaustion).
#: Exceptions raised by the task function are *not* retried — tasks
#: are pure, so a task error is deterministic and propagates.
_TRANSIENT_POOL_ERRORS = (BrokenProcessPool, OSError)


class WorkerPoolError(RuntimeError):
    """A worker-pool fan-out failed even after its retry budget."""

    def __init__(self, message: str, *, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


def _task_label(fn: Callable) -> str:
    """The span name of one fan-out task."""
    return f"task:{getattr(fn, '__name__', repr(fn))}"


def _traced_call(payload):
    """Worker-side shim: run one task under a fresh tracer and registry.

    Module-level (picklable).  The worker's process-global metrics
    registry is cleared first so a forked worker never re-reports the
    parent's counts; the task's spans and metric deltas travel back
    with the result and are merged into the parent trace/registry by
    :meth:`ProcessPoolBackend.map`.
    """
    fn, item = payload
    metrics = get_metrics()
    metrics.clear()
    tracer = Tracer(root_name=_task_label(fn), root_kind="task", worker=True)
    result = fn(item)
    return result, tracer.export_spans(), metrics.snapshot()


def _traced_call_pickled(blob: bytes):
    """Worker-side shim over pre-pickled ``(fn, item)`` payloads.

    The parent pickles each payload once so it can count the exact
    bytes a fan-out ships (``executor.bytes_shipped``); shipping the
    resulting blob instead of the payload costs only a re-wrap of
    already-serialized bytes.
    """
    return _traced_call(pickle.loads(blob))


class PipelineExecutor:
    """Base class: how a pipeline fan-out executes.

    Subclasses implement :meth:`map`; everything else (context-manager
    protocol, idempotent :meth:`close`, observability attachment) is
    shared.
    """

    name = "base"
    jobs = 1
    #: Observability attachment (see :meth:`instrument`): when a tracer
    #: is set, each fan-out task runs under a ``task`` span — inline
    #: tasks nest under the caller's current span, worker tasks are
    #: exported from the worker and adopted back into the parent trace.
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None

    def instrument(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "PipelineExecutor":
        """Attach a tracer/metrics registry to this executor's fan-outs."""
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics
        return self

    def _map_inline(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run tasks in the calling thread, spanned when instrumented."""
        tracer = self.tracer
        if tracer is None:
            return [fn(item) for item in items]
        label = _task_label(fn)
        out: List[R] = []
        for item in items:
            with tracer.span(label, kind="task"):
                out.append(fn(item))
        return out

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "PipelineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} jobs={self.jobs}>"


class SerialExecutor(PipelineExecutor):
    """Run every task inline, in order (the reference backend)."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return self._map_inline(fn, items)


class ProcessPoolBackend(PipelineExecutor):
    """Fan tasks out over a pool of worker processes.

    The pool is created lazily on first use and reused across stages,
    so one ``build_datasets`` run pays the worker start-up cost once.
    Task functions and payloads must be picklable (all pipeline tasks
    are module-level functions over plain dataclasses).

    Parameters
    ----------
    retries:
        Extra attempts after a transient pool failure
        (:class:`BrokenProcessPool` or an ``OSError`` spawning
        workers); each retry discards the broken pool, sleeps an
        exponentially growing ``backoff``, and re-dispatches the same
        items (safe: tasks are pure).
    on_failure:
        What to do when the retry budget is exhausted: ``"raise"``
        (default) raises :class:`WorkerPoolError`; ``"serial"``
        permanently degrades this backend to inline execution —
        identical output, no workers — and records the degradation in
        :attr:`events`.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` consulted
        before each dispatch (deterministic worker-death drills); the
        default picks up the ambient environment-configured injector.
    """

    name = "process"

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        retries: int = DEFAULT_RETRIES,
        backoff: float = 0.05,
        on_failure: str = "raise",
        faults: Any = USE_ENV_FAULTS,
    ) -> None:
        if jobs is not None and jobs < 2:
            raise ValueError("ProcessPoolBackend needs at least 2 jobs")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if on_failure not in ("raise", "serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        # An explicit jobs < 2 is rejected above; an *implicit* resolve
        # on a single-core host degrades to inline execution instead of
        # paying for a pointless 1-worker pool.
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 2)
        self.retries = retries
        self.backoff = backoff
        self.on_failure = on_failure
        self.faults: Optional[FaultInjector] = resolve_faults(faults)
        self._pool: Optional[_StdProcessPool] = None
        #: True once the backend has permanently fallen back to inline
        #: execution (``on_failure="serial"`` after exhausted retries).
        self.degraded = False
        #: Count of transient pool failures survived via retry.
        self.retry_count = 0
        #: Human-readable log of retries/degradations; pipeline drivers
        #: drain this into :class:`~repro.runtime.profiling.PipelineStats`.
        self.events: List[str] = []

    def _ensure_pool(self) -> _StdProcessPool:
        if self._pool is None:
            self._pool = _StdProcessPool(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            # the pool is broken: don't wait for dead workers
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _map_pool(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """One pool fan-out; spans/metrics round-trip when instrumented."""
        pool = self._ensure_pool()
        if self.tracer is None:
            return list(pool.map(fn, items))
        # pickle payloads here (not in pool.map) so the fan-out's exact
        # shipping cost is known at submit time; a stage whose payloads
        # dwarf its compute is one to run in-process instead
        blobs = [
            pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
            for item in items
        ]
        shipped = sum(len(blob) for blob in blobs)
        raw = list(pool.map(_traced_call_pickled, blobs))
        # merge only after the whole fan-out succeeded, so a retried
        # attempt never leaves half-adopted spans behind
        parent = self.tracer.current()
        metrics = resolve_metrics(self.metrics)
        metrics.inc("executor.bytes_shipped", shipped)
        if parent is not None:
            parent.set_attr(
                "bytes_shipped",
                int(parent.attrs.get("bytes_shipped", 0)) + shipped,
            )
        results: List[R] = []
        for result, spans, snapshot in raw:
            self.tracer.adopt(spans, parent=parent)
            metrics.merge_snapshot(snapshot)
            results.append(result)
        return results

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        if self.degraded or self.jobs < 2 or len(items) == 1:
            # degraded backends, single-core resolves, and single-item
            # fan-outs all skip the pool round-trip entirely
            return self._map_inline(fn, items)
        attempts = self.retries + 1
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                if self.faults is not None:
                    self.faults.on_worker_dispatch()
                return self._map_pool(fn, items)
            except _TRANSIENT_POOL_ERRORS as exc:
                last_exc = exc
                self._discard_pool()
                remaining = attempts - attempt - 1
                resolve_metrics(self.metrics).inc("executor.pool_failures")
                self.events.append(
                    f"executor: worker pool failed ({type(exc).__name__}: "
                    f"{exc}); {remaining} retr{'y' if remaining == 1 else 'ies'} left"
                )
                if remaining > 0:
                    self.retry_count += 1
                    resolve_metrics(self.metrics).inc("executor.retries")
                    if self.backoff > 0:
                        time.sleep(self.backoff * (2 ** attempt))
        if self.on_failure == "serial":
            self.degraded = True
            resolve_metrics(self.metrics).inc("executor.degraded")
            self.events.append(
                f"executor: degraded to serial after {attempts} failed "
                f"attempts ({type(last_exc).__name__})"
            )
            return self._map_inline(fn, items)
        raise WorkerPoolError(
            f"worker pool failed {attempts} time(s); last error: "
            f"{type(last_exc).__name__}: {last_exc}",
            attempts=attempts,
        ) from last_exc

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def resolve_executor(
    spec: ExecutorSpec = None,
    *,
    retries: int = DEFAULT_RETRIES,
    on_failure: str = "raise",
) -> PipelineExecutor:
    """Turn a user-facing spec into an executor.

    Accepts ``None`` / ``0`` / ``1`` (serial), an integer job count
    (process pool), the strings ``"serial"``, ``"process"`` or
    ``"process:N"``, or an existing executor (returned unchanged).
    Every spec that resolves to one worker — the int ``1``, the string
    ``"process:1"``, or ``"process"`` on a single-core host — yields a
    :class:`SerialExecutor`, never a 1-worker pool.  ``retries`` and
    ``on_failure`` configure any :class:`ProcessPoolBackend` this
    resolves (existing executor instances keep their own settings).
    """

    def pool(jobs: Optional[int]) -> PipelineExecutor:
        resolved = jobs if jobs is not None else (os.cpu_count() or 2)
        if resolved <= 1:
            return SerialExecutor()
        return ProcessPoolBackend(resolved, retries=retries, on_failure=on_failure)

    if spec is None:
        return SerialExecutor()
    if isinstance(spec, PipelineExecutor):
        return spec
    if isinstance(spec, bool):  # bool is an int; reject it explicitly
        raise TypeError("executor spec must be None, int, str or PipelineExecutor")
    if isinstance(spec, int):
        return pool(spec)
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor()
        if spec == "process":
            return pool(None)
        if spec.startswith("process:"):
            return pool(int(spec.split(":", 1)[1]))
        raise ValueError(f"unknown executor spec {spec!r}")
    raise TypeError("executor spec must be None, int, str or PipelineExecutor")


def chunked(items: Iterable[T], size: int = DEFAULT_CHUNK_SIZE) -> List[List[T]]:
    """Split items into contiguous chunks of at most ``size``.

    Boundaries depend only on the item sequence and ``size`` — not on
    the executor — which is what keeps parallel merges bit-identical to
    serial runs.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    out: List[List[T]] = []
    chunk: List[T] = []
    for item in items:
        chunk.append(item)
        if len(chunk) == size:
            out.append(chunk)
            chunk = []
    if chunk:
        out.append(chunk)
    return out
