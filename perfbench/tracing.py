"""Layer spans recorded from the benchmark's own files.

Timing wrappers go around each layer's public entry point *as bound in
the module that calls it* (``repro.bgp.stream.best_paths``, not
``repro.bgp.routing.best_paths``), so the program under test is not
edited and the traced call graph is the one a real run takes.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (``-1`` at top level) and ``op`` the id of the
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its span minus its child spans.
Garbage collections become ``runtime.gc`` child spans of whatever span
was running, so layer self times exclude GC pauses and the self times
of one op sum to its wall time exactly.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ENTRY_POINTS",
    "LOOKUP_METHODS",
    "Tracer",
    "install",
    "self_times",
    "self_times_by_op",
]

#: ``(module:attribute, span name)`` for every traced entry point.  An
#: attribute with a dot is a method (or classmethod) of a class that the
#: module binds.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.simulation.world:WorldSimulator.run", "simulation.run"),
    ("repro.simulation.datasets:DelegationArchive", "rir.archive"),
    ("repro.rir.pitfalls:PitfallInjector.inject_all", "rir.archive"),
    ("repro.simulation.datasets:restore_archive", "restoration.restore"),
    ("repro.simulation.datasets:build_admin_lifetimes", "lifetimes.admin"),
    ("repro.simulation.datasets:build_bgp_lifetimes", "lifetimes.op"),
    ("repro.lifetimes.bgp:build_bgp_lifetimes", "lifetimes.op"),
    ("repro.core.joint:classify", "core.classify"),
    ("repro.serve.store:classify", "core.classify"),
    ("repro.bgp.stream:best_paths", "bgp.routing"),
    ("repro.lifetimes.bgp:build_world_activity_tables", "bgp.activity"),
    ("repro.serve.store:build_serve_records", "serve.assemble"),
    ("repro.serve.store:publish_store", "serve.publish"),
    ("repro.serve.index:StoreIndex.open", "serve.index_open"),
    ("repro.serve.telemetry:ServerTelemetry.record_request",
     "serve.telemetry.record"),
)

#: The :class:`~repro.serve.index.StoreIndex` query methods; traced as
#: ``serve.index.lookup`` with the number of rows each call returned.
LOOKUP_METHODS = ("lives", "taxonomy", "as_of", "range_summary", "range_as_of")

Span = List[Any]


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded (a forked child starts clean)."""
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        # Building the record can trigger a collection, whose gc span
        # must land (begin and end) before this one is appended.
        span = [name, 0.0, 0.0, parent, self.op]
        span[1] = self._clock()
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended while {popped} was open")

    def wrap(self, name: str, fn: Callable, rows: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a ``name`` span; ``rows(result)`` feeds a counter."""

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.counts[name + ".calls"] += 1
            if rows is not None:
                self.counts[name + ".rows"] += rows(result)
            return result

        return traced

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self.begin("runtime.gc")
        else:
            self.end(self._stack[-1])
            self.counts["runtime.gc.collections"] += 1

    def track_gc(self) -> Callable[[], None]:
        """Record every collection as a span; returns the undo."""
        gc.callbacks.append(self._on_gc)
        return lambda: gc.callbacks.remove(self._on_gc)

    def write_jsonl(self, path: Path, **fields: Any) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, **fields,
                }) + "\n")


def _rows(result: Any) -> int:
    """Rows a StoreIndex query returned: 0/1 for a point, k for a range."""
    if result is None:
        return 0
    return len(result["asns"]) if "lo" in result else 1


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _sep, attr = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`ENTRY_POINTS` and the index
    lookups; returns a function that puts the originals back."""
    targets = [(target, name, None) for target, name in ENTRY_POINTS]
    targets += [
        (f"repro.serve.index:StoreIndex.{method}", "serve.index.lookup", _rows)
        for method in LOOKUP_METHODS
    ]
    undo: List[Tuple[Any, str, Any]] = []
    for target, name, rows in targets:
        owner, leaf = _resolve(target)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(original, classmethod):
            patched: Any = classmethod(tracer.wrap(name, original.__func__, rows))
        else:
            patched = tracer.wrap(name, original, rows)
        setattr(owner, leaf, patched)
        undo.append((owner, leaf, original))

    def restore() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return restore


def self_times_by_op(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Self time per op id and span name, in seconds.

    Spans of one thread nest without overlapping, so a span's self time
    is its duration minus the summed durations of its direct children.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _parent, op) in enumerate(spans):
        out[op][name] += (end - start) - child[i]
    return {op: dict(times) for op, times in out.items()}


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name over all ops, in seconds."""
    total: Dict[str, float] = defaultdict(float)
    for times in self_times_by_op(spans).values():
        for name, seconds in times.items():
            total[name] += seconds
    return dict(total)
