"""Inspect toolkit: consume trace/metrics/manifest/ledger artifacts.

PR 4 made every ``simulate`` run emit its observability artifacts
(``trace.jsonl``, ``metrics.json``, ``run_manifest.json``; PR 5 adds
``ledger.json``) — this module is what *reads* them.  Three consumers,
surfaced as the ``repro inspect`` CLI family:

``inspect trace``
    Render the nested span tree with critical-path highlighting, and
    export folded stacks (one ``a;b;c <self-µs>`` line per span) for
    flamegraph tooling.

``inspect diff``
    Compare two runs' manifest+metrics+trace triples.  Identity first —
    manifest digests, config hashes, span digests, settings — then
    per-stage wall-time deltas, each attributed to a cause: a cache
    attribute that flipped (``cache-miss``/``cache-hit``) or a plain
    ``stage-slowdown``/``stage-speedup``.

``inspect ledger``
    The conservation table (rendering lives in
    :mod:`repro.runtime.ledger`; the CLI wires it up).

``inspect serve-log``
    Per-route latency/error tables and top-ASN heat from a serve
    access log (``serve-access/v1`` JSONL, written by ``repro serve
    --access-log``); sampled logs are scaled back up by their recorded
    sampling factor.

Everything here is read-only over JSON documents: no pipeline imports,
so ``inspect`` works on artifacts from any run, any machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Union

from .observability import TRACE_FORMAT, nearest_rank

__all__ = [
    "TraceView",
    "load_trace",
    "trace_view",
    "critical_path",
    "render_trace",
    "folded_stacks",
    "RunArtifacts",
    "load_run",
    "stage_seconds",
    "stage_cache_modes",
    "diff_runs",
    "render_diff",
    "load_access_log",
    "render_serve_log",
]


# -- trace loading ----------------------------------------------------------


@dataclass
class TraceView:
    """An indexed, read-only view of one ``trace.jsonl`` file."""

    header: Dict[str, Any]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    by_id: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    children: Dict[Optional[int], List[Dict[str, Any]]] = field(
        default_factory=dict
    )

    @property
    def roots(self) -> List[Dict[str, Any]]:
        """Spans with no parent in the trace (normally exactly one)."""
        return self.children.get(None, [])

    def stage_spans(self) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s.get("kind") == "stage"]


def load_trace(path: Union[str, Path]) -> TraceView:
    """Load and index a ``pipeline-trace/v1`` JSON-lines file."""
    path = Path(path)
    if path.is_dir():
        path = path / "trace.jsonl"
    with path.open(encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    try:
        return trace_view(lines)
    except ValueError:
        raise ValueError(f"{path} is not a {TRACE_FORMAT} file") from None


def trace_view(lines: Sequence[Dict[str, Any]]) -> TraceView:
    """Index trace lines (a header, then one span per line).

    Takes what :func:`load_trace` parsed from a file or what
    :meth:`~repro.runtime.observability.Tracer.to_lines` returns for
    the trace still in memory, so both render the same way.
    """
    header: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    for record in lines:
        if not header and "span_id" not in record:
            header = record
            continue
        spans.append(record)
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} trace")
    view = TraceView(header=header, spans=spans)
    ids = {span.get("span_id") for span in spans}
    for span in spans:
        view.by_id[span["span_id"]] = span
        parent = span.get("parent_id")
        # Orphans (parent never exported) render as roots rather than
        # vanishing from the tree.
        key = parent if parent in ids else None
        view.children.setdefault(key, []).append(span)
    for siblings in view.children.values():
        siblings.sort(key=lambda s: (s.get("start", 0.0), s.get("span_id", 0)))
    return view


def critical_path(view: TraceView) -> Set[int]:
    """Span ids on the heaviest root-to-leaf chain.

    Greedy descent: from each root, repeatedly step into the child with
    the largest duration.  With spans timed by wall clock this is the
    chain a reader should optimise first.
    """
    path: Set[int] = set()
    roots = view.roots
    if not roots:
        return path
    node = max(roots, key=lambda s: s.get("seconds", 0.0))
    while node is not None:
        path.add(node["span_id"])
        kids = view.children.get(node["span_id"], [])
        node = max(kids, key=lambda s: s.get("seconds", 0.0)) if kids else None
    return path


def render_trace(view: TraceView, *, max_depth: Optional[int] = None) -> str:
    """The span tree, one line per span, critical path starred."""
    hot = critical_path(view)
    total = sum(s.get("seconds", 0.0) for s in view.roots) or 1.0
    lines = [
        f"Trace {view.header.get('trace_id', '?')} — "
        f"{len(view.spans)} spans (critical path starred)",
    ]

    def walk(span: Dict[str, Any], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        seconds = span.get("seconds", 0.0)
        attrs = span.get("attrs", {})
        extras = []
        if "items" in attrs:
            extras.append(f"items={attrs['items']}")
        if "cache" in attrs:
            extras.append(f"cache={attrs['cache']}")
        if span.get("annotations"):
            extras.append(f"notes={len(span['annotations'])}")
        star = "*" if span["span_id"] in hot else " "
        lines.append(
            f"{star} {'  ' * depth}{span.get('name', '?'):<{max(44 - 2 * depth, 8)}}"
            f" {seconds:>9.3f}s {seconds / total:>6.1%}"
            + (f"  [{', '.join(extras)}]" if extras else "")
        )
        for child in view.children.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in view.roots:
        walk(root, 0)
    return "\n".join(lines)


def folded_stacks(view: TraceView) -> List[str]:
    """Folded-stack lines (``root;stage;child <self-time-µs>``).

    Self time is the span's duration minus its children's, floored at
    zero (externally timed children, such as the worker ``task`` spans
    of older traces, can overlap their parent's accounting); the µs
    unit keeps sub-millisecond spans nonzero.
    Feed the joined lines to any flamegraph renderer.
    """
    lines: List[str] = []

    def walk(span: Dict[str, Any], trail: Sequence[str]) -> None:
        path = list(trail) + [str(span.get("name", "?"))]
        kids = view.children.get(span["span_id"], [])
        child_seconds = sum(k.get("seconds", 0.0) for k in kids)
        self_us = max(0.0, span.get("seconds", 0.0) - child_seconds) * 1e6
        lines.append(f"{';'.join(path)} {int(round(self_us))}")
        for child in kids:
            walk(child, path)

    for root in view.roots:
        walk(root, [])
    return lines


# -- run loading ------------------------------------------------------------


@dataclass
class RunArtifacts:
    """The artifact triple (plus ledger) of one ``simulate`` run."""

    path: Path
    manifest: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    trace: Optional[TraceView] = None
    ledger: Optional[Dict[str, Any]] = None

    @property
    def digest(self) -> Optional[str]:
        return (self.manifest or {}).get("digest")

    @property
    def label(self) -> str:
        digest = self.digest
        return f"{self.path.name} ({digest[:12]})" if digest else self.path.name


def load_run(
    path: Union[str, Path],
    *,
    artifacts: Optional[Mapping[str, str]] = None,
) -> RunArtifacts:
    """Load whatever artifacts a run directory holds.

    ``artifacts`` overrides individual file locations (the run
    registry records them per run); defaults are the ``simulate``
    output names.  Missing files load as ``None`` — ``diff_runs``
    degrades gracefully.
    """
    path = Path(path)
    names = {
        "manifest": "run_manifest.json",
        "metrics": "metrics.json",
        "trace": "trace.jsonl",
        "ledger": "ledger.json",
    }
    if artifacts:
        names.update({k: v for k, v in artifacts.items() if k in names})

    def resolve(name: str) -> Path:
        candidate = Path(names[name])
        return candidate if candidate.is_absolute() else path / candidate

    run = RunArtifacts(path=path)
    manifest_path = resolve("manifest")
    if manifest_path.exists():
        run.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    metrics_path = resolve("metrics")
    if metrics_path.exists():
        run.metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    trace_path = resolve("trace")
    if trace_path.exists():
        run.trace = load_trace(trace_path)
    ledger_path = resolve("ledger")
    if ledger_path.exists():
        from .ledger import load_ledger

        run.ledger = load_ledger(ledger_path)
    return run


def stage_seconds(run: RunArtifacts) -> Dict[str, float]:
    """stage name → total wall seconds, metrics first, trace fallback.

    The metrics snapshot's ``stage.<name>.seconds`` histogram sums are
    authoritative (they are what the pipeline itself timed); run
    directories without a ``metrics.json`` fall back to summing trace
    stage spans.
    """
    if run.metrics is not None:
        out: Dict[str, float] = {}
        for name, summary in run.metrics.get("histograms", {}).items():
            if name.startswith("stage.") and name.endswith(".seconds"):
                out[name[len("stage."):-len(".seconds")]] = float(
                    summary.get("sum", 0.0)
                )
        if out:
            return out
    if run.trace is not None:
        out = {}
        for span in run.trace.stage_spans():
            name = str(span.get("name", "?"))
            out[name] = out.get(name, 0.0) + float(span.get("seconds", 0.0))
        return out
    return {}


def stage_cache_modes(run: RunArtifacts) -> Dict[str, str]:
    """stage name → its span's ``cache`` attribute (hit/miss), if any."""
    modes: Dict[str, str] = {}
    if run.trace is None:
        return modes
    for span in run.trace.stage_spans():
        cache = span.get("attrs", {}).get("cache")
        if cache is not None:
            modes[str(span.get("name", "?"))] = str(cache)
    return modes


# -- run diffing ------------------------------------------------------------

#: Relative wall-time change below which a stage is "unchanged".
DIFF_THRESHOLD = 0.20

#: Absolute floor (seconds) below which relative noise is ignored.
DIFF_ABS_FLOOR = 0.01


def diff_runs(a: RunArtifacts, b: RunArtifacts) -> Dict[str, Any]:
    """Compare two runs and attribute per-stage wall-time deltas.

    Attribution rules, in order, per stage:

    1. The stage span's ``cache`` attribute flipped hit→miss (or the
       stage newly appeared alongside a flip): ``cache-miss`` — B paid
       a rebuild A skipped.  The reverse flip is ``cache-hit``.
    2. Stage present in only one run: ``added`` / ``removed`` (a
       config or code change; identity section will disagree too).
    3. Relative delta beyond :data:`DIFF_THRESHOLD` (and
       :data:`DIFF_ABS_FLOOR`):
       ``stage-slowdown``/``stage-speedup``.
    4. Else ``unchanged``.
    """
    manifest_a = a.manifest or {}
    manifest_b = b.manifest or {}
    settings_a = manifest_a.get("settings", {})
    settings_b = manifest_b.get("settings", {})
    identity = {
        "digest_a": manifest_a.get("digest"),
        "digest_b": manifest_b.get("digest"),
        "same_digest": bool(manifest_a.get("digest"))
        and manifest_a.get("digest") == manifest_b.get("digest"),
        "same_config": manifest_a.get("config_hash") == manifest_b.get("config_hash"),
        "same_span_digest": (manifest_a.get("span_digest") or {}).get("sha256")
        == (manifest_b.get("span_digest") or {}).get("sha256"),
        "settings_changed": sorted(
            key
            for key in set(settings_a) | set(settings_b)
            if settings_a.get(key) != settings_b.get(key)
        ),
    }

    seconds_a = stage_seconds(a)
    seconds_b = stage_seconds(b)
    cache_a = stage_cache_modes(a)
    cache_b = stage_cache_modes(b)

    stages: List[Dict[str, Any]] = []
    for name in sorted(set(seconds_a) | set(seconds_b)):
        sa = seconds_a.get(name)
        sb = seconds_b.get(name)
        row: Dict[str, Any] = {
            "stage": name,
            "seconds_a": sa,
            "seconds_b": sb,
            "delta": (sb or 0.0) - (sa or 0.0),
        }
        mode_a = cache_a.get(name)
        mode_b = cache_b.get(name)
        if mode_a != mode_b and (mode_a, mode_b) != (None, None):
            row["cache"] = f"{mode_a or '-'}→{mode_b or '-'}"
        if mode_a == "hit" and mode_b == "miss":
            row["cause"] = "cache-miss"
        elif mode_a == "miss" and mode_b == "hit":
            row["cause"] = "cache-hit"
        elif sa is None:
            row["cause"] = "added"
        elif sb is None:
            row["cause"] = "removed"
        else:
            rel = (sb - sa) / max(sa, DIFF_ABS_FLOOR)
            if abs(sb - sa) <= DIFF_ABS_FLOOR or abs(rel) <= DIFF_THRESHOLD:
                row["cause"] = "unchanged"
            else:
                row["cause"] = "stage-slowdown" if sb > sa else "stage-speedup"
            row["relative"] = rel
        stages.append(row)

    total_a = sum(seconds_a.values())
    total_b = sum(seconds_b.values())
    return {
        "a": str(a.path),
        "b": str(b.path),
        "identity": identity,
        "stages": stages,
        "total_seconds_a": total_a,
        "total_seconds_b": total_b,
        "total_delta": total_b - total_a,
    }


def render_diff(diff: Mapping[str, Any]) -> str:
    """Human-readable report of a :func:`diff_runs` result."""
    identity = diff.get("identity", {})
    lines = [f"Run diff: {diff.get('a')} → {diff.get('b')}"]
    da, db = identity.get("digest_a"), identity.get("digest_b")
    if da or db:
        lines.append(
            f"  manifest digests: {str(da)[:12]} vs {str(db)[:12]}"
            + (" (identical)" if identity.get("same_digest") else "")
        )
    if not identity.get("same_config", True):
        lines.append("  config hash differs — not the same input world")
    if not identity.get("same_span_digest", True):
        lines.append("  span digest differs — the runs took different stage paths")
    if identity.get("settings_changed"):
        lines.append(
            "  settings changed: " + ", ".join(identity["settings_changed"])
        )
    lines.append(
        f"{'stage':<30} {'A':>9} {'B':>9} {'delta':>9}  cause"
    )
    for row in diff.get("stages", []):
        sa = row.get("seconds_a")
        sb = row.get("seconds_b")
        extras = []
        if row.get("cache"):
            extras.append(f"cache {row['cache']}")
        lines.append(
            f"{row.get('stage', ''):<30} "
            f"{'' if sa is None else f'{sa:.3f}s':>9} "
            f"{'' if sb is None else f'{sb:.3f}s':>9} "
            f"{row.get('delta', 0.0):>+8.3f}s  {row.get('cause', '?')}"
            + (f" ({'; '.join(extras)})" if extras else "")
        )
    lines.append(
        f"{'total':<30} {diff.get('total_seconds_a', 0.0):>8.3f}s "
        f"{diff.get('total_seconds_b', 0.0):>8.3f}s "
        f"{diff.get('total_delta', 0.0):>+8.3f}s"
    )
    return "\n".join(lines)


# -- serve access-log analysis ----------------------------------------------

#: Format tag every ``serve-access/v1`` log line carries.
ACCESS_LOG_FORMAT = "serve-access/v1"


def load_access_log(path: Union[str, Path]) -> Dict[str, Any]:
    """Aggregate a serve access log into a summary document.

    Reads the rotated ``.1`` backup first when present (its lines are
    older), then the live file.  Every line must be a
    ``serve-access/v1`` record; a malformed line raises
    :class:`ValueError` naming the file and line number.  Sampled logs
    (``sample > 1``) report ``estimated_requests`` scaled back up by
    each line's recorded sampling factor — deterministic sampling makes
    that an exact expectation, not a guess.
    """
    path = Path(path)
    sources = [p for p in (path.with_name(path.name + ".1"), path) if p.exists()]
    if not sources:
        raise OSError(f"no access log at {path}")

    lines = 0
    estimated = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    samples: Set[int] = set()
    routes: Dict[str, Dict[str, Any]] = {}
    heat: Dict[int, int] = {}
    for source in sources:
        with source.open(encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{source}:{lineno}: not JSON ({exc.msg})"
                    ) from None
                if record.get("format") != ACCESS_LOG_FORMAT:
                    raise ValueError(
                        f"{source}:{lineno}: not a {ACCESS_LOG_FORMAT} record"
                    )
                lines += 1
                sample = max(1, int(record.get("sample", 1)))
                samples.add(sample)
                estimated += sample
                t = record.get("t")
                if isinstance(t, (int, float)):
                    t_min = t if t_min is None else min(t_min, t)
                    t_max = t if t_max is None else max(t_max, t)
                route = str(record.get("route", "unmatched"))
                row = routes.setdefault(
                    route,
                    {"requests": 0, "errors": 0, "bytes": 0, "latencies": []},
                )
                row["requests"] += 1
                if int(record.get("status", 0)) >= 400:
                    row["errors"] += 1
                row["bytes"] += int(record.get("bytes", 0))
                row["latencies"].append(float(record.get("us", 0.0)))
                asn = record.get("asn")
                if asn is not None:
                    heat[int(asn)] = heat.get(int(asn), 0) + 1

    for row in routes.values():
        latencies = sorted(row.pop("latencies"))
        row["p50_us"] = round(nearest_rank(latencies, 0.50), 1)
        row["p90_us"] = round(nearest_rank(latencies, 0.90), 1)
        row["p99_us"] = round(nearest_rank(latencies, 0.99), 1)
        row["mean_us"] = round(
            sum(latencies) / len(latencies) if latencies else 0.0, 1
        )
    return {
        "lines": lines,
        "estimated_requests": estimated,
        "samples": sorted(samples),
        "span_seconds": (
            round(t_max - t_min, 3)
            if t_min is not None and t_max is not None
            else 0.0
        ),
        "routes": {route: routes[route] for route in sorted(routes)},
        "asn_heat": sorted(heat.items(), key=lambda kv: (-kv[1], kv[0])),
    }


def render_serve_log(summary: Mapping[str, Any], *, top: int = 10) -> str:
    """Human-readable report of a :func:`load_access_log` summary."""
    samples = summary.get("samples") or [1]
    sampled = (
        ""
        if samples == [1]
        else f", 1-in-{'/'.join(str(s) for s in samples)} sampled "
        f"(~{summary.get('estimated_requests', 0)} requests)"
    )
    lines = [
        f"Access log: {summary.get('lines', 0)} lines over "
        f"{summary.get('span_seconds', 0.0):.1f}s{sampled}",
        f"{'route':<28} {'reqs':>7} {'errs':>6} "
        f"{'p50':>9} {'p90':>9} {'p99':>9} {'mean':>9}",
    ]
    for route, row in summary.get("routes", {}).items():
        lines.append(
            f"{route:<28} {row.get('requests', 0):>7} {row.get('errors', 0):>6} "
            f"{row.get('p50_us', 0.0) / 1000:>7.2f}ms "
            f"{row.get('p90_us', 0.0) / 1000:>7.2f}ms "
            f"{row.get('p99_us', 0.0) / 1000:>7.2f}ms "
            f"{row.get('mean_us', 0.0) / 1000:>7.2f}ms"
        )
    heat = list(summary.get("asn_heat", []))[: max(0, top)]
    if heat:
        lines.append(f"top {len(heat)} ASNs by request count:")
        for asn, count in heat:
            lines.append(f"  AS{asn:<12} {count}")
    return "\n".join(lines)
