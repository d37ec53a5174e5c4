"""Dataflow ledger: record-conservation accounting at lossy boundaries.

The paper's credibility rests on record-level accounting — §3.1's
restoration steps and §3.2's sanitization each discard or rewrite rows,
and Tables 1-3 only hold if every dropped record is attributable to a
reason.  This module gives every lossy pipeline boundary a conservation
counter set with one invariant per stage::

    in == kept + Σ dropped_by[reason] + Σ routed_by[class]

``kept`` is the pass-through bucket of a filter stage; ``dropped``
buckets carry the per-reason drop taxonomy (matching
:mod:`repro.bgp.sanitize` for BGP elements); ``routed`` buckets express
partition stages where every input lands in exactly one output class
(the §6 taxonomy: four classes, no pass-through).

Ledger rows are **not** stored in their own structure: every boundary
writes namespaced counters (``ledger.<stage>.in`` /
``ledger.<stage>.out.<bucket>``) into the run's registry (its
:attr:`~repro.runtime.observability.Tracer.metrics`), which every
boundary is handed explicitly — there is no default to fall back on,
so a boundary cannot count into some other run.  The ledger therefore
rides every metrics snapshot for free, and two identical runs produce
byte-identical ledgers (the determinism contract extends to the
accounting).

The closure checker (:func:`check_ledger`, also behind ``repro inspect
ledger --check``) fails on any non-conserving stage — a record that
vanished without a reason, or a reason counter that over-claims.
Because ``in``/``kept`` are measured by *counting records* at the
boundary while drop buckets come from the stage's own semantic
counters, closure is a genuine cross-check, not a tautology.

Counters are cheap (one registry increment per bucket when emitted in
aggregate), but hot loops should accumulate locally and emit once.
Accounting is always on; the overhead benchmark prices it by stubbing
the emitter out.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .observability import MetricsRegistry, write_json_atomic

__all__ = [
    "LEDGER_FORMAT",
    "KEPT_BUCKET",
    "DROPPED_PREFIX",
    "record_boundary",
    "rows_from_counters",
    "build_ledger",
    "write_ledger",
    "load_ledger",
    "check_ledger",
    "render_ledger",
]

#: Format tag of the ``ledger.json`` artifact.
LEDGER_FORMAT = "ledger/v1"

#: The pass-through bucket of a filter boundary.
KEPT_BUCKET = "kept"

#: Drop buckets are named ``dropped:<reason>`` in the counter namespace.
DROPPED_PREFIX = "dropped:"

_COUNTER_PREFIX = "ledger."
_IN_SUFFIX = ".in"
_OUT_MARK = ".out."


def record_boundary(
    stage: str,
    *,
    records_in: int,
    kept: int = 0,
    dropped: Optional[Mapping[str, int]] = None,
    routed: Optional[Mapping[str, int]] = None,
    metrics: MetricsRegistry,
) -> Dict[str, Any]:
    """Emit one boundary's aggregate counts in a single shot.

    Stage names must stay out of the counter separator character
    (``.``); the pipeline uses ``component:stage`` and
    ``restoration/<step>/<registry>`` shapes, both safe.  A zero count
    emits no counter.  Returns a compact summary dict suitable for span
    attributes, so the conservation numbers also land in the exported
    trace.
    """
    if "." in stage:
        raise ValueError(f"ledger stage name may not contain '.': {stage!r}")
    out = f"{_COUNTER_PREFIX}{stage}{_OUT_MARK}"
    counts = [(f"{_COUNTER_PREFIX}{stage}{_IN_SUFFIX}", records_in),
              (out + KEPT_BUCKET, kept)]
    counts += [(out + DROPPED_PREFIX + reason, n)
               for reason, n in sorted((dropped or {}).items())]
    counts += [(out + bucket, n) for bucket, n in sorted((routed or {}).items())]
    for name, n in counts:
        if n:
            metrics.inc(name, n)
    summary: Dict[str, Any] = {"in": int(records_in)}
    if kept:
        summary["kept"] = int(kept)
    if dropped:
        summary["dropped"] = {k: int(v) for k, v in sorted(dropped.items()) if v}
    if routed:
        summary["routed"] = {k: int(v) for k, v in sorted(routed.items()) if v}
    return summary


# -- document assembly ------------------------------------------------------


def rows_from_counters(counters: Mapping[str, int]) -> List[Dict[str, Any]]:
    """Parse ``ledger.*`` counters into per-stage conservation rows.

    Rows are sorted by stage name; each carries ``in``, ``kept``,
    per-reason ``dropped``, partition ``routed``, the derived ``out``
    total and a ``conserved`` verdict, so the document is self-checking.
    """
    stages: Dict[str, Dict[str, Any]] = {}

    def stage_row(stage: str) -> Dict[str, Any]:
        row = stages.get(stage)
        if row is None:
            row = stages[stage] = {
                "stage": stage, "in": 0, "kept": 0,
                "dropped": {}, "routed": {},
            }
        return row

    for name, value in counters.items():
        if not name.startswith(_COUNTER_PREFIX):
            continue
        rest = name[len(_COUNTER_PREFIX):]
        if rest.endswith(_IN_SUFFIX):
            stage_row(rest[: -len(_IN_SUFFIX)])["in"] += int(value)
            continue
        if _OUT_MARK in rest:
            stage, bucket = rest.split(_OUT_MARK, 1)
            row = stage_row(stage)
            if bucket == KEPT_BUCKET:
                row["kept"] += int(value)
            elif bucket.startswith(DROPPED_PREFIX):
                reason = bucket[len(DROPPED_PREFIX):]
                row["dropped"][reason] = row["dropped"].get(reason, 0) + int(value)
            else:
                row["routed"][bucket] = row["routed"].get(bucket, 0) + int(value)

    rows: List[Dict[str, Any]] = []
    for stage in sorted(stages):
        row = stages[stage]
        row["dropped"] = dict(sorted(row["dropped"].items()))
        row["routed"] = dict(sorted(row["routed"].items()))
        row["out"] = (
            row["kept"]
            + sum(row["dropped"].values())
            + sum(row["routed"].values())
        )
        row["conserved"] = row["in"] == row["out"]
        rows.append(row)
    return rows


def build_ledger(source: Union[MetricsRegistry, Mapping[str, Any]]) -> Dict[str, Any]:
    """Assemble the ``ledger/v1`` document from a registry or snapshot.

    ``source`` is the run's :class:`MetricsRegistry` or a
    ``snapshot()`` dict of one.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    rows = rows_from_counters(snapshot.get("counters", {}))
    return {
        "format": LEDGER_FORMAT,
        "stages": rows,
        "conserved": all(row["conserved"] for row in rows),
    }


def write_ledger(path: Union[str, Path], document: Mapping[str, Any]) -> Path:
    """Atomically write a ledger document (see :func:`build_ledger`)."""
    return write_json_atomic(path, dict(document))


def load_ledger(path: Union[str, Path]) -> Dict[str, Any]:
    """Load ``ledger.json`` (accepts the file or its run directory)."""
    path = Path(path)
    if path.is_dir():
        path = path / "ledger.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(document, dict) or document.get("format") != LEDGER_FORMAT:
        raise ValueError(f"{path} is not a {LEDGER_FORMAT} document")
    return document


# -- closure checking and rendering -----------------------------------------


def check_ledger(document: Mapping[str, Any]) -> List[str]:
    """Conservation violations in a ledger document (empty == closed).

    Checks, per stage: non-negative counts, the recorded ``out`` total
    matching its buckets, and the invariant ``in == out``.  The
    top-level ``conserved`` flag must agree with the rows.
    """
    violations: List[str] = []
    if document.get("format") != LEDGER_FORMAT:
        violations.append(
            f"document format is {document.get('format')!r}, "
            f"expected {LEDGER_FORMAT!r}"
        )
        return violations
    rows_conserved = True
    for row in document.get("stages", []):
        stage = row.get("stage", "<unnamed>")
        records_in = int(row.get("in", 0))
        kept = int(row.get("kept", 0))
        dropped = {str(k): int(v) for k, v in row.get("dropped", {}).items()}
        routed = {str(k): int(v) for k, v in row.get("routed", {}).items()}
        for label, value in [("in", records_in), ("kept", kept),
                             *dropped.items(), *routed.items()]:
            if value < 0:
                violations.append(f"{stage}: negative count {label}={value}")
        out = kept + sum(dropped.values()) + sum(routed.values())
        if "out" in row and int(row["out"]) != out:
            violations.append(
                f"{stage}: recorded out={row['out']} but buckets sum to {out}"
            )
        if records_in != out:
            detail = f"kept={kept}"
            if dropped:
                detail += " dropped=" + ",".join(
                    f"{k}:{v}" for k, v in dropped.items()
                )
            if routed:
                detail += " routed=" + ",".join(
                    f"{k}:{v}" for k, v in routed.items()
                )
            violations.append(
                f"{stage}: in={records_in} != out={out} ({detail}); "
                f"{records_in - out:+d} records unaccounted"
            )
            rows_conserved = False
        if bool(row.get("conserved", records_in == out)) != (records_in == out):
            violations.append(f"{stage}: conserved flag contradicts the counts")
    if "conserved" in document and bool(document["conserved"]) != (
        rows_conserved and not violations
    ):
        if bool(document["conserved"]) and not rows_conserved:
            violations.append("document claims conserved=true but rows violate")
    return violations


def render_ledger(document: Mapping[str, Any]) -> str:
    """The conservation table, with per-reason drop percentages.

    These are the numbers behind the paper's Table 1-style accounting:
    every stage's input, what survived, and where every discarded
    record went (share of the stage input per reason/class).
    """
    rows = list(document.get("stages", []))
    lines = [
        f"Dataflow ledger ({document.get('format', LEDGER_FORMAT)}) — "
        f"{len(rows)} stages, "
        + ("all conserving" if document.get("conserved") else "VIOLATIONS"),
        f"{'stage':<44} {'in':>10} {'kept':>10} {'dropped':>9}  verdict",
    ]
    for row in rows:
        records_in = int(row.get("in", 0))
        kept = int(row.get("kept", 0))
        dropped = row.get("dropped", {})
        routed = row.get("routed", {})
        total_dropped = sum(int(v) for v in dropped.values())
        verdict = "ok" if row.get("conserved") else "VIOLATION"
        lines.append(
            f"{row.get('stage', ''):<44} {records_in:>10} {kept:>10} "
            f"{total_dropped:>9}  {verdict}"
        )

        def share(n: int) -> str:
            return f"{n / records_in:.2%}" if records_in else "n/a"

        for reason in sorted(dropped):
            n = int(dropped[reason])
            lines.append(f"  - dropped[{reason}]{'':<24} {n:>10}  ({share(n)})")
        for bucket in sorted(routed):
            n = int(routed[bucket])
            lines.append(f"  - class[{bucket}]{'':<26} {n:>10}  ({share(n)})")
    return "\n".join(lines)
