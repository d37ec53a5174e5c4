"""Scoring the restoration against injected ground truth.

The paper could only describe its repairs; the simulated substrate can
*grade* them.  For each §3.1 defect class this module checks whether
the corresponding repair actually landed, producing per-class recall.
The §3.1 benchmark (``benchmarks/test_sec31_restoration.py``) and
``examples/restoration_audit.py`` grade a world with it, and
``tests/test_pipeline_pinned.py`` pins the per-class counts of every
named scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from ..asn.numbers import ASN
from ..rir.pitfalls import ERX_PLACEHOLDER_DATE, InjectedDefect
from ..timeline.dates import Day
from .pipeline import RestoredDelegations

__all__ = ["DefectScore", "render_scores", "score_restoration"]


@dataclass
class DefectScore:
    """Recall accounting for one defect class."""

    kind: str
    injected: int = 0
    repaired: int = 0
    unverifiable: int = 0

    @property
    def recall(self) -> float:
        checkable = self.injected - self.unverifiable
        if checkable <= 0:
            return 1.0
        return self.repaired / checkable


def score_restoration(
    restored: RestoredDelegations,
    defects: Sequence[InjectedDefect],
    *,
    erx_reference: Mapping[ASN, Day] | None = None,
) -> Dict[str, DefectScore]:
    """Grade the restored data against the injected defect log.

    Verifiable classes:

    * ``duplicate_record`` — no overlapping rows may survive for the ASN;
    * ``placeholder_regdate`` — no stint may still carry 1993-09-01;
    * ``future_regdate`` — no delegated stint may date later than its start;
    * ``mistaken_allocation`` — the culprit registry's rows must be gone;
    * ``stale_transfer_record`` — the origin's delegated rows must end
      before the destination's first delegated row at or after the
      transfer day (before the transfer day itself when no such row
      exists);
    * ``record_drop`` / file-level defects have no per-ASN identity in
      the log and are graded by the boundary-accuracy benchmarks
      instead (counted here as unverifiable).
    """
    erx_reference = erx_reference or {}
    scores: Dict[str, DefectScore] = {}

    def bucket(kind: str) -> DefectScore:
        if kind not in scores:
            scores[kind] = DefectScore(kind=kind)
        return scores[kind]

    for defect in defects:
        score = bucket(defect.kind)
        score.injected += 1
        if defect.asn is None:
            score.unverifiable += 1
            continue
        stints = restored.stints.get(defect.asn, [])
        if defect.kind == "duplicate_record":
            overlap = any(
                a.interval.overlaps(b.interval)
                for a, b in zip(stints, stints[1:])
            )
            if not overlap:
                score.repaired += 1
        elif defect.kind == "placeholder_regdate":
            if defect.asn not in erx_reference:
                score.unverifiable += 1
                continue
            clean = all(
                s.record.reg_date != ERX_PLACEHOLDER_DATE
                for s in stints
                if s.record.is_delegated
            )
            if clean:
                score.repaired += 1
        elif defect.kind == "future_regdate":
            clean = all(
                s.record.reg_date is None or s.record.reg_date <= s.start
                for s in stints
                if s.record.is_delegated
            )
            if clean:
                score.repaired += 1
        elif defect.kind == "mistaken_allocation":
            culprit = defect.source[0] if defect.source else None
            gone = all(
                s.record.registry != culprit or not s.record.is_delegated
                or not (defect.span and s.interval.overlaps(defect.span))
                for s in stints
            )
            if gone:
                score.repaired += 1
        elif defect.kind == "stale_transfer_record":
            origin = defect.source[0] if defect.source else None
            transfer_day = defect.span.start if defect.span else 0
            arrivals = [
                s.start for s in stints
                if s.record.registry != origin
                and s.record.is_delegated
                and s.start >= transfer_day
            ]
            cutoff = min(arrivals, default=transfer_day)
            stale_remaining = any(
                s.record.registry == origin
                and s.record.is_delegated
                and s.end >= cutoff
                for s in stints
            )
            if not stale_remaining:
                score.repaired += 1
        else:
            score.unverifiable += 1
    return scores


def render_scores(scores: Mapping[str, DefectScore]) -> str:
    """Human-readable per-class recall table; ``n/a`` marks classes
    with nothing checkable."""
    lines = [f"{'defect class':28s} {'injected':>8s} {'repaired':>8s} {'recall':>7s}"]
    for kind in sorted(scores):
        s = scores[kind]
        recall = "n/a" if s.injected == s.unverifiable else f"{s.recall:.0%}"
        lines.append(
            f"{kind:28s} {s.injected:8d} {s.repaired:8d} {recall:>7s}"
        )
    return "\n".join(lines)
