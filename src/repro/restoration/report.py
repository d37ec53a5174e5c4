"""Reporting structures for the restoration pipeline.

Each §3.1 step reports what it changed — the paper quantifies its
restoration ("157 occurrences" of gap fills, "1.8% of the days" with
same-day divergence, "some 450 ASNs" with inter-RIR overlaps, >800
placeholder dates) and so do we.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["StepReport", "RestorationReport"]


@dataclass
class StepReport:
    """Counters and free-form notes for one restoration step."""

    step: str
    counts: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def note(self, text: str) -> None:
        self.notes.append(text)

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class RestorationReport:
    """All step reports of one pipeline run, in execution order."""

    steps: List[StepReport] = field(default_factory=list)

    def step(self, name: str) -> StepReport:
        """Get-or-create the report for a named step."""
        for report in self.steps:
            if report.step == name:
                return report
        report = StepReport(step=name)
        self.steps.append(report)
        return report

    def merge(self, other: "RestorationReport") -> None:
        """Fold another report's counters and notes into this one.

        Used by the restoration driver: each registry's steps fill a
        private report, and the driver merges them in sorted-registry
        order — reproducing exactly the counter layout a step-major
        run would have produced (every step iterates registries in
        sorted order too).
        """
        for report in other.steps:
            mine = self.step(report.step)
            for key, value in report.counts.items():
                mine.bump(key, value)
            mine.notes.extend(report.notes)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """step name → counter dict, for printing and assertions."""
        return {report.step: dict(report.counts) for report in self.steps}

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = ["Restoration report", "=" * 19]
        for report in self.steps:
            lines.append(f"[{report.step}]")
            for key in sorted(report.counts):
                lines.append(f"  {key}: {report.counts[key]}")
            for note in report.notes[:10]:
                lines.append(f"  - {note}")
        return "\n".join(lines)
