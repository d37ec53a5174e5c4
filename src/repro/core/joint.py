"""Facade bundling the full joint analysis of §5-§6.

:class:`JointAnalysis` takes the two lifetime datasets (plus the
optional context each sub-analysis can exploit: the AS topology for
customer cones, the organization→ASNs sibling map, the anomaly ground
truth) and lazily computes every result the paper reports.  Examples
and benchmarks go through this single entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence

from ..asn.numbers import ASN
from ..bgp.anomalies import AnomalyEvent
from ..bgp.topology import AsTopology
from ..lifetimes.records import AdminLifetime, BgpLifetime
from ..runtime.observability import MetricsRegistry
from ..timeline.dates import Day
from .partial import PartialOverlapStats, analyze_partial_overlaps
from .squatting import (
    SquattingCandidate,
    detect_dormant_squatting,
    score_against_truth,
)
from .taxonomy import Category, TaxonomyResult, classify
from .unallocated import OutsideDelegationStats, analyze_outside_delegation
from .unused import UnusedLivesStats, analyze_unused_lives
from .utilization import UtilizationStats, analyze_utilization

__all__ = ["JointAnalysis"]


@dataclass
class JointAnalysis:
    """One-stop joint analysis over a pair of lifetime datasets.

    ``metrics`` receives the ``taxonomy:*`` ledger rows: a pipeline run
    passes its tracer's registry, a stand-alone analysis keeps its own.
    """

    admin_lives: Mapping[ASN, Sequence[AdminLifetime]]
    op_lives: Mapping[ASN, Sequence[BgpLifetime]]
    end_day: Day
    topology: Optional[AsTopology] = None
    siblings: Optional[Mapping[str, Sequence[ASN]]] = None
    truth: Sequence[AnomalyEvent] = field(default_factory=tuple)
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, compare=False, repr=False
    )

    @cached_property
    def taxonomy(self) -> TaxonomyResult:
        """Table 3 / Fig. 6 classification."""
        return classify(self.admin_lives, self.op_lives, metrics=self.metrics)

    @cached_property
    def utilization(self) -> UtilizationStats:
        """§6.1.1 utilization and delay statistics (Fig. 7)."""
        return analyze_utilization(self.admin_lives, self.op_lives)

    @cached_property
    def partial(self) -> PartialOverlapStats:
        """§6.2 dangling announcements and late allocations."""
        return analyze_partial_overlaps(
            self.admin_lives, self.op_lives, topology=self.topology
        )

    @cached_property
    def unused(self) -> UnusedLivesStats:
        """§6.3 allocated-but-unobserved analysis (Fig. 9)."""
        return analyze_unused_lives(
            self.admin_lives, self.op_lives, siblings=self.siblings
        )

    @cached_property
    def outside(self) -> OutsideDelegationStats:
        """§6.4 operational lives without allocation."""
        return analyze_outside_delegation(self.admin_lives, self.op_lives)

    @cached_property
    def squatting_candidates(self) -> List[SquattingCandidate]:
        """§6.1.2 dormant-squat detector output."""
        return detect_dormant_squatting(self.admin_lives, self.op_lives)

    def squatting_score(self) -> Dict[str, float]:
        """Detector recall/precision against the injected ground truth."""
        return score_against_truth(self.squatting_candidates, self.truth)

    # -- convenience counts --------------------------------------------------

    def total_admin_lifetimes(self) -> int:
        return sum(len(v) for v in self.admin_lives.values())

    def total_op_lifetimes(self) -> int:
        return sum(len(v) for v in self.op_lives.values())

    def total_admin_asns(self) -> int:
        return len(self.admin_lives)

    def total_op_asns(self) -> int:
        return len(self.op_lives)

    def category_share_admin(self, category: Category) -> float:
        total = self.total_admin_lifetimes()
        if not total:
            return 0.0
        return self.taxonomy.admin_counts.get(category, 0) / total

    def summary(self) -> Dict[str, float]:
        """Headline numbers, shaped after the paper's abstract/§6."""
        return {
            "admin_lifetimes": self.total_admin_lifetimes(),
            "admin_asns": self.total_admin_asns(),
            "op_lifetimes": self.total_op_lifetimes(),
            "op_asns": self.total_op_asns(),
            "complete_overlap_share": self.category_share_admin(
                Category.COMPLETE_OVERLAP
            ),
            "partial_overlap_share": self.category_share_admin(
                Category.PARTIAL_OVERLAP
            ),
            "unused_share": self.category_share_admin(Category.UNUSED),
            "outside_op_lives": float(self.outside.outside_op_lives),
            "squatting_candidates": float(len(self.squatting_candidates)),
        }
