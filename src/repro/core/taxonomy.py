"""The paper's four-category taxonomy of joint behaviors (§6, Fig. 6).

Every administrative lifetime falls into exactly one of:

1. **complete overlap** — at least one operational lifetime overlaps it
   and every overlapping operational lifetime is fully contained;
2. **partial overlap** — an overlapping operational lifetime starts
   before and/or ends after it;
3. **unused** — no operational lifetime overlaps it at all.

Operational lifetimes are classified symmetrically, with the fourth
category:

4. **outside delegation** — the operational lifetime overlaps no
   administrative lifetime of its ASN (including ASNs never delegated
   at all).

Table 3 reports the resulting counts; Table 5 re-reports them under
different inactivity timeouts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from ..asn.numbers import ASN
from ..lifetimes.records import AdminLifetime, BgpLifetime
from ..runtime.ledger import record_boundary
from ..runtime.observability import MetricsRegistry

__all__ = ["Category", "TaxonomyResult", "classify"]


class Category(enum.Enum):
    """Joint admin/operational behavior category."""

    COMPLETE_OVERLAP = "complete_overlap"
    PARTIAL_OVERLAP = "partial_overlap"
    UNUSED = "unused"
    OUTSIDE_DELEGATION = "outside_delegation"


@dataclass
class TaxonomyResult:
    """Per-lifetime assignments plus the Table 3 aggregate counts."""

    admin_assignment: Dict[Tuple[ASN, int], Category] = field(default_factory=dict)
    op_assignment: Dict[Tuple[ASN, int], Category] = field(default_factory=dict)
    admin_counts: Dict[Category, int] = field(default_factory=dict)
    op_counts: Dict[Category, int] = field(default_factory=dict)

    def admin_lives_in(
        self, category: Category, lives: Mapping[ASN, Sequence[AdminLifetime]]
    ) -> List[AdminLifetime]:
        """Materialize the administrative lifetimes of one category."""
        out = []
        for (asn, index), assigned in self.admin_assignment.items():
            if assigned is category:
                out.append(lives[asn][index])
        out.sort(key=lambda l: (l.asn, l.start))
        return out

    def op_lives_in(
        self, category: Category, lives: Mapping[ASN, Sequence[BgpLifetime]]
    ) -> List[BgpLifetime]:
        """Materialize the operational lifetimes of one category."""
        out = []
        for (asn, index), assigned in self.op_assignment.items():
            if assigned is category:
                out.append(lives[asn][index])
        out.sort(key=lambda l: (l.asn, l.start))
        return out

    def table3_rows(self) -> List[Tuple[str, int, int]]:
        """(category, admin lives, op lives) rows in paper order."""
        rows = []
        for category in (
            Category.COMPLETE_OVERLAP,
            Category.PARTIAL_OVERLAP,
            Category.UNUSED,
            Category.OUTSIDE_DELEGATION,
        ):
            rows.append(
                (
                    category.value,
                    self.admin_counts.get(category, 0),
                    self.op_counts.get(category, 0),
                )
            )
        return rows

    def totals(self) -> Tuple[int, int]:
        return sum(self.admin_counts.values()), sum(self.op_counts.values())


def classify(
    admin_lives: Mapping[ASN, Sequence[AdminLifetime]],
    op_lives: Mapping[ASN, Sequence[BgpLifetime]],
    *,
    metrics: MetricsRegistry,
) -> TaxonomyResult:
    """Assign every lifetime of both kinds to its taxonomy category.

    Classification is a partition — each lifetime lands in exactly one
    category — and the dataflow ledger holds it to that: the
    ``taxonomy:admin``/``taxonomy:op`` boundaries route independently
    counted lifetime totals into the per-category counts, so a skipped
    or double-assigned lifetime fails the closure check.
    """
    result = TaxonomyResult()

    for asn, lives in admin_lives.items():
        ops = op_lives.get(asn, ())
        for index, admin in enumerate(lives):
            overlapping = [op for op in ops if op.interval.overlaps(admin.interval)]
            if not overlapping:
                category = Category.UNUSED
            elif all(
                admin.interval.contains_interval(op.interval) for op in overlapping
            ):
                category = Category.COMPLETE_OVERLAP
            else:
                category = Category.PARTIAL_OVERLAP
            result.admin_assignment[(asn, index)] = category
            result.admin_counts[category] = result.admin_counts.get(category, 0) + 1

    for asn, ops in op_lives.items():
        admins = admin_lives.get(asn, ())
        for index, op in enumerate(ops):
            overlapping = [
                admin for admin in admins if admin.interval.overlaps(op.interval)
            ]
            if not overlapping:
                category = Category.OUTSIDE_DELEGATION
            elif any(
                admin.interval.contains_interval(op.interval) for admin in overlapping
            ):
                category = Category.COMPLETE_OVERLAP
            else:
                category = Category.PARTIAL_OVERLAP
            result.op_assignment[(asn, index)] = category
            result.op_counts[category] = result.op_counts.get(category, 0) + 1

    # `records_in` counts the input mappings directly — independent of
    # the assignment bookkeeping the category counts come from
    record_boundary(
        "taxonomy:admin",
        records_in=sum(len(lives) for lives in admin_lives.values()),
        routed={c.value: n for c, n in result.admin_counts.items()},
        metrics=metrics,
    )
    record_boundary(
        "taxonomy:op",
        records_in=sum(len(ops) for ops in op_lives.values()),
        routed={c.value: n for c, n in result.op_counts.items()},
        metrics=metrics,
    )
    return result
