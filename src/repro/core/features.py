"""Joint-lens feature extraction for detection pipelines.

§6.1.2 concludes that the compound administrative/operational lens
"could provide additional classification features for machine-learning
based detection approaches" (e.g. on top of Testart et al.'s serial-
hijacker characterisation).  This module extracts exactly those features —
one vector per operational lifetime, combining both dimensions — and
ships a transparent reference scorer so the benchmark can measure how
much the administrative dimension adds over BGP-only features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from ..asn.numbers import ASN, is_32bit_only
from ..lifetimes.records import AdminLifetime, BgpLifetime

__all__ = [
    "FEATURE_NAMES",
    "LifeFeatures",
    "extract_features",
    "suspicion_score",
    "rank_by_suspicion",
]

#: Order of the numeric feature vector (see :meth:`LifeFeatures.vector`).
FEATURE_NAMES: Tuple[str, ...] = (
    "op_duration",
    "dormancy_before",
    "relative_duration",
    "admin_duration",
    "inside_allocation",
    "after_deallocation",
    "never_allocated",
    "op_life_index",
    "op_life_count",
    "admin_life_count",
    "is_32bit",
    "days_from_admin_start",
    "days_to_admin_end",
)


@dataclass(frozen=True)
class LifeFeatures:
    """The joint-lens features of one operational lifetime."""

    asn: ASN
    op_start: int
    op_duration: int
    dormancy_before: int
    relative_duration: float
    admin_duration: int
    inside_allocation: bool
    after_deallocation: bool
    never_allocated: bool
    op_life_index: int
    op_life_count: int
    admin_life_count: int
    is_32bit: bool
    days_from_admin_start: int
    days_to_admin_end: int

    def vector(self) -> np.ndarray:
        """Numeric vector in :data:`FEATURE_NAMES` order."""
        return np.array(
            [
                self.op_duration,
                self.dormancy_before,
                self.relative_duration,
                self.admin_duration,
                float(self.inside_allocation),
                float(self.after_deallocation),
                float(self.never_allocated),
                self.op_life_index,
                self.op_life_count,
                self.admin_life_count,
                float(self.is_32bit),
                self.days_from_admin_start,
                self.days_to_admin_end,
            ],
            dtype=np.float64,
        )


def extract_features(
    admin_lives: Mapping[ASN, Sequence[AdminLifetime]],
    op_lives: Mapping[ASN, Sequence[BgpLifetime]],
    *,
    end_day: int,
) -> List[LifeFeatures]:
    """One feature row per operational lifetime, for every active ASN."""
    rows: List[LifeFeatures] = []
    for asn, ops in op_lives.items():
        admins = sorted(admin_lives.get(asn, ()), key=lambda a: a.start)
        ordered = sorted(ops, key=lambda o: o.start)
        for index, op in enumerate(ordered):
            containing = next(
                (a for a in admins if a.interval.contains_interval(op.interval)),
                None,
            )
            ended_before = [a for a in admins if a.end < op.start]
            if containing is not None:
                previous_ops = [
                    o for o in ordered if o.end < op.start
                    and containing.interval.contains_interval(o.interval)
                ]
                since = (
                    previous_ops[-1].end + 1 if previous_ops else containing.start
                )
                dormancy = op.start - since
                admin_duration = containing.duration
                relative = op.duration / admin_duration
                from_start = op.start - containing.start
                to_end = containing.end - op.end
            else:
                dormancy = (
                    op.start - max(a.end for a in ended_before)
                    if ended_before
                    else 0
                )
                admin_duration = 0
                relative = 0.0
                from_start = 0
                to_end = 0
            rows.append(
                LifeFeatures(
                    asn=asn,
                    op_start=op.start,
                    op_duration=op.duration,
                    dormancy_before=max(dormancy, 0),
                    relative_duration=relative,
                    admin_duration=admin_duration,
                    inside_allocation=containing is not None,
                    after_deallocation=containing is None and bool(ended_before),
                    never_allocated=not admins,
                    op_life_index=index,
                    op_life_count=len(ordered),
                    admin_life_count=len(admins),
                    is_32bit=is_32bit_only(asn),
                    days_from_admin_start=max(from_start, 0),
                    days_to_admin_end=max(to_end, 0),
                )
            )
    rows.sort(key=lambda r: (r.asn, r.op_start))
    return rows


def suspicion_score(
    features: LifeFeatures,
    *,
    use_admin_dimension: bool = True,
) -> float:
    """A transparent 0..1 reference scorer over the feature vector.

    Not a trained model — a monotone combination of the signals §6
    identifies: long dormancy then a short burst, activity right after
    deallocation, never-allocated origins.  With
    ``use_admin_dimension=False`` only the BGP-side features remain,
    quantifying what the administrative lens contributes.
    """
    score = 0.0
    # BGP-only signals: short, late, isolated bursts
    if features.op_duration <= 45:
        score += 0.2
    if features.op_life_count == 1 and features.op_duration <= 45:
        score += 0.1
    if not use_admin_dimension:
        return min(score, 1.0)
    # joint-lens signals
    if features.never_allocated:
        score += 0.35
    if features.after_deallocation and features.dormancy_before >= 1000:
        score += 0.45
    if (
        features.inside_allocation
        and features.dormancy_before >= 1000
        and features.relative_duration <= 0.05
    ):
        score += 0.5
    return min(score, 1.0)


def rank_by_suspicion(
    rows: Sequence[LifeFeatures],
    *,
    use_admin_dimension: bool = True,
) -> List[Tuple[float, LifeFeatures]]:
    """Rows ranked most-suspicious first (stable on ties)."""
    scored = [
        (suspicion_score(row, use_admin_dimension=use_admin_dimension), row)
        for row in rows
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1].asn, pair[1].op_start))
    return scored
