"""Sensitivity analysis for the BGP inactivity timeout (Fig. 3, App. C).

Figure 3 overlays two curves against the candidate timeout value:

* the CDF of per-ASN activity gaps (what fraction of observed gaps a
  timeout would bridge) — the paper picks 30 days at the knee, covering
  70.1% of gaps;
* the fraction of administrative lifetimes containing at most one
  operational lifetime under that timeout — 83% at 30 days.

Appendix C re-runs the taxonomy under 15/30/50-day timeouts (Table 5);
the helpers here produce the per-timeout lifetime sets that feed it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Mapping, Sequence

from ..asn.numbers import ASN
from ..runtime.observability import MetricsRegistry
from ..timeline.dates import Day
from .bgp import OperationalActivity, build_bgp_lifetimes
from .records import AdminLifetime

__all__ = [
    "gap_distribution",
    "gap_cdf",
    "fraction_one_or_less_op_life",
    "TimeoutSweep",
    "sweep_timeouts",
]


def gap_distribution(
    activities: Mapping[ASN, OperationalActivity], *, min_peers: int = 2
) -> List[int]:
    """All per-ASN activity gap lengths, in days (Fig. 3 red line data)."""
    gaps: List[int] = []
    for activity in activities.values():
        gaps.extend(activity.active_days(min_peers=min_peers).gap_lengths())
    gaps.sort()
    return gaps


def gap_cdf(gaps: Sequence[int], timeout: int) -> float:
    """Fraction of gaps with length <= timeout (a point on the CDF)."""
    if not gaps:
        return 1.0
    return bisect_right(gaps, timeout) / len(gaps)


def fraction_one_or_less_op_life(
    admin_lives: Mapping[ASN, Sequence[AdminLifetime]],
    activities: Mapping[ASN, OperationalActivity],
    *,
    timeout: int,
    end_day: Day,
) -> float:
    """Fraction of administrative lifetimes containing <= 1 operational
    lifetime under the given timeout (Fig. 3 blue dotted line)."""
    total = contained = 0
    op_lives = build_bgp_lifetimes(
        activities, timeout=timeout, end_day=end_day, metrics=MetricsRegistry()
    )
    for asn, lives in admin_lives.items():
        ops = op_lives.get(asn, [])
        for admin in lives:
            total += 1
            inside = sum(
                1 for op in ops if admin.start <= op.start and op.end <= admin.end
            )
            if inside <= 1:
                contained += 1
    if total == 0:
        return 1.0
    return contained / total


@dataclass(frozen=True)
class TimeoutSweep:
    """One row of the sensitivity sweep."""

    timeout: int
    gap_coverage: float
    one_or_less_share: float
    total_op_lifetimes: int


def sweep_timeouts(
    admin_lives: Mapping[ASN, Sequence[AdminLifetime]],
    activities: Mapping[ASN, OperationalActivity],
    timeouts: Sequence[int],
    *,
    end_day: Day,
) -> List[TimeoutSweep]:
    """Evaluate candidate timeouts; feeds Fig. 3 and Table 5."""
    gaps = gap_distribution(activities)
    rows: List[TimeoutSweep] = []
    for timeout in timeouts:
        op_lives = build_bgp_lifetimes(
            activities, timeout=timeout, end_day=end_day, metrics=MetricsRegistry()
        )
        rows.append(
            TimeoutSweep(
                timeout=timeout,
                gap_coverage=gap_cdf(gaps, timeout),
                one_or_less_share=fraction_one_or_less_op_life(
                    admin_lives, activities, timeout=timeout, end_day=end_day
                ),
                total_op_lifetimes=sum(len(v) for v in op_lives.values()),
            )
        )
    return rows
