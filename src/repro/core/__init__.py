"""The paper's primary contribution: joint analysis of administrative
and operational ASN lifetimes (§5, §6)."""

from .features import (
    FEATURE_NAMES,
    LifeFeatures,
    extract_features,
    rank_by_suspicion,
    suspicion_score,
)
from .joint import JointAnalysis
from .report import render_report
from .roles import (
    Role,
    RoleActivity,
    classify_role,
    collect_role_activity,
    role_census,
)
from .misconfig import (
    MisconfigClass,
    PathEvidence,
    classify_all,
    classify_suspect,
    collect_path_evidence,
)
from .partial import PartialOverlapStats, analyze_partial_overlaps
from .squatting import (
    DEFAULT_DORMANCY_DAYS,
    DEFAULT_RELATIVE_DURATION,
    SquattingCandidate,
    detect_dormant_squatting,
    score_against_truth,
)
from .taxonomy import Category, TaxonomyResult, classify
from .trends import (
    DailySeries,
    alive_bgp_counts_by_registry,
    alive_counts,
    alive_counts_by_registry,
    bit_class_counts,
    cdf_at,
    country_shares,
    crossover_day,
    duration_by_birth_year,
    duration_cdf,
    lives_per_asn_table,
    quarterly_balance,
    quarterly_birth_rate,
)
from .unallocated import (
    OutsideDelegationStats,
    PostDeallocCandidate,
    analyze_outside_delegation,
)
from .unused import UnusedLivesStats, analyze_unused_lives
from .utilization import UtilizationStats, analyze_utilization, utilization_of

__all__ = [
    "JointAnalysis",
    "Category",
    "TaxonomyResult",
    "classify",
    "DailySeries",
    "alive_counts",
    "alive_counts_by_registry",
    "alive_bgp_counts_by_registry",
    "crossover_day",
    "lives_per_asn_table",
    "duration_cdf",
    "cdf_at",
    "quarterly_birth_rate",
    "quarterly_balance",
    "bit_class_counts",
    "duration_by_birth_year",
    "country_shares",
    "UtilizationStats",
    "analyze_utilization",
    "utilization_of",
    "SquattingCandidate",
    "detect_dormant_squatting",
    "score_against_truth",
    "DEFAULT_DORMANCY_DAYS",
    "DEFAULT_RELATIVE_DURATION",
    "PartialOverlapStats",
    "analyze_partial_overlaps",
    "UnusedLivesStats",
    "analyze_unused_lives",
    "OutsideDelegationStats",
    "PostDeallocCandidate",
    "analyze_outside_delegation",
    "MisconfigClass",
    "PathEvidence",
    "classify_suspect",
    "classify_all",
    "collect_path_evidence",
    "FEATURE_NAMES",
    "LifeFeatures",
    "extract_features",
    "suspicion_score",
    "rank_by_suspicion",
    "render_report",
    "Role",
    "RoleActivity",
    "collect_role_activity",
    "classify_role",
    "role_census",
]
