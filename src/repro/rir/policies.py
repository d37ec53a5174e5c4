"""Per-RIR allocation policies and reporting practices.

Appendix B of the paper documents how the five registries differ in
eligibility, deallocation/reuse, 32-bit rollout, and delegation-file
bookkeeping.  These differences *shape the data*: the §4.1 lifetime
rules branch on them (e.g. the AfriNIC registration-date exception),
and the §5 per-RIR contrasts (reallocation rates, 32-bit ramp-up) only
emerge if the simulated registries behave differently.

The values here are the library's defaults; the world simulator takes a
:class:`RirPolicy` per registry so experiments can ablate any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..timeline.dates import Day, from_iso
from .model import RIR_NAMES

__all__ = ["RirPolicy", "DEFAULT_POLICIES", "default_policy"]


@dataclass(frozen=True)
class RirPolicy:
    """Tunable policy knobs for one registry.

    Attributes
    ----------
    name:
        Registry identifier (``afrinic`` .. ``ripencc``).
    quarantine_days:
        Days an ASN sits in ``reserved`` after deallocation before
        returning to the available pool (§2: "quarantined for some time
        in reserved status").
    keeps_regdate_on_return:
        When a reserved ASN goes back to the *same* organization, every
        RIR except AfriNIC keeps the original registration date (§2).
        AfriNIC issues a fresh date — the §4.1 "AfriNIC exception".
    reclaim_delay_days:
        Median administrative lag between the end of BGP activity and
        deallocation.  The paper (§6.1.1) measures ~6 months for APNIC
        and 10-18 months elsewhere; the simulator draws around this.
    allocation_publish_lag_max:
        Upper bound, in days, of the lag between the registration date
        and the ASN first appearing in the delegation file.  90.1%
        (AfriNIC) to 99.35% (ARIN) of ASNs appear within one day (§4.1
        fn. 6); the tail goes up to this bound.
    same_or_next_day_share:
        The share of allocations that appear in the files within one
        day of registration (drives the lag distribution).
    first_32bit_allocation:
        First day the registry hands out a 32-bit ASN (2007, except a
        first RIPE NCC delegation in December 2006 — App. B).
    default_32bit_from:
        From this day 32-bit numbers are the default unless the
        applicant requests 16-bit (2009 policy change).
    sixteen_bit_share_after_default:
        Fraction of post-default allocations still made from the 16-bit
        pool (ARIN kept ~30% even in 2020; younger RIRs 1-1.7% — §5).
    reuse_preference:
        Probability a new allocation draws from the recycled pool when
        one is available.  ARIN and RIPE NCC re-allocate "significantly
        more than the other RIRs" (§5, Table 2) thanks to their more
        aggressive reuse practices.
    """

    name: str
    quarantine_days: int
    keeps_regdate_on_return: bool
    reclaim_delay_days: int
    allocation_publish_lag_max: int
    same_or_next_day_share: float
    first_32bit_allocation: Day
    default_32bit_from: Day
    sixteen_bit_share_after_default: float
    reuse_preference: float = 0.2

    def __post_init__(self) -> None:
        if self.name not in RIR_NAMES:
            raise ValueError(f"unknown registry {self.name!r}")
        if self.quarantine_days < 1:
            raise ValueError("quarantine_days must be positive")
        if not 0.0 <= self.same_or_next_day_share <= 1.0:
            raise ValueError("same_or_next_day_share must be a fraction")
        if not 0.0 <= self.sixteen_bit_share_after_default <= 1.0:
            raise ValueError("sixteen_bit_share_after_default must be a fraction")
        if not 0.0 <= self.reuse_preference <= 1.0:
            raise ValueError("reuse_preference must be a fraction")
        if self.default_32bit_from < self.first_32bit_allocation:
            raise ValueError("32-bit default precedes first 32-bit allocation")

    def with_overrides(self, **changes) -> "RirPolicy":
        """Copy with some knobs changed (for ablation experiments)."""
        return replace(self, **changes)


def _mk(
    name: str,
    *,
    quarantine_days: int,
    keeps_regdate_on_return: bool,
    reclaim_delay_days: int,
    same_or_next_day_share: float,
    first_32bit: str,
    default_32bit: str,
    sixteen_bit_share_after_default: float,
    reuse_preference: float,
) -> RirPolicy:
    return RirPolicy(
        name=name,
        quarantine_days=quarantine_days,
        keeps_regdate_on_return=keeps_regdate_on_return,
        reclaim_delay_days=reclaim_delay_days,
        allocation_publish_lag_max=30,
        same_or_next_day_share=same_or_next_day_share,
        first_32bit_allocation=from_iso(first_32bit),
        default_32bit_from=from_iso(default_32bit),
        sixteen_bit_share_after_default=sixteen_bit_share_after_default,
        reuse_preference=reuse_preference,
    )


#: Default per-registry policies, mirroring Appendix B.
DEFAULT_POLICIES: Dict[str, RirPolicy] = {
    "afrinic": _mk(
        "afrinic",
        quarantine_days=180,
        keeps_regdate_on_return=False,  # the AfriNIC exception (§4.1)
        reclaim_delay_days=530,  # median ≈ 1.5 years (§6.1.1)
        same_or_next_day_share=0.901,
        first_32bit="2007-04-02",
        default_32bit="2009-07-01",
        sixteen_bit_share_after_default=0.015,
        reuse_preference=0.08,
    ),
    "apnic": _mk(
        "apnic",
        quarantine_days=90,
        keeps_regdate_on_return=True,
        reclaim_delay_days=190,  # median > 6 months (§6.1.1)
        same_or_next_day_share=0.97,
        first_32bit="2007-01-15",
        default_32bit="2009-06-01",  # strict 32-bit policy from mid-2009
        sixteen_bit_share_after_default=0.01,
        reuse_preference=0.12,
    ),
    "arin": _mk(
        "arin",
        quarantine_days=120,
        keeps_regdate_on_return=True,
        reclaim_delay_days=320,
        same_or_next_day_share=0.9935,
        first_32bit="2007-03-01",
        # ARIN only ramps up 32-bit allocations around 2014, years
        # after the other registries (§5, Fig. 12)
        default_32bit="2014-06-01",
        sixteen_bit_share_after_default=0.30,  # ~30% 16-bit still in 2020 (§5)
        reuse_preference=0.85,
    ),
    "lacnic": _mk(
        "lacnic",
        quarantine_days=150,
        keeps_regdate_on_return=True,
        reclaim_delay_days=330,
        same_or_next_day_share=0.96,
        first_32bit="2007-02-01",
        default_32bit="2009-01-01",
        sixteen_bit_share_after_default=0.017,
        reuse_preference=0.03,
    ),
    "ripencc": _mk(
        "ripencc",
        quarantine_days=90,
        keeps_regdate_on_return=True,
        reclaim_delay_days=310,
        same_or_next_day_share=0.98,
        first_32bit="2006-12-12",  # the one 2006 delegation (App. B)
        default_32bit="2009-01-01",
        sixteen_bit_share_after_default=0.08,
        reuse_preference=0.38,
    ),
}


def default_policy(name: str) -> RirPolicy:
    """Return the library default policy for a registry."""
    try:
        return DEFAULT_POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown registry {name!r}") from None
