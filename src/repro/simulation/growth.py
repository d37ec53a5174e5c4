"""Per-RIR allocation volumes and lifetime-length distributions.

The yearly birth volumes below (at scale 1.0) are read off the paper's
Fig. 4/10/11: RIPE NCC grows fastest from the very start of the window
and overtakes ARIN; ARIN's intake declines slowly; APNIC and LACNIC
explode around 2014; AfriNIC stays an order of magnitude smaller.  The
death model reproduces the §5 finding that a noticeable share of lives
end within a year (LACNIC 13% … ARIN 6%) while most survive for many
years or to the end of the window.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from ..timeline.dates import Day, year_of

__all__ = [
    "yearly_births",
    "yearly_birth_rate",
    "daily_birth_rate",
    "poisson",
    "draw_lifetime_days",
    "SHORT_LIFE_SHARE",
]

#: New allocations per year per registry at scale 1.0 (paper-shaped).
_YEARLY_BIRTHS: Dict[str, Dict[int, int]] = {
    "ripencc": {
        2003: 1800, 2005: 2300, 2007: 2800, 2009: 3100, 2011: 3400,
        2013: 3300, 2015: 2800, 2017: 2500, 2019: 2300,
    },
    "arin": {
        2003: 2300, 2005: 2200, 2007: 2100, 2009: 1900, 2011: 1700,
        2013: 1500, 2015: 1400, 2017: 1300, 2019: 1200,
    },
    "apnic": {
        2003: 550, 2005: 650, 2007: 750, 2009: 850, 2011: 1000,
        2013: 1300, 2015: 1900, 2017: 2000, 2019: 1900,
    },
    "lacnic": {
        2003: 260, 2005: 320, 2007: 420, 2009: 520, 2011: 700,
        2013: 1100, 2015: 1900, 2017: 2000, 2019: 1800,
    },
    "afrinic": {
        2003: 0, 2005: 90, 2007: 120, 2009: 150, 2011: 190,
        2013: 230, 2015: 270, 2017: 300, 2019: 310,
    },
}

#: Share of lives lasting under a year, per registry (§5 / Fig. 5).
SHORT_LIFE_SHARE: Dict[str, float] = {
    "lacnic": 0.13,
    "apnic": 0.11,
    "afrinic": 0.09,
    "ripencc": 0.08,
    "arin": 0.06,
}

#: Share of lives ending after 1-12 years.  ARIN's out-of-compliance
#: reclaims (App. B) make it the registry with the most mid-life
#: deaths, feeding its outsized re-allocation rate (Table 2).
MID_LIFE_DEATH_SHARE: Dict[str, float] = {
    "lacnic": 0.18,
    "apnic": 0.20,
    "afrinic": 0.18,
    "ripencc": 0.26,
    "arin": 0.34,
}


def yearly_births(registry: str, year: int) -> int:
    """Paper-scale new allocations for one registry-year."""
    table = _YEARLY_BIRTHS[registry]
    best = 0
    for anchor_year in sorted(table):
        if year >= anchor_year:
            best = table[anchor_year]
    return best


def yearly_birth_rate(registry: str, year: int, scale: float) -> float:
    """Expected allocations on any one day of ``year`` (Poisson intensity)."""
    return yearly_births(registry, year) * scale / 365.25


def daily_birth_rate(registry: str, day: Day, scale: float) -> float:
    """Expected allocations on one day (Poisson intensity)."""
    return yearly_birth_rate(registry, year_of(day), scale)


def poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler — adequate for the small intensities here."""
    if lam <= 0:
        return 0
    limit = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def draw_lifetime_days(
    registry: str, rng: random.Random, *, days_remaining: int
) -> Optional[int]:
    """Planned administrative lifetime length, or ``None`` for a life
    intended to outlast the observation window.

    A mixture: ``SHORT_LIFE_SHARE`` of lives die within a year (30-365
    days, uniform), a further slice dies after 1-12 years (exponential
    flavor), and the remainder never ends inside the window.  Lives
    whose drawn length exceeds the remaining window are treated as
    open-ended, which naturally right-censors late cohorts exactly as
    the paper's Fig. 14 shows.
    """
    roll = rng.random()
    short_share = SHORT_LIFE_SHARE[registry]
    if roll < short_share:
        length = rng.randint(30, 365)
    elif roll < short_share + MID_LIFE_DEATH_SHARE[registry]:
        length = int(rng.expovariate(1.0 / (365 * 4))) + 366
    else:
        return None
    if length >= days_remaining:
        return None
    return length
