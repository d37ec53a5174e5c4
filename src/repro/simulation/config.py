"""World-simulation configuration.

A :class:`WorldConfig` fixes everything about a synthetic 17-year
world: the observation window, the scale factor (fraction of the
paper's real-world allocation volumes), behavioral rates, and anomaly
counts.  Two presets cover the common cases: :func:`tiny` for unit and
integration tests (seconds), :func:`bench` for the benchmark harness
(tens of seconds, large enough for distribution shapes to stabilize).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Tuple

from ..timeline.dates import Day, from_iso

__all__ = ["UnknownConfigKeyError", "WorldConfig", "tiny", "bench"]

#: Topology construction recipes understood by the world simulator
#: (see :mod:`repro.bgp.topology`).
TOPOLOGY_RECIPES = ("transit-hierarchy", "ixp-heavy", "regional")


class UnknownConfigKeyError(TypeError):
    """A mapping handed to :meth:`WorldConfig.from_dict` carried keys
    that are not ``WorldConfig`` fields.

    Scenario files and manifest fingerprints are the usual sources;
    silently dropping their unknown keys would turn typos into
    mysteriously-default worlds, so the error names every bad key.
    """

    def __init__(self, keys: Tuple[str, ...]) -> None:
        self.keys = tuple(sorted(keys))
        names = ", ".join(repr(k) for k in self.keys)
        super().__init__(f"unknown WorldConfig key(s): {names}")


@dataclass(frozen=True)
class WorldConfig:
    """All knobs of the world simulator.

    ``scale`` multiplies the paper-scale allocation volumes (~107k
    lifetimes at 1.0).  Scale 0.05 yields roughly 5k lifetimes — large
    enough for every distribution the benchmarks reproduce.
    """

    seed: int = 0
    #: First simulated day (just before the first delegation files).
    start_day: Day = from_iso("2003-10-01")
    #: Last simulated day (the paper's cut-off).
    end_day: Day = from_iso("2021-03-01")
    #: Fraction of paper-scale allocation volume.
    scale: float = 0.05

    # -- administrative behavior ------------------------------------------
    #: Number of pre-window ("historical") allocations at scale 1.0,
    #: split across ARIN/RIPE/APNIC; reg dates reach back to 1992.
    #: ARIN (as InterNIC's heir) holds the lion's share, so that after
    #: the ERX transfers it still leads RIPE NCC by the ~10k ASNs the
    #: paper observes in 2004 (§5).
    historical_allocations: int = 30_000
    #: ERX transfers out of ARIN at scale 1.0 (paper: 5,026 + 204).
    erx_transfers: int = 5_230
    #: Ordinary inter-RIR transfers at scale 1.0 (paper: 342).
    inter_rir_transfers: int = 342
    #: Probability a new allocation joins an existing organization.
    sibling_probability: float = 0.15
    #: Hoarder organizations (many ASNs, mostly unused) at scale 1.0.
    hoarder_orgs: int = 40
    #: ASNs per hoarder organization (min, max).
    hoarder_asns: Tuple[int, int] = (15, 120)
    #: Share of ended lives whose ASN is later reported with a
    #: registration-date administrative correction.
    regdate_correction_rate: float = 0.002
    #: ASNs per APNIC NIR block allocation (min, max).
    nir_block_size: Tuple[int, int] = (4, 16)
    #: Share of post-default 32-bit allocations that fail operationally:
    #: the ASN is returned within a month, never used, and the same
    #: organization receives a 16-bit ASN shortly after (§6.3: 86% of
    #: ARIN's short-lived unused 32-bit allocations show this pattern).
    failed_32bit_rate: float = 0.025

    # -- operational behavior ----------------------------------------------
    #: Baseline probability an allocated ASN never shows up in BGP.
    unused_probability: float = 0.12
    #: Per-country multipliers on the unused probability (China's
    #: visibility gap, Russia's unusually full usage, France's sibling
    #: hoarding — §6.3).
    unused_country_multiplier: Dict[str, float] = field(
        default_factory=lambda: {"CN": 4.2, "RU": 0.5, "FR": 1.8}
    )
    #: Probability an unused-profile hoarder ASN is used anyway.
    hoarder_used_probability: float = 0.3
    #: Median days from allocation to first BGP activity (per §6.1.1,
    #: "greater than a month for all RIRs").
    median_start_delay: int = 38
    #: Expected intra-life activity gaps per 800 allocated days.  Kept
    #: low so that ~84% of complete-overlap lives hold a single
    #: operational life (§6.1.1) — the Fig. 3 gap CDF still lands near
    #: 70% at 30 days because conference networks contribute many long
    #: gaps.
    gap_rate_per_800_days: float = 0.25
    #: Share of intra-life gaps that stay within 30 days (Fig. 3 knee).
    short_gap_share: float = 0.80
    #: Share of ended lives with dangling announcements (§6.2; tuned so
    #: dangling is ~64% of the partial-overlap category as in the paper).
    dangling_rate: float = 0.075
    #: Share of lives whose BGP activity starts days before the
    #: allocation is published (§6.2 late allocations).
    early_start_rate: float = 0.010
    #: Share of ended lives with a detached "ghost burst" of activity
    #: well after deallocation (stuck routes / stale configs) — the
    #: §6.4 once-allocated-outside population.
    ghost_burst_rate: float = 0.018
    #: Share of ASNs with spurious single-peer observations.
    spurious_rate: float = 0.01
    #: Share of active ASNs with conference-network style periodic
    #: activity (>10 operational lives — §6.1.1 sporadic use).
    sporadic_rate: float = 0.003

    # -- anomalies (absolute counts at scale 1.0) ---------------------------
    dormant_squat_events: int = 60
    post_dealloc_squat_events: int = 9
    fat_finger_prepend_events: int = 196
    fat_finger_digit_events: int = 62
    internal_leak_events: int = 25
    #: Unexplained never-allocated origins (the bulk of the paper's 868).
    noise_origin_events: int = 585

    # -- infrastructure ------------------------------------------------------
    routeviews_collectors: int = 3
    ris_collectors: int = 3
    peers_per_collector: int = 6

    # -- topology recipe -----------------------------------------------------
    #: How the AS graph is wired (see ``repro.bgp.topology``):
    #: ``transit-hierarchy`` is the classic three-tier Internet,
    #: ``ixp-heavy`` a flat exchange-dominated mesh, ``regional`` a set
    #: of loosely-interconnected regional islands.
    topology_recipe: str = "transit-hierarchy"
    #: Tier-1 clique size (``transit-hierarchy``/``ixp-heavy``) or
    #: hub count per region (``regional``).
    tier1_count: int = 8
    #: Fraction of ASes acting as mid-tier transit providers.
    transit_share: float = 0.12
    #: Lateral peering probability between transits / IXP co-members.
    peering_prob: float = 0.08
    #: Probability a stub multi-homes to a second provider.
    stub_extra_provider_prob: float = 0.35
    #: Internet exchanges in the ``ixp-heavy`` recipe.
    ixp_count: int = 4
    #: Regional islands in the ``regional`` recipe.
    regional_clusters: int = 4

    # -- regional growth -----------------------------------------------------
    #: Per-registry multipliers on the paper-shaped daily birth rates
    #: (missing registries default to 1.0) — the lever for regional
    #: scenarios that concentrate growth in one part of the world.
    birth_rate_multiplier: Dict[str, float] = field(default_factory=dict)

    def scaled(self, value: float) -> int:
        """Apply the scale factor, keeping at least 1 for positive input."""
        if value <= 0:
            return 0
        return max(1, round(value * self.scale))

    def with_overrides(self, **changes) -> "WorldConfig":
        return replace(self, **changes)

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise ValueError("end_day must follow start_day")
        if not 0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.topology_recipe not in TOPOLOGY_RECIPES:
            raise ValueError(
                f"unknown topology recipe {self.topology_recipe!r} "
                f"(expected one of {', '.join(TOPOLOGY_RECIPES)})"
            )
        if self.tier1_count < 1:
            raise ValueError("tier1_count must be positive")
        if self.ixp_count < 1:
            raise ValueError("ixp_count must be positive")
        if self.regional_clusters < 1:
            raise ValueError("regional_clusters must be positive")
        if not 0.0 < self.transit_share <= 1.0:
            raise ValueError("transit_share must be in (0, 1]")
        for rate in self.birth_rate_multiplier.values():
            if rate < 0:
                raise ValueError("birth_rate_multiplier values must be >= 0")

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "WorldConfig":
        """Build a config from a mapping, rejecting unknown keys.

        This is the one sanctioned dict → :class:`WorldConfig` path:
        scenario compilation and manifest-fingerprint reconstruction
        both go through it.  A ``__class__`` marker (as emitted by the
        cache fingerprinter) is accepted when it names this class;
        every other unexpected key raises
        :class:`UnknownConfigKeyError` naming the offenders.  List
        values destined for tuple-typed fields are coerced back, so
        JSON round-trips are lossless.
        """
        known = {f.name: f for f in dataclasses.fields(cls)}
        tuple_fields = {"hoarder_asns", "nir_block_size"}
        kwargs: Dict[str, Any] = {}
        unknown = []
        for key, value in mapping.items():
            if key == "__class__":
                if value != cls.__name__:
                    raise UnknownConfigKeyError((f"__class__={value!r}",))
                continue
            if key not in known:
                unknown.append(key)
                continue
            if key in tuple_fields and isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        if unknown:
            raise UnknownConfigKeyError(tuple(unknown))
        return cls(**kwargs)


def tiny(seed: int = 0) -> WorldConfig:
    """A minimal world for tests: ~600 lifetimes, builds in ~a second."""
    return WorldConfig(seed=seed, scale=0.006)


def bench(seed: int = 0) -> WorldConfig:
    """The benchmark world: ~6k lifetimes, stable distribution shapes."""
    return WorldConfig(seed=seed, scale=0.06)
