"""The world simulator: 17 years of registries and BGP, end to end.

:class:`WorldSimulator` drives the five registry state machines day by
day (allocations following the per-RIR growth curves, deallocations,
quarantines and returns, ERX and ordinary inter-RIR transfers, APNIC
NIR blocks, date corrections), then materializes operational behavior
for every true administrative life and plants the §6 anomaly events.

The resulting :class:`World` is the complete ground truth; the dataset
builder (:mod:`repro.simulation.datasets`) layers the delegation-file
archive, defect injection, restoration, and lifetime inference on top.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..asn.blocks import IanaLedger
from ..asn.numbers import ASN, digit_count
from ..bgp.anomalies import AnomalyEvent
from ..bgp.collector import Collector, build_collectors
from ..bgp.stream import Announcement
from ..bgp.topology import AsTopology, build_topology
from ..lifetimes.bgp import OperationalActivity
from ..rir.model import RIR_NAMES
from ..rir.pitfalls import TransferRecord
from ..rir.policies import default_policy
from ..rir.registry import Registry, RegistryError
from ..runtime.observability import Tracer
from ..timeline.dates import Day, from_iso, year_of
from ..timeline.intervals import Interval, IntervalSet
from .anomalies import AnomalyPlanner, DormantTarget
from .behavior import BehaviorModel, LifeBehavior, Profile
from .config import WorldConfig
from .countries import country_for
from .growth import draw_lifetime_days, poisson, yearly_birth_rate
from .organizations import Organization, OrgDirectory
from .prefixes import PrefixPlan

__all__ = ["TrueLife", "World", "WorldSimulator", "simulate"]


@dataclass
class TrueLife:
    """Ground truth for one administrative lifetime."""

    asn: ASN
    registries: List[str]
    org_id: str
    cc: str
    reg_date: Day
    start: Day
    end: Optional[Day]  # last delegated day; None = open at window end
    via_nir: bool = False
    hoarder: bool = False
    conference: bool = False
    erx: bool = False
    #: A failed 32-bit deployment (§6.3): returned quickly, never used,
    #: and followed by a 16-bit allocation to the same organization.
    failed_32bit: bool = False
    behavior: Optional[LifeBehavior] = None

    @property
    def registry(self) -> str:
        return self.registries[-1]

    def duration(self, window_end: Day) -> int:
        end = self.end if self.end is not None else window_end
        return end - self.start + 1


@dataclass
class World:
    """Everything the simulation produced (the ground truth)."""

    config: WorldConfig
    ledger: IanaLedger
    registries: Dict[str, Registry]
    orgs: OrgDirectory
    lives: List[TrueLife]
    transfers: List[TransferRecord]
    erx_reference: Dict[ASN, Day]
    activities: Dict[ASN, OperationalActivity]
    legit_activity: Dict[ASN, IntervalSet]
    events: List[AnomalyEvent]
    topology: AsTopology
    collectors: List[Collector]
    prefixes: PrefixPlan
    factories: List[ASN]

    #: Memoized views over ``lives``.  The ground truth is immutable
    #: once assembled, but analyses hit these accessors repeatedly (per
    #: figure, per ablation), so rebuilding and re-sorting the full map
    #: on every call is pure waste.  Excluded from equality; treat the
    #: returned structures as read-only.
    _ever_allocated: Optional[Set[ASN]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _lives_by_asn: Optional[Dict[ASN, List[TrueLife]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def end_day(self) -> Day:
        return self.config.end_day

    def ever_allocated(self) -> Set[ASN]:
        if self._ever_allocated is None:
            self._ever_allocated = {life.asn for life in self.lives}
        return self._ever_allocated

    def lives_by_asn(self) -> Dict[ASN, List[TrueLife]]:
        if self._lives_by_asn is None:
            out: Dict[ASN, List[TrueLife]] = {}
            for life in self.lives:
                out.setdefault(life.asn, []).append(life)
            for group in out.values():
                group.sort(key=lambda l: l.start)
            self._lives_by_asn = out
        return self._lives_by_asn

    def announcements_for_day(self, day: Day) -> List[Announcement]:
        """Message-level view: everything announced on one day.

        Legitimately active ASNs originate their own prefix; anomaly
        events contribute forged-origin announcements; spurious
        single-peer observations ride a dedicated peer.  Used by the
        message-level pipeline on bounded windows.
        """
        out: List[Announcement] = []
        for asn, days in self.legit_activity.items():
            if day in days:
                out.append(Announcement(asn, self.prefixes.own_prefix(asn)))
        for event in self.events:
            out.extend(event.announcements(day))
        for asn, activity in self.activities.items():
            if day in activity.single_peer:
                peer = self.collectors[0].peer_asns[0]
                out.append(
                    Announcement(
                        asn, self.prefixes.own_prefix(asn), only_peer=peer
                    )
                )
        return out


class WorldSimulator:
    """Runs one deterministic world from a :class:`WorldConfig`."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.ledger = IanaLedger()
        self.registries: Dict[str, Registry] = {
            name: Registry(name, default_policy(name), self.ledger)
            for name in RIR_NAMES
        }
        self.orgs = OrgDirectory()
        self.lives: List[TrueLife] = []
        self.open_lives: Dict[ASN, TrueLife] = {}
        self.transfers: List[TransferRecord] = []
        self.erx_reference: Dict[ASN, Day] = {}
        self._dealloc_heap: List[Tuple[Day, ASN]] = []
        self._return_heap: List[Tuple[Day, ASN]] = []
        self._reserved_for_issue: Set[ASN] = set()
        self._erx_pool: List[ASN] = []
        #: day → (asn, target registry) ERX transfers due that day
        self._erx_by_day: Dict[Day, List[Tuple[ASN, str]]] = {}
        #: year → (name, registry, Poisson birth intensity) per registry
        self._birth_table: Dict[int, List[Tuple[str, Registry, float]]] = {}
        self._inter_rir_days: Dict[Day, int] = {}
        #: (day, registry, org_id, cc) — pending 16-bit retries after
        #: failed 32-bit deployments (§6.3)
        self._retry_heap: List[Tuple[Day, str, str, str]] = []

    # -- top level -----------------------------------------------------------

    def run(self, *, tracer: Optional[Tracer] = None) -> World:
        """Simulate the whole window and assemble the ground truth.

        ``tracer`` receives three child stages of whatever span is
        open: ``simulate:seed`` (pre-window allocations and the
        transfer schedules; items = lives seeded), ``simulate:days``
        (the daily loop; items = days) and ``simulate:assemble``
        (behavior, topology and anomalies; items = lives).
        """
        tracer = tracer if tracer is not None else Tracer()
        config = self.config
        with tracer.stage("simulate:seed", component="simulation") as span:
            self._seed_historical(config.start_day)
            self._schedule_erx()
            self._schedule_inter_rir()
            span.items = len(self.lives)
        days = range(config.start_day, config.end_day + 1)
        with tracer.stage(
            "simulate:days", items=len(days), component="simulation"
        ):
            for day in days:
                self._process_deallocations(day)
                self._process_returns(day)
                for registry in self.registries.values():
                    registry.tick(day)
                self._process_erx(day)
                self._process_inter_rir(day)
                self._births(day)
                self._process_16bit_retries(day)
                self._maybe_nir_block(day)
                self._maybe_reserve_episode(day)
                self._maybe_regdate_correction(day)
            for life in self.open_lives.values():
                life.end = None
        with tracer.stage(
            "simulate:assemble", items=len(self.lives), component="simulation"
        ):
            return self._assemble()

    # -- seeding --------------------------------------------------------------

    def _seed_historical(self, day0: Day) -> None:
        """Pre-window allocations with registration dates back to 1992,
        including the dot-com bubble spike (Fig. 10) and the hoarder
        organizations of §6.3."""
        config, rng = self.config, self.rng
        total = config.scaled(config.historical_allocations)
        split = [("arin", 0.72), ("ripencc", 0.18), ("apnic", 0.10)]
        for registry_name, share in split:
            registry = self.registries[registry_name]
            for _ in range(round(total * share)):
                reg_date = self._historical_reg_date()
                cc = country_for(registry_name, year_of(reg_date), rng)
                org = self.orgs.new_org(registry_name, cc)
                self._allocate_life(
                    registry, day0, org, cc, thirty_two_bit=False,
                    reg_date=reg_date, plan_end=True,
                )
        # hoarder organizations: blocks of mostly-unused siblings
        for index in range(config.scaled(config.hoarder_orgs)):
            registry_name = "arin" if index % 5 < 3 else "ripencc"
            registry = self.registries[registry_name]
            cc = "US" if registry_name == "arin" else "FR"
            org = self.orgs.new_org(registry_name, cc, hoarder=True)
            for _ in range(rng.randint(*config.hoarder_asns)):
                self._allocate_life(
                    registry, day0, org, cc, thirty_two_bit=False,
                    reg_date=self._historical_reg_date(), hoarder=True,
                )
        # a couple of conference networks (AFNOG / APNOG style)
        for registry_name, cc in (("afrinic", "ZA"), ("apnic", "AU")):
            registry = self.registries[registry_name]
            org = self.orgs.new_org(registry_name, cc, conference=True)
            self._allocate_life(
                registry, day0, org, cc, thirty_two_bit=False,
                reg_date=day0 - 900, conference=True,
            )
        # ERX pool: historical ARIN allocations destined for other regions
        arin_lives = [l for l in self.lives if l.registry == "arin" and not l.hoarder]
        rng.shuffle(arin_lives)
        erx_count = min(self.config.scaled(self.config.erx_transfers), len(arin_lives) // 2)
        self._erx_pool = [l.asn for l in arin_lives[:erx_count]]

    def _historical_reg_date(self) -> Day:
        """Registration year mixture with the 1999-2001 bubble spike."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.18:
            year = rng.randint(1992, 1996)
        elif roll < 0.38:
            year = rng.randint(1997, 1998)
        elif roll < 0.80:
            year = rng.randint(1999, 2001)  # the dot-com spike
        else:
            year = rng.randint(2002, 2003)
        date = from_iso(f"{year}-01-01") + rng.randint(0, 358)
        return min(date, self.config.start_day)

    # -- transfers --------------------------------------------------------------

    def _schedule_erx(self) -> None:
        """Batch ERX transfers: 2003-2004 to RIPE/APNIC/LACNIC, 2005 to
        AfriNIC (§3.1 step v)."""
        rng = self.rng
        schedule: List[Tuple[Day, str]] = []
        for asn in self._erx_pool:
            roll = rng.random()
            if roll < 0.70:
                target, lo, hi = "ripencc", "2003-11-15", "2004-12-15"
            elif roll < 0.86:
                target, lo, hi = "apnic", "2003-11-15", "2004-12-15"
            elif roll < 0.96:
                target, lo, hi = "lacnic", "2004-02-01", "2004-12-15"
            else:
                target, lo, hi = "afrinic", "2005-06-01", "2005-12-15"
            day = rng.randint(from_iso(lo), from_iso(hi))
            schedule.append((day, target))
        schedule.sort()
        # pool order within a day, as a scan of the pool would visit them
        for asn, (day, target) in zip(self._erx_pool, schedule):
            self._erx_by_day.setdefault(day, []).append((asn, target))

    def _process_erx(self, day: Day) -> None:
        for asn, target in self._erx_by_day.pop(day, ()):
            life = self.open_lives.get(asn)
            if (
                life is None
                or life.registry != "arin"
                or asn in self._reserved_for_issue
            ):
                continue
            self._transfer(day, life, target, erx=True)

    def _schedule_inter_rir(self) -> None:
        count = self.config.scaled(self.config.inter_rir_transfers)
        lo, hi = from_iso("2009-01-01"), self.config.end_day - 200
        for _ in range(count):
            day = self.rng.randint(lo, hi)
            self._inter_rir_days[day] = self._inter_rir_days.get(day, 0) + 1

    def _process_inter_rir(self, day: Day) -> None:
        for _ in range(self._inter_rir_days.pop(day, 0)):
            candidates = [
                l for l in self.open_lives.values()
                if not l.via_nir and l.asn not in self._reserved_for_issue
            ]
            if not candidates:
                return
            life = self.rng.choice(candidates)
            targets = [n for n in RIR_NAMES if n != life.registry]
            self._transfer(day, life, self.rng.choice(targets), erx=False)

    def _transfer(self, day: Day, life: TrueLife, target: str, *, erx: bool) -> None:
        source = self.registries[life.registry]
        alloc = source.transfer_out(day, life.asn)
        new_cc = country_for(target, year_of(day), self.rng)
        alloc.cc = new_cc
        self.registries[target].transfer_in(day, alloc, keep_regdate=True)
        self.transfers.append(
            TransferRecord(
                asn=life.asn,
                day=day,
                from_rir=life.registry,
                to_rir=target,
                original_reg_date=life.reg_date,
                erx=erx,
            )
        )
        if erx:
            self.erx_reference[life.asn] = life.reg_date
            life.erx = True
        life.registries.append(target)
        life.cc = new_cc

    # -- daily mechanics -----------------------------------------------------------

    def _allocate_life(
        self,
        registry: Registry,
        day: Day,
        org: Organization,
        cc: str,
        *,
        thirty_two_bit: bool,
        reg_date: Optional[Day] = None,
        via_nir: bool = False,
        hoarder: bool = False,
        conference: bool = False,
        plan_end: bool = False,
        prefer_recycled: bool = False,
    ) -> Optional[TrueLife]:
        try:
            alloc = registry.allocate(
                day, org.org_id, cc, thirty_two_bit=thirty_two_bit,
                reg_date=reg_date, via_nir=via_nir,
                prefer_recycled=prefer_recycled,
            )
        except RegistryError:
            if not thirty_two_bit and day >= registry.policy.first_32bit_allocation:
                return self._allocate_life(
                    registry, day, org, cc, thirty_two_bit=True,
                    reg_date=reg_date, via_nir=via_nir, hoarder=hoarder,
                    conference=conference, plan_end=plan_end,
                )
            return None
        life = TrueLife(
            asn=alloc.asn,
            registries=[registry.name],
            org_id=org.org_id,
            cc=cc,
            reg_date=alloc.reg_date,
            start=day,
            end=None,
            via_nir=via_nir,
            hoarder=hoarder,
            conference=conference,
        )
        self.orgs.attach(org, alloc.asn)
        self.lives.append(life)
        self.open_lives[alloc.asn] = life
        if plan_end:
            length = draw_lifetime_days(
                registry.name, self.rng,
                days_remaining=self.config.end_day - day,
            )
            if length is not None:
                heapq.heappush(self._dealloc_heap, (day + length, alloc.asn))
        return life

    def _birth_intensities(self, year: int) -> List[Tuple[str, Registry, float]]:
        """Each registry's Poisson birth intensity on every day of ``year``.

        Computed once per year with the float expression a per-day
        :func:`daily_birth_rate` call evaluates, so every Poisson draw
        is unchanged.
        """
        table = self._birth_table.get(year)
        if table is None:
            config = self.config
            table = self._birth_table[year] = [
                (
                    name,
                    registry,
                    yearly_birth_rate(name, year, config.scale)
                    * config.birth_rate_multiplier.get(name, 1.0),
                )
                for name, registry in self.registries.items()
            ]
        return table

    def _births(self, day: Day) -> None:
        config, rng = self.config, self.rng
        year = year_of(day)
        for name, registry, lam in self._birth_intensities(year):
            for _ in range(poisson(rng, lam)):
                if (
                    rng.random() < config.sibling_probability
                    and (org := self.orgs.random_existing(name, rng)) is not None
                ):
                    cc = org.cc
                else:
                    cc = country_for(name, year, rng)
                    org = self.orgs.new_org(name, cc)
                thirty_two = self._bit_choice(registry, day)
                lag = self._publication_lag(registry)
                prefer_recycled = rng.random() < registry.policy.reuse_preference
                if (
                    thirty_two
                    and day >= registry.policy.default_32bit_from
                    and rng.random() < config.failed_32bit_rate
                ):
                    self._plan_failed_32bit(registry, day, org, cc, day - lag)
                    continue
                self._allocate_life(
                    registry, day, org, cc, thirty_two_bit=thirty_two,
                    reg_date=day - lag, plan_end=True,
                    prefer_recycled=prefer_recycled,
                )

    def _bit_choice(self, registry: Registry, day: Day) -> bool:
        policy = registry.policy
        if day < policy.first_32bit_allocation:
            return False
        if day < policy.default_32bit_from:
            return self.rng.random() < 0.06  # early 32-bit adopters only
        return self.rng.random() >= policy.sixteen_bit_share_after_default

    def _publication_lag(self, registry: Registry) -> int:
        policy = registry.policy
        if self.rng.random() < policy.same_or_next_day_share:
            return self.rng.randint(0, 1)
        return self.rng.randint(2, policy.allocation_publish_lag_max)

    def _plan_failed_32bit(
        self, registry: Registry, day: Day, org: Organization, cc: str,
        reg_date: Day,
    ) -> None:
        """A 32-bit deployment that fails: the allocation is returned
        within a month and a 16-bit retry is scheduled for the same
        organization (§6.3)."""
        life = self._allocate_life(
            registry, day, org, cc, thirty_two_bit=True, reg_date=reg_date,
        )
        if life is None:
            return
        life.failed_32bit = True
        length = self.rng.randint(6, 30)
        heapq.heappush(self._dealloc_heap, (day + length, life.asn))
        retry_day = day + length + self.rng.randint(5, 80)
        if retry_day < self.config.end_day:
            heapq.heappush(
                self._retry_heap, (retry_day, registry.name, org.org_id, cc)
            )

    def _process_16bit_retries(self, day: Day) -> None:
        while self._retry_heap and self._retry_heap[0][0] <= day:
            _, registry_name, org_id, cc = heapq.heappop(self._retry_heap)
            if org_id not in self.orgs:
                continue
            self._allocate_life(
                self.registries[registry_name], day, self.orgs.get(org_id),
                cc, thirty_two_bit=False, plan_end=True, prefer_recycled=True,
            )

    def _process_deallocations(self, day: Day) -> None:
        while self._dealloc_heap and self._dealloc_heap[0][0] <= day:
            _, asn = heapq.heappop(self._dealloc_heap)
            life = self.open_lives.get(asn)
            if life is None or asn in self._reserved_for_issue:
                continue
            self.registries[life.registry].deallocate(day, asn)
            life.end = day - 1
            del self.open_lives[asn]

    def _maybe_reserve_episode(self, day: Day) -> None:
        """Occasionally park an allocated ASN in reserved over an
        administrative issue and return it to the same holder later —
        the same-life merge case of §4.1."""
        if self.rng.random() > 0.15 * self.config.scale * 10:
            return
        candidates = [
            asn for asn, life in self.open_lives.items()
            if asn not in self._reserved_for_issue and not life.via_nir
        ]
        if not candidates:
            return
        asn = self.rng.choice(candidates)
        life = self.open_lives[asn]
        registry = self.registries[life.registry]
        registry.reserve_for_issue(day, asn)
        self._reserved_for_issue.add(asn)
        heapq.heappush(
            self._return_heap, (day + self.rng.randint(10, 80), asn)
        )

    def _process_returns(self, day: Day) -> None:
        while self._return_heap and self._return_heap[0][0] <= day:
            _, asn = heapq.heappop(self._return_heap)
            life = self.open_lives.get(asn)
            if life is None:
                self._reserved_for_issue.discard(asn)
                continue
            registry = self.registries[life.registry]
            registry.return_to_owner(day, asn)
            self._reserved_for_issue.discard(asn)

    def _maybe_nir_block(self, day: Day) -> None:
        config = self.config
        if self.rng.random() > 0.027 * config.scale:
            return
        registry = self.registries["apnic"]
        cc = self.rng.choice(["JP", "CN", "KR", "ID", "IN", "TW", "VN"])
        org = self.orgs.new_org("apnic", cc, nir=True)
        count = self.rng.randint(*config.nir_block_size)
        thirty_two = day >= registry.policy.default_32bit_from
        for _ in range(count):
            self._allocate_life(
                registry, day, org, cc, thirty_two_bit=thirty_two,
                via_nir=True,
            )

    def _maybe_regdate_correction(self, day: Day) -> None:
        if self.rng.random() > self.config.regdate_correction_rate:
            return
        candidates = [
            asn for asn in self.open_lives if asn not in self._reserved_for_issue
        ]
        if not candidates:
            return
        asn = self.rng.choice(candidates)
        life = self.open_lives[asn]
        registry = self.registries[life.registry]
        # corrections only move forward (a backward move is a defect
        # the restoration pipeline repairs, injected separately) and
        # never past the day of the correction itself
        corrected = min(life.reg_date + self.rng.randint(1, 30), day)
        if corrected > life.reg_date:
            registry.correct_regdate(day, asn, corrected)

    # -- assembly -----------------------------------------------------------------

    def _assemble(self) -> World:
        config = self.config
        behavior_rng = random.Random(config.seed + 1)
        model = BehaviorModel(config, behavior_rng)
        legit_parts: Dict[ASN, List[IntervalSet]] = {}
        spurious: Dict[ASN, IntervalSet] = {}

        for life in self.lives:
            if life.failed_32bit:
                life.behavior = LifeBehavior(
                    profile=Profile.UNUSED, activity=IntervalSet()
                )
                continue
            behavior = model.behavior_for_life(
                start=life.start,
                end=life.end,
                window_end=config.end_day,
                reclaim_median=self.registries[life.registry].policy.reclaim_delay_days,
                cc=life.cc,
                hoarder=life.hoarder,
                via_nir=life.via_nir,
                conference=life.conference,
            )
            life.behavior = behavior
            clamped = behavior.activity.clamp(config.start_day, config.end_day)
            if clamped:
                legit_parts.setdefault(life.asn, []).append(clamped)
            if behavior_rng.random() < config.spurious_rate:
                spurious[life.asn] = model.spurious_days(
                    config.start_day, config.end_day
                )

        # one k-way normalize per ASN instead of a pairwise union fold
        legit_activity: Dict[ASN, IntervalSet] = {
            asn: parts[0] if len(parts) == 1 else IntervalSet.union_all(parts)
            for asn, parts in legit_parts.items()
        }

        topology, collectors, factories, big_transits = self._build_infrastructure()
        planner = self._plan_anomalies(factories, big_transits)

        activities: Dict[ASN, OperationalActivity] = {}
        additions = planner.activity_additions()
        for asn in set(legit_activity) | set(additions) | set(spurious):
            observed = legit_activity.get(asn, IntervalSet())
            extra = additions.get(asn)
            if extra is not None:
                observed = observed.union(
                    extra.clamp(config.start_day, config.end_day)
                )
            activities[asn] = OperationalActivity(
                asn=asn,
                observed=observed,
                single_peer=spurious.get(asn, IntervalSet()).difference(observed),
            )

        return World(
            config=config,
            ledger=self.ledger,
            registries=self.registries,
            orgs=self.orgs,
            lives=self.lives,
            transfers=self.transfers,
            erx_reference=self.erx_reference,
            activities=activities,
            legit_activity=legit_activity,
            events=planner.events,
            topology=topology,
            collectors=collectors,
            prefixes=planner.prefixes,
            factories=factories,
        )

    def _build_infrastructure(self):
        config = self.config
        asns = sorted({life.asn for life in self.lives})
        topology = build_topology(asns, config, seed=config.seed + 2)
        collectors = build_collectors(
            topology,
            seed=config.seed + 3,
            routeviews_count=config.routeviews_collectors,
            ris_count=config.ris_collectors,
            peers_per_collector=config.peers_per_collector,
        )
        transits = [a for a in asns if not topology.is_stub(a)]
        rng = random.Random(config.seed + 4)
        factories = sorted(rng.sample(transits, min(3, len(transits))))
        big_transits = transits[:20]
        return topology, collectors, factories, big_transits

    def _plan_anomalies(
        self, factories: Sequence[ASN], big_transits: Sequence[ASN]
    ) -> AnomalyPlanner:
        config = self.config
        planner = AnomalyPlanner(
            config=config,
            rng=random.Random(config.seed + 5),
            prefixes=PrefixPlan(),
            window_end=config.end_day,
        )
        ever = {life.asn for life in self.lives}

        dormant_targets: List[DormantTarget] = []
        post_dealloc: List[Tuple[ASN, Day, Optional[Day]]] = []
        prepend_victims: List[ASN] = []
        digit_victims: List[Tuple[ASN, Interval]] = []
        for life in self.lives:
            behavior = life.behavior
            assert behavior is not None
            admin_end = life.end if life.end is not None else config.end_day
            if behavior.profile == Profile.UNUSED:
                dormant_targets.append(
                    DormantTarget(
                        asn=life.asn, silent_from=life.start,
                        silent_to=admin_end, admin_start=life.start,
                        admin_end=admin_end,
                    )
                )
            elif behavior.dormant_from is not None:
                dormant_targets.append(
                    DormantTarget(
                        asn=life.asn, silent_from=behavior.dormant_from,
                        silent_to=admin_end, admin_start=life.start,
                        admin_end=admin_end,
                    )
                )
            if life.end is not None:
                span = behavior.activity.span
                last_op = span.end if span is not None else None
                post_dealloc.append((life.asn, life.end + 1, last_op))
            if behavior.profile == Profile.NORMAL and behavior.activity:
                if digit_count(life.asn) <= 5 and int(str(life.asn) * 2) <= 4294967295:
                    prepend_victims.append(life.asn)
                span = behavior.activity.span
                if digit_count(life.asn) >= 4 and span is not None:
                    digit_victims.append((life.asn, span))

        planner.plan_dormant_squats(dormant_targets, factories)
        planner.plan_post_dealloc_squats(post_dealloc, factories)
        planner.plan_fat_finger_prepends(prepend_victims, ever)
        planner.plan_fat_finger_digits(digit_victims, ever)
        planner.plan_internal_leaks(big_transits, ever)
        planner.plan_noise_origins(list(big_transits), ever)
        return planner


def simulate(config: Optional[WorldConfig] = None) -> World:
    """Convenience wrapper: run a world from a config (default bench-tiny)."""
    from .config import tiny

    return WorldSimulator(config if config is not None else tiny()).run()
