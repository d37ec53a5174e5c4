"""End-to-end dataset construction: world → archive → restore → lifetimes.

:func:`build_datasets` runs the whole pipeline of the paper's Fig. 1:
the simulated world substitutes for the RIR FTP sites and the BGP
collectors, the pitfall injector corrupts the archive the way reality
does, the §3.1 restoration undoes it, and the §4 builders emit the two
lifetime datasets.  The returned bundle carries every intermediate
artifact plus the ground truth, so analyses can be validated and not
just run.

The run itself goes through the :mod:`repro.runtime` subsystem: every
stage runs once, in-process, over all of its items; a
:class:`~repro.runtime.observability.Tracer` records what each stage
cost, and an
:class:`ArtifactCache` lets an identical configuration skip the
rebuild entirely — the pipeline equivalent of serving historical
queries from precomputed state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..asn.numbers import ASN
from ..core.joint import JointAnalysis
from ..lifetimes.admin import build_admin_lifetimes
from ..lifetimes.bgp import build_bgp_lifetimes
from ..lifetimes.records import AdminLifetime, BgpLifetime
from ..restoration.pipeline import RestoredDelegations, restore_archive
from ..restoration.report import RestorationReport
from ..rir.archive import DelegationArchive
from ..rir.pitfalls import InjectedDefect, PitfallConfig, PitfallInjector
from ..runtime.cache import (
    ArtifactCache,
    dumps_with_gc_paused,
    loads_with_gc_paused,
)
from ..runtime.observability import Tracer
from .config import WorldConfig, tiny
from .world import World, WorldSimulator

__all__ = ["DatasetBundle", "build_datasets"]

#: The independently cacheable components of a bundle, in build order.
_BUNDLE_PARTS = (
    "world",
    "archive",
    "injected_defects",
    "restored",
    "restoration_report",
    "admin_lives",
    "op_lives",
)

#: Format tag of partitioned cache entries (see ``_to_parts``).
_PARTS_FORMAT = "dataset-bundle-parts/v1"


@dataclass
class DatasetBundle:
    """Everything one experiment run produces.

    Bundles loaded from the artifact cache are *partitioned*: each
    component stays a pickled blob until first attribute access (see
    :meth:`_from_parts`), so a warm cache hit costs file I/O plus only
    the components the caller actually touches — an analysis reading
    ``admin_lives``/``op_lives`` never pays for decoding the full
    simulated world.  A decoded component is indistinguishable from an
    eagerly built one (same pickle round-trip), though components no
    longer share object identity across part boundaries (``world`` and
    ``archive`` hold equal-but-distinct registry objects).
    """

    world: World
    archive: DelegationArchive
    injected_defects: List[InjectedDefect]
    restored: RestoredDelegations
    restoration_report: RestorationReport
    admin_lives: Dict[ASN, List[AdminLifetime]]
    op_lives: Dict[ASN, List[BgpLifetime]]
    joint: JointAnalysis = field(init=False)

    def __post_init__(self) -> None:
        self.joint = JointAnalysis(
            admin_lives=self.admin_lives,
            op_lives=self.op_lives,
            end_day=self.world.end_day,
            topology=self.world.topology,
            siblings=self.world.orgs.sibling_map(),
            truth=self.world.events,
        )

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance: on a
        # partitioned bundle these are the not-yet-decoded parts and
        # the derived joint analysis.
        parts = object.__getattribute__(self, "__dict__").get("_parts")
        if parts is not None:
            blob = parts.pop(name, None)
            if blob is not None:
                value = loads_with_gc_paused(blob)
                setattr(self, name, value)
                return value
            if name == "joint":
                self.__post_init__()
                return self.joint
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _to_parts(self) -> Dict[str, bytes]:
        """Pickle each component separately (the cache-entry payload)."""
        return {
            name: dumps_with_gc_paused(getattr(self, name))
            for name in _BUNDLE_PARTS
        }

    @classmethod
    def _from_parts(cls, parts: Dict[str, bytes]) -> "DatasetBundle":
        """Wrap pickled components without decoding any of them yet."""
        bundle = cls.__new__(cls)
        bundle.__dict__["_parts"] = dict(parts)
        return bundle

    def registry_of(self) -> Dict[ASN, str]:
        """ASN → final registry (for the per-RIR tables)."""
        return {
            asn: lives[-1].registry
            for asn, lives in self.admin_lives.items()
            if lives
        }

    def rebuild_op_lives(
        self, *, timeout: int, min_peers: int = 2
    ) -> Dict[ASN, List[BgpLifetime]]:
        """Re-segment operational lifetimes under different parameters
        (Table 5 / the visibility ablation) without re-simulating."""
        return build_bgp_lifetimes(
            self.world.activities,
            timeout=timeout,
            min_peers=min_peers,
            end_day=self.world.end_day,
        )


def _bundle_cache_key(
    cache: ArtifactCache,
    config: WorldConfig,
    *,
    inject_pitfalls: bool,
    pitfall_config: Optional[PitfallConfig],
    timeout: int,
    min_peers: int,
    scenario_key: Any = None,
) -> str:
    """The content address of one bundle: every input that shapes it.

    ``scenario_key`` is the compiled scenario's fingerprint (``None``
    for plain-config runs): two different scenarios never share an
    entry even if they compile to the same config, and repeat runs of
    one scenario always hit.
    """
    return cache.key_for(
        artifact="dataset-bundle",
        config=config,
        inject_pitfalls=inject_pitfalls,
        pitfall_config=(
            (pitfall_config if pitfall_config is not None else PitfallConfig())
            if inject_pitfalls
            else None
        ),
        timeout=timeout,
        min_peers=min_peers,
        scenario=scenario_key,
    )


def build_datasets(
    config: Optional[WorldConfig] = None,
    *,
    inject_pitfalls: bool = True,
    pitfall_config: Optional[PitfallConfig] = None,
    timeout: int = 30,
    min_peers: int = 2,
    cache: Union[ArtifactCache, str, Path, None] = None,
    tracer: Optional[Tracer] = None,
    scenario_key: Any = None,
) -> DatasetBundle:
    """Run the full pipeline for one world configuration.

    Parameters
    ----------
    cache:
        An :class:`~repro.runtime.cache.ArtifactCache` (or a cache
        directory path).  A warm hit skips simulation, injection,
        restoration, and lifetime inference entirely and returns a
        partitioned bundle whose components are decoded on first
        access; a finished build is stored for the next caller.
        Loaded entries are always checked against their sidecar
        manifests.
    tracer:
        Optional :class:`~repro.runtime.observability.Tracer`
        collecting per-stage wall times, item counts, and the
        runtime's degradation events (quarantines, failed stores).
    scenario_key:
        Fingerprint of the scenario this config was compiled from
        (see :mod:`repro.scenario`), folded into the bundle cache key;
        ``None`` for plain-config runs.
    """
    if config is None:
        config = tiny()
    if cache is not None and not isinstance(cache, ArtifactCache):
        cache = ArtifactCache(cache)
    tracer = tracer if tracer is not None else Tracer()

    key: Optional[str] = None
    if cache is not None:
        key = _bundle_cache_key(
            cache,
            config,
            inject_pitfalls=inject_pitfalls,
            pitfall_config=pitfall_config,
            timeout=timeout,
            min_peers=min_peers,
            scenario_key=scenario_key,
        )
        with tracer.stage("cache:lookup", component="cache") as timing:
            artifact = cache.load(key)
        tracer.drain_events_from(cache)
        if artifact is not None:
            timing.items = 1
            timing.set_attr("cache", "hit")
            if (
                isinstance(artifact, dict)
                and artifact.get("format") == _PARTS_FORMAT
            ):
                return DatasetBundle._from_parts(artifact["parts"])
            return artifact
        timing.set_attr("cache", "miss")

    bundle = _build(
        config, tracer,
        inject_pitfalls=inject_pitfalls, pitfall_config=pitfall_config,
        timeout=timeout, min_peers=min_peers,
    )

    if cache is not None and key is not None:
        with tracer.stage("cache:store", component="cache"):
            cache.store(
                key, {"format": _PARTS_FORMAT, "parts": bundle._to_parts()}
            )
        tracer.drain_events_from(cache)
    return bundle


def _build(
    config: WorldConfig,
    tracer: Tracer,
    *,
    inject_pitfalls: bool,
    pitfall_config: Optional[PitfallConfig],
    timeout: int,
    min_peers: int,
) -> DatasetBundle:
    """The uncached pipeline body (world → archive → restore → lifetimes)."""
    with tracer.stage("simulate", component="simulation") as timing:
        world = WorldSimulator(config).run(tracer=tracer)
        timing.items = len(world.lives)

    with tracer.stage("archive", component="rir") as timing:
        clean = DelegationArchive(world.registries, config.end_day)
        windows = {w.source: (w.first_day, w.last_day) for w in clean.sources()}
        defects: List[InjectedDefect] = []
        if inject_pitfalls:
            injector = PitfallInjector(
                world.registries,
                config.end_day,
                seed=config.seed + 6,
                config=pitfall_config if pitfall_config is not None else PitfallConfig(),
            )
            overlay = injector.inject_all(windows, world.transfers)
            defects = injector.truth
            archive = DelegationArchive(world.registries, config.end_day, overlay)
        else:
            archive = clean
        timing.items = len(defects)

    restored, report = restore_archive(
        archive,
        erx_reference=world.erx_reference,
        ledger=world.ledger,
        tracer=tracer,
    )

    with tracer.stage("admin-lifetimes", component="lifetimes") as timing:
        admin_lives = build_admin_lifetimes(restored)
        timing.items = len(admin_lives)
    with tracer.stage("bgp-lifetimes", component="lifetimes") as timing:
        op_lives = build_bgp_lifetimes(
            world.activities, timeout=timeout, min_peers=min_peers,
            end_day=config.end_day,
        )
        timing.items = len(op_lives)

    with tracer.stage("assemble", component="pipeline"):
        bundle = DatasetBundle(
            world=world,
            archive=archive,
            injected_defects=defects,
            restored=restored,
            restoration_report=report,
            admin_lives=admin_lives,
            op_lives=op_lives,
        )
    return bundle
