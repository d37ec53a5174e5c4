"""§4.2 operational (BGP) lifetime construction.

Daily activity observations are segmented into lifetimes with an
inactivity timeout: an ASN starts a new operational lifespan only after
more than ``timeout`` days (the paper picks 30) without being seen.

Activity comes in two layers, mirroring the 2-peer visibility rule:
``observed`` days (seen by at least two distinct collector peers after
sanitization) and ``single_peer`` days (seen by exactly one peer —
potential spurious data).  The paper's configuration uses only the
former; the ablation benchmark flips ``min_peers`` to 1 to measure what
the rule protects against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..asn.numbers import ASN
from ..bgp.activity import build_world_activity_tables
from ..bgp.messages import BgpElement
from ..bgp.visibility import peer_visibility
from ..runtime.cache import ACTIVITY_TABLE_VERSION, ArtifactCache
from ..runtime.ledger import record_boundary
from ..runtime.observability import MetricsRegistry, Tracer
from ..timeline.dates import Day
from ..timeline.intervals import IntervalSet
from .records import BgpLifetime

__all__ = [
    "DEFAULT_TIMEOUT",
    "OperationalActivity",
    "build_bgp_lifetimes",
    "build_operational_dataset",
    "lifetimes_from_activity",
    "activity_from_elements",
]

#: The paper's BGP inactivity timeout (days).
DEFAULT_TIMEOUT = 30


@dataclass
class OperationalActivity:
    """Per-ASN daily visibility, split by peer-visibility class."""

    asn: ASN
    observed: IntervalSet = field(default_factory=IntervalSet)
    single_peer: IntervalSet = field(default_factory=IntervalSet)

    def active_days(self, *, min_peers: int = 2) -> IntervalSet:
        """Days counting as active under a visibility threshold."""
        if min_peers < 1:
            raise ValueError("min_peers must be at least 1")
        if min_peers == 1:
            return self.observed.union(self.single_peer)
        return self.observed


def lifetimes_from_activity(
    asn: ASN,
    days: IntervalSet,
    *,
    timeout: int = DEFAULT_TIMEOUT,
    end_day: Day,
) -> List[BgpLifetime]:
    """Segment one ASN's active days into operational lifetimes."""
    segments = days.merge_gaps(timeout)
    return [
        BgpLifetime(
            asn=asn,
            start=iv.start,
            end=iv.end,
            open_ended=iv.end >= end_day - timeout,
        )
        for iv in segments
    ]


def build_bgp_lifetimes(
    activities: Mapping[ASN, OperationalActivity],
    *,
    timeout: int = DEFAULT_TIMEOUT,
    min_peers: int = 2,
    end_day: Day,
    metrics: MetricsRegistry,
) -> Dict[ASN, List[BgpLifetime]]:
    """Operational lifetimes for every active ASN, ASN-sorted.

    A lifetime is ``open_ended`` when it could still be running: its
    last activity falls within ``timeout`` days of the window end, so
    the segmentation cannot yet declare it over.  The ``bgp:segment``
    ledger row goes to ``metrics``.
    """
    out: Dict[ASN, List[BgpLifetime]] = {}
    silent = 0
    for asn, activity in sorted(activities.items()):
        days = activity.active_days(min_peers=min_peers)
        if not days:
            silent += 1
            continue
        out[asn] = lifetimes_from_activity(
            asn, days, timeout=timeout, end_day=end_day
        )
    # one aggregate ledger emission (never per record): every activity
    # table either yields lifetimes or is silent at this min_peers
    # threshold
    record_boundary(
        "bgp:segment",
        records_in=len(activities),
        kept=len(out),
        dropped={"no_active_days": silent},
        metrics=metrics,
    )
    return out


def build_operational_dataset(
    world,
    *,
    start: Optional[Day] = None,
    end: Optional[Day] = None,
    timeout: int = DEFAULT_TIMEOUT,
    min_peers: int = 2,
    min_corroboration: int = 2,
    cache: Union[ArtifactCache, str, Path, None] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[Dict[ASN, List[BgpLifetime]], Dict[ASN, OperationalActivity]]:
    """Message-level §3.2→§4.2: activity tables plus operational lives.

    Rebuilds per-ASN :class:`OperationalActivity` from the BGP message
    stream of ``world`` over ``[start, end]`` with the columnar engine
    (:mod:`repro.bgp.activity`: interned per-announcement
    contributions, one counter per (ASN, peer), one day-diffing pass
    over the window) and segments it into
    lifetimes.  The tables equal what the object-stream oracle
    derives (``SyntheticBgpStream`` → ``sanitize`` →
    :func:`activity_from_elements`), one
    :class:`~repro.bgp.messages.BgpElement` per (collector, peer,
    announcement) per day; the tests pin that equivalence.

    When ``cache`` is given, the tables are stored as an
    ``activity-table`` artifact keyed on the world config, the window
    and ``min_corroboration``, so a warm hit skips the
    stream/sanitize/visibility stages entirely.
    ``timeout``/``min_peers`` only shape the cheap segmentation stage
    and are deliberately outside the key.

    Returns ``(op_lives, tables)``.
    """
    start = world.config.start_day if start is None else start
    end = world.config.end_day if end is None else end
    if tracer is None:
        tracer = Tracer()

    def build() -> Dict[ASN, OperationalActivity]:
        tables, report = build_world_activity_tables(
            world,
            start=start,
            end=end,
            min_corroboration=min_corroboration,
        )
        span = tracer.record("bgp:stream", report.stream_seconds,
                             items=report.changed_days,
                             component="bgp", engine="columnar")
        span.set_attr("ledger", record_boundary(
            "bgp:stream",
            records_in=report.elements,
            kept=report.elements,
            metrics=tracer.metrics,
        ))
        span = tracer.record("bgp:sanitize", report.sanitize_seconds,
                             items=report.elements,
                             component="bgp", engine="columnar")
        # the valley-free sweeps run inside this stage
        span.set_attr("routing_sweeps", report.routing_sweeps)
        span.set_attr("routing_s", round(report.routing_seconds, 6))
        tracer.metrics.inc("bgp.routing.sweeps", report.routing_sweeps)
        span.set_attr("ledger", record_boundary(
            "bgp:sanitize",
            records_in=report.elements,
            kept=report.kept,
            dropped=report.dropped,
            metrics=tracer.metrics,
        ))
        span = tracer.record("bgp:visibility", report.visibility_seconds,
                             items=len(tables),
                             component="bgp", engine="columnar")
        # ASN-day conservation from the engine's activity runs into
        # the interval tables: the conversion must neither lose nor
        # invent days
        span.set_attr("ledger", record_boundary(
            "bgp:visibility",
            records_in=sum(report.class_days_in.values()),
            routed=report.class_days,
            metrics=tracer.metrics,
        ))
        tracer.metrics.inc("bgp.elements", report.elements)
        tracer.metrics.inc("bgp.contributions", report.contributions)
        return tables

    if cache is None:
        tables = build()
    else:
        if not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        key = cache.key_for(
            artifact="activity-table",
            table_version=ACTIVITY_TABLE_VERSION,
            config=world.config,
            start=start,
            end=end,
            min_corroboration=min_corroboration,
        )
        tables = cache.get_or_build(key, build, tracer=tracer)

    with tracer.stage("bgp:segment", component="bgp", engine="columnar") as timing:
        op_lives = build_bgp_lifetimes(
            tables, timeout=timeout, min_peers=min_peers, end_day=end,
            metrics=tracer.metrics,
        )
        timing.items = len(op_lives)
    return op_lives, tables


def activity_from_elements(
    elements_by_day: Mapping[Day, Iterable[BgpElement]],
    *,
    min_corroboration: int = 2,
) -> Dict[ASN, OperationalActivity]:
    """Build activity from message-level (sanitized) element streams.

    This is the slow, file-faithful path: per day, every ASN appearing
    in paths is bucketed by how many distinct peers shared it.  The
    fast path (the simulation emitting activity directly) is
    equivalence-tested against this in the integration tests.
    """
    out: Dict[ASN, OperationalActivity] = {}
    observed_days: Dict[ASN, List[Day]] = {}
    single_days: Dict[ASN, List[Day]] = {}
    # ascending day order makes the per-ASN day lists pre-sorted, so
    # interval construction below skips its sort pass
    for day in sorted(elements_by_day):
        for asn, peers in peer_visibility(elements_by_day[day]).items():
            if len(peers) >= min_corroboration:
                observed_days.setdefault(asn, []).append(day)
            elif len(peers) == 1:
                single_days.setdefault(asn, []).append(day)
    for asn in set(observed_days) | set(single_days):
        out[asn] = OperationalActivity(
            asn=asn,
            observed=IntervalSet.from_sorted_days(observed_days.get(asn, [])),
            single_peer=IntervalSet.from_sorted_days(single_days.get(asn, [])),
        )
    return out
