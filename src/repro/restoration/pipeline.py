"""Orchestration of the six-step §3.1 restoration.

``restore_archive`` runs the steps over per-registry views and returns
a :class:`RestoredDelegations` — the cleaned, cross-registry
observation timeline that §4.1 lifetime inference consumes — together
with the :class:`RestorationReport` quantifying every repair.

The work is organized registry-major: building a registry's view and
running the five per-registry steps (same-day measurement, record
recovery, gap bridging, duplicate resolution, date repair) touches only
that registry's data.  Only step (vi), :func:`clean_inter_rir_overlaps`,
compares timelines *across* registries — it is the join barrier and
runs after every registry is done, in sorted registry order.

Restoration runs in-process, like every other stage (see DESIGN.md
§5.7): a per-registry view is the whole registry timeline, and its
step work takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..asn.blocks import IanaLedger
from ..asn.numbers import ASN
from ..rir.archive import DelegationArchive, Stint
from ..runtime.ledger import ledger_enabled, record_boundary
from ..runtime.observability import MetricsRegistry, Tracer
from ..timeline.dates import Day
from .duplicates import resolve_duplicate_records
from .gaps import bridge_unavailable_gaps
from .interrir import clean_inter_rir_overlaps
from .records import recover_dropped_records
from .regdates import restore_registration_dates
from .report import RestorationReport
from .sameday import measure_sameday_divergence
from .view import RegistryView, build_registry_view

__all__ = ["RestoredDelegations", "restore_archive"]


@dataclass
class RestoredDelegations:
    """The cleaned observation timeline, merged across registries.

    ``stints[asn]`` is the chronological list of observed rows for one
    ASN across all five registries (delegated, reserved, and available
    states alike).  ``views`` retains the per-registry views for
    analyses that need them.
    """

    stints: Dict[ASN, List[Stint]] = field(default_factory=dict)
    views: Dict[str, RegistryView] = field(default_factory=dict)
    end_day: Day = 0

    def asns(self) -> List[ASN]:
        return sorted(self.stints)

    def delegated_stints(self, asn: ASN) -> List[Stint]:
        return [s for s in self.stints.get(asn, []) if s.record.is_delegated]


def _view_rows(view: RegistryView) -> int:
    """Observed rows (stints) currently held by one registry view."""
    return sum(map(len, view.stints.values()))


def _restore_registry(
    registry: str,
    view: RegistryView,
    erx_reference: Optional[Mapping[ASN, Day]],
    metrics: MetricsRegistry,
) -> RestorationReport:
    """Run the five per-registry §3.1 steps over one registry's view.

    The view is mutated in place.  Every step gets a ledger boundary
    (``restoration/<step>/<registry>``): rows are counted independently
    before and after, and the drop buckets come from the step's own
    semantic counters — so the closure check (`in == kept + Σ dropped`)
    genuinely cross-validates the step's bookkeeping against the rows
    it touched.
    """
    report = RestorationReport()
    views = {registry: view}
    # (step name, runner, (drop-reason, report-counter template) pairs);
    # steps without drop buckets must be row-count-neutral.
    steps = (
        ("iii-same-day-divergence",
         lambda: measure_sameday_divergence(views, report), ()),
        ("ii-missing-records",
         lambda: recover_dropped_records(views, report),
         (("merged_into_recovered_row", "{r}_records_recovered"),)),
        ("i-missing-file-gaps",
         lambda: bridge_unavailable_gaps(views, report),
         (("merged_across_file_gap", "{r}_gaps_bridged"),)),
        ("iv-duplicate-records",
         lambda: resolve_duplicate_records(views, report),
         (("duplicate_overlap", "{r}_duplicate_rows_dropped"),)),
        ("v-registration-dates",
         lambda: restore_registration_dates(
             views, report, erx_reference=erx_reference), ()),
    )
    for step_name, run, drop_buckets in steps:
        rows_before = _view_rows(view)
        run()
        rows_after = _view_rows(view)
        counts = report.step(step_name).counts
        dropped = {
            reason: counts.get(counter.format(r=registry), 0)
            for reason, counter in drop_buckets
        }
        record_boundary(
            f"restoration/{step_name}/{registry}",
            records_in=rows_before,
            kept=rows_after,
            dropped=dropped,
            metrics=metrics,
        )
    return report


def restore_archive(
    archive: DelegationArchive,
    *,
    erx_reference: Optional[Mapping[ASN, Day]] = None,
    ledger: Optional[IanaLedger] = None,
    tracer: Optional[Tracer] = None,
) -> tuple:
    """Run the full §3.1 restoration over an archive.

    Parameters
    ----------
    archive:
        The (possibly defect-ridden) delegation archive.
    erx_reference:
        Original registration dates for ERX-transferred ASNs (the
        equivalent of ARIN's pre-delegation-file records), used to
        repair placeholder dates.
    ledger:
        The IANA block ledger, used to spot mistaken allocations.
    tracer:
        Optional :class:`~repro.runtime.observability.Tracer`
        receiving per-stage spans.

    Returns
    -------
    (RestoredDelegations, RestorationReport)
    """
    if tracer is None:
        tracer = Tracer()
    registries = sorted(archive.registries())

    with tracer.stage(
        "restore:views", items=len(registries), component="restoration"
    ):
        views: Dict[str, RegistryView] = {
            registry: build_registry_view(archive, registry)
            for registry in registries
        }

    # Steps (i)-(v) are per-registry; step order mirrors §3.1:
    # same-day resolution is implicit in the authoritative view and
    # measured first; record recovery must run before gap bridging so
    # that drops repaired from the regular feed are not mistaken for
    # file outages; duplicates are resolved before dates so date repair
    # sees one row per day.
    report = RestorationReport()
    rows_before_steps = sum(_view_rows(view) for view in views.values())
    with tracer.stage(
        "restore:per-registry",
        items=len(registries),
        component="restoration",
    ) as span:
        for registry in registries:
            report.merge(_restore_registry(
                registry, views[registry], erx_reference, tracer.metrics
            ))
    if ledger_enabled():
        span.set_attr("ledger", {
            "in": rows_before_steps,
            "kept": sum(_view_rows(view) for view in views.values()),
        })

    # Step (vi) compares already-clean per-registry timelines against
    # each other — the cross-registry join barrier, serial by design.
    rows_before_vi = {r: _view_rows(views[r]) for r in registries}
    with tracer.stage(
        "restore:inter-rir", items=len(views), component="restoration"
    ) as span:
        clean_inter_rir_overlaps(views, report, ledger=ledger)
        vi_counts = report.step("vi-inter-rir").counts
        for registry in registries:
            summary = record_boundary(
                f"restoration/vi-inter-rir/{registry}",
                records_in=rows_before_vi[registry],
                kept=_view_rows(views[registry]),
                dropped={
                    "mistaken_allocation": vi_counts.get(
                        f"{registry}_rows_dropped_mistaken", 0
                    ),
                    "stale_transfer_tail": vi_counts.get(
                        f"{registry}_rows_dropped_stale_tail", 0
                    ),
                },
                metrics=tracer.metrics,
            )
            if summary is not None:
                span.set_attr(f"ledger.{registry}", summary)

    with tracer.stage("restore:merge", component="restoration") as span:
        for view in views.values():
            view.prune_recovery_state()
        restored = RestoredDelegations(views=views, end_day=archive.end_day)
        for registry in registries:
            for asn, stints in views[registry].stints.items():
                restored.stints.setdefault(asn, []).extend(stints)
        for stints in restored.stints.values():
            if len(stints) > 1:
                stints.sort(key=lambda s: (s.start, s.end))
        # the cross-registry merge must neither lose nor invent rows
        summary = record_boundary(
            "restoration/merge",
            records_in=sum(_view_rows(view) for view in views.values()),
            kept=sum(len(stints) for stints in restored.stints.values()),
            metrics=tracer.metrics,
        )
        if summary is not None:
            span.set_attr("ledger", summary)
    return restored, report
