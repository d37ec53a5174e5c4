"""Incremental day-append: fold new simulated days into a store.

A store built for ``[start, end]`` advances to ``[start, end + N]``
without replaying the window.  The argument for why this matches a
full rebuild byte-for-byte:

1. A day's visibility class per ASN is a pure function of that day's
   live announcement multiset (the engine invariant the PR-2
   equivalence tests pin) — days are independent.
2. The store already holds every ASN's per-day classes for
   ``[start, end]`` as ``observed``/``single`` interval sets.
3. The appended days' classes come from the columnar engine's own
   consecutive-day diffing: :func:`schedule_from_world` over
   ``[end, end + N]`` (event-compressed — unchanged days cost
   nothing), replayed through one :class:`ActivityEngine`
   (:meth:`~repro.bgp.activity.ActivityEngine.replay`), runs
   clipped to ``(end, end + N]`` and unioned in with the linear
   interval merge.
4. Segmentation, taxonomy and shard encoding are the same pure
   functions of the resulting content that the full build uses — and
   the §4.2 ``open_ended`` flags are *recomputed*, not patched, so
   lives whose activity fell ``timeout`` days behind the new end flip
   closed exactly as a rebuild would close them.

Only shards whose bytes change are republished; the index and
snapshot manifest always refresh (the window moved, so the snapshot
digest moves), and the new snapshot registers in the run registry.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..asn.numbers import ASN
from ..bgp.activity import ActivityEngine, schedule_from_world
from ..core.taxonomy import classify
from ..lifetimes.bgp import OperationalActivity, build_bgp_lifetimes
from ..runtime.cache import USE_ENV_FAULTS, cache_key
from ..runtime.observability import Tracer
from ..timeline.intervals import Interval
from .index import StoreIndex
from .store import (
    AsnRecord,
    ServeStoreError,
    build_serve_records,
    publish_store,
)

__all__ = ["append_days"]


def append_days(
    store_dir: Union[str, Path],
    world: Any,
    days: int = 1,
    *,
    faults: Any = USE_ENV_FAULTS,
    tracer: Optional[Tracer] = None,
    runs_index: Union[str, Path, None] = None,
) -> Dict[str, Any]:
    """Advance a store's window by ``days``; returns the new index doc.

    ``world`` must be the store's exact world (same config — enforced
    via the config hash in the index), re-simulated or still in
    memory.  Raises :class:`ServeStoreError` when the store and world
    disagree or the append would run past the world's last day.
    """
    if days < 1:
        raise ServeStoreError("append needs at least one day")
    tracer = tracer if tracer is not None else Tracer()
    index = StoreIndex.open(store_dir, faults=faults)
    meta = index.meta
    if index.doc.get("config_hash") != cache_key(config=world.config):
        raise ServeStoreError(
            "world config does not match the store's config hash; "
            "appending a different world would corrupt the snapshot"
        )
    old_end = meta.end
    new_end = old_end + days
    if new_end > world.config.end_day:
        raise ServeStoreError(
            f"append would pass the world's last simulated day "
            f"({new_end} > {world.config.end_day})"
        )

    records: Dict[ASN, AsnRecord] = {}
    for asns, shard_records in index._shards:
        for record in shard_records:
            records[record.asn] = record

    with tracer.stage(
        "serve:append", items=days, component="serve"
    ) as span:
        # 3 — classes for the appended days via the engine's diffing
        schedule = schedule_from_world(world, old_end, new_end)
        engine = ActivityEngine(
            world.topology,
            list(world.collectors),
            min_corroboration=meta.min_corroboration,
        )
        runs = engine.replay(schedule)
        span.set_attr("changed_days", schedule.changed_days)

        touched = 0
        for asn, asn_runs in runs.items():
            record = records.get(asn)
            for cls, run_start, run_end in asn_runs:
                start = max(run_start, old_end + 1)
                if start > run_end:
                    continue  # entirely inside the already-stored window
                if record is None:
                    record = records[asn] = AsnRecord(asn=asn)
                iv = Interval(start, run_end)
                if cls == 2:
                    record.observed = record.observed.add(iv)
                else:
                    record.single = record.single.add(iv)
                touched += 1
        span.set_attr("touched_runs", touched)

        # 4 — re-derive everything derived (pure functions of content)
        new_meta = dataclasses.replace(meta, end=new_end)
        admin_lives = {
            asn: record.admin for asn, record in records.items() if record.admin
        }
        tables = {
            asn: OperationalActivity(
                asn=asn, observed=record.observed, single_peer=record.single
            )
            for asn, record in records.items()
            if record.observed or record.single
        }
        op_lives = build_bgp_lifetimes(
            tables,
            timeout=new_meta.timeout,
            min_peers=new_meta.min_peers,
            end_day=new_meta.end,
        )
        taxonomy = classify(admin_lives, op_lives, metrics=tracer.metrics)
        new_records = build_serve_records(admin_lives, op_lives, tables, taxonomy)

    return publish_store(
        store_dir,
        new_records,
        new_meta,
        world.config,
        faults=faults,
        tracer=tracer,
        runs_index=runs_index,
    )
