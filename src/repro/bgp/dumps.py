"""Per-collector MRT dump materialization.

RouteViews and RIPE RIS publish their RIB/update dumps *per collector*;
the paper's pipeline pulls "one full RIB dump per collector and all
update dumps available" per day (§3.2).  This module materializes that
layout from a simulated world: one directory per collector, one
MRT-style file per day, e.g. ``<out>/route-views/rib.20200101.mrt``.

Each collector's dump stream is completely independent of every other
collector's (they share the topology and the day's announcements, but
write disjoint files), so collectors are written one after another,
each through its own :class:`~repro.bgp.stream.SyntheticBgpStream`
restricted to that collector — path propagation is deterministic, so
per-collector output is bit-identical to what an all-collector stream
would have produced for that collector.
"""

from __future__ import annotations

import datetime as _dt
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..timeline.dates import Day
from .collector import Collector
from .mrt import dump_day
from .stream import Announcement, SyntheticBgpStream
from .topology import AsTopology

__all__ = ["dump_file_name", "materialize_collector_dumps"]

PathLike = Union[str, Path]


def dump_file_name(day: Day) -> str:
    """RouteViews-style file name for one day's RIB+updates dump."""
    return f"rib.{_dt.date.fromordinal(day).strftime('%Y%m%d')}.mrt"


def _write_collector_dumps(
    topology: AsTopology,
    collector: Collector,
    announcements: Mapping[Day, Sequence[Announcement]],
    start: Day,
    end: Day,
    out_root: Path,
) -> Tuple[int, int]:
    """Write one collector's dump files for a day range.

    Returns (files written, elements written).
    """
    directory = out_root / collector.name
    directory.mkdir(parents=True, exist_ok=True)
    stream = SyntheticBgpStream(
        topology, [collector], lambda day: announcements.get(day, [])
    )
    files = elements = 0
    previous: Optional[Sequence[Announcement]] = None
    for day in range(start, end + 1):
        day_elements = list(stream.elements_for_day(day, previous))
        previous = announcements.get(day, [])
        elements += dump_day(day_elements, directory / dump_file_name(day))
        files += 1
    return files, elements


def materialize_collector_dumps(
    topology: AsTopology,
    collectors: Sequence[Collector],
    announcements_by_day: Mapping[Day, Sequence[Announcement]],
    out_root: PathLike,
    *,
    start: Day,
    end: Day,
) -> Dict[str, Tuple[int, int]]:
    """Materialize per-collector MRT dumps for a day range.

    Parameters
    ----------
    topology, collectors:
        The collecting infrastructure (from a simulated
        :class:`~repro.simulation.world.World`).
    announcements_by_day:
        Day → active announcements; typically precomputed from
        ``world.announcements_for_day``.
    out_root:
        Directory receiving one sub-directory per collector.
    start, end:
        Inclusive day range.

    Returns
    -------
    collector name → (files written, elements written), in collector
    order.
    """
    if end < start:
        raise ValueError("end day precedes start day")
    return {
        collector.name: _write_collector_dumps(
            topology, collector, announcements_by_day, start, end, Path(out_root)
        )
        for collector in collectors
    }
