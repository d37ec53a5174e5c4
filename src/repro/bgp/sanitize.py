"""§3.2 BGP data sanitization.

The paper discards (i) paths to prefixes outside the globally-routable
length bounds (/8../24 for IPv4, /8../64 for IPv6) and (ii) paths with
loops.  This module applies the same filters and keeps counts per drop
reason so pipelines can report exactly what was removed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .messages import WITHDRAW, BgpElement

__all__ = [
    "SanitizeStats",
    "sanitize",
    "drop_reason",
    "REASON_PREFIX_LENGTH",
    "REASON_LOOP",
]

REASON_PREFIX_LENGTH = "prefix_length"
REASON_LOOP = "as_path_loop"


@dataclass
class SanitizeStats:
    """Counters filled in by :func:`sanitize`.

    ``dropped`` is a :class:`collections.Counter` keyed by drop reason
    (still a plain ``Dict[str, int]`` to every consumer).
    """

    kept: int = 0
    dropped: Counter = field(default_factory=Counter)

    def drop(self, reason: str) -> None:
        self.dropped[reason] += 1

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def total_seen(self) -> int:
        return self.kept + self.total_dropped


def drop_reason(element: BgpElement) -> Optional[str]:
    """The paper's drop decision for one element, or ``None`` to keep.

    The prefix-length bound is checked before the loop check (matching
    the drop-reason attribution of :func:`sanitize`); withdrawals carry
    no path and can only fail the prefix rule.  The columnar activity
    engine applies the same decision per interned (prefix, path) pair
    instead of per element.
    """
    if not element.prefix.is_globally_routable_length():
        return REASON_PREFIX_LENGTH
    if element.elem_type != WITHDRAW and element.has_loop:
        return REASON_LOOP
    return None


def sanitize(
    elements: Iterable[BgpElement],
    stats: SanitizeStats | None = None,
) -> Iterator[BgpElement]:
    """Yield only elements that pass the paper's sanitization rules.

    Withdrawals carry no path and are passed through unchanged if their
    prefix is plausible; RIB entries and announcements are checked for
    both prefix-length bounds and AS-path loops.
    """
    if stats is None:
        stats = SanitizeStats()
    for element in elements:
        reason = drop_reason(element)
        if reason is not None:
            stats.drop(reason)
            continue
        stats.kept += 1
        yield element
