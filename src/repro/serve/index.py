"""In-memory query index over a published serve store.

:class:`StoreIndex` opens a ``serve-store/v1`` directory, loads the
shard table plus every shard document (verified, with bounded retries
on injected read faults), and answers the three query shapes the HTTP
layer exposes:

* **point** — ``lives(asn)`` / ``taxonomy(asn)``: binary search over
  the shard bounds, then over the shard's sorted ``asns`` array —
  O(log n) end to end;
* **as-of** — ``as_of(asn, day)``: the point lookup plus binary
  searches over the record's sorted lifetime rows and flat activity
  interval arrays;
* **range** — ``range_summary(lo, hi)`` / ``range_as_of``: two binary
  searches bound the shard span, then the covered records stream out,
  O(log n + k) for k hits.

Everything returned is a JSON-ready dict carrying the snapshot digest,
so clients can detect a store swap between queries.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..asn.numbers import ASN
from ..runtime.cache import USE_ENV_FAULTS
from ..runtime.observability import Tracer
from ..timeline.dates import Day, to_iso
from .store import (
    INDEX_NAME,
    SERVE_STORE_FORMAT,
    AsnRecord,
    ServeStoreError,
    StoreMeta,
    decode_shard,
    load_bytes_verified,
    store_publisher,
)

__all__ = ["StoreIndex", "DEFAULT_RANGE_LIMIT"]

#: Upper bound on range-query result sizes (the HTTP layer caps the
#: client-requested ``limit`` here).
DEFAULT_RANGE_LIMIT = 1000


def _admin_json(record: AsnRecord, index: int) -> Dict[str, Any]:
    life = record.admin[index]
    doc = life.to_json_dict()
    doc["open_ended"] = life.open_ended
    doc["category"] = record.admin_cats[index].value
    if life.via_nir:
        doc["via_nir"] = True
    if life.left_censored:
        doc["left_censored"] = True
    return doc


def _op_json(record: AsnRecord, index: int) -> Dict[str, Any]:
    life = record.op[index]
    doc = life.to_json_dict()
    doc["open_ended"] = life.open_ended
    doc["category"] = record.op_cats[index].value
    return doc


class StoreIndex:
    """A read-only, fully loaded view of one store snapshot."""

    def __init__(
        self,
        index_doc: Dict[str, Any],
        shards: List[Tuple[List[ASN], List[AsnRecord]]],
    ) -> None:
        if index_doc.get("format") != SERVE_STORE_FORMAT:
            raise ServeStoreError(f"not a {SERVE_STORE_FORMAT} index document")
        self.doc = index_doc
        self.digest: str = index_doc["digest"]
        self.meta = StoreMeta.from_json_dict(index_doc["meta"])
        self._shards = shards
        #: Shard upper bounds, for the first-level binary search.
        self._his: List[ASN] = [asns[-1] for asns, _records in shards]

    # -- construction --------------------------------------------------

    @classmethod
    def open(
        cls,
        store_dir: Union[str, Path],
        *,
        faults: Any = USE_ENV_FAULTS,
        tracer: Optional[Tracer] = None,
    ) -> "StoreIndex":
        """Load a store directory (index + every shard, verified).

        Each verified read and any degradation is counted in
        ``tracer``'s run; without a run (the ``serve`` command, load
        generators) a fresh :class:`Tracer` takes them.
        """
        tracer = tracer if tracer is not None else Tracer()
        cache = store_publisher(store_dir, faults=faults)
        index_blob = load_bytes_verified(cache, INDEX_NAME, tracer=tracer)
        try:
            index_doc = json.loads(index_blob.decode("utf-8"))
        except ValueError as exc:
            raise ServeStoreError(f"store index is not valid JSON: {exc}") from exc
        shards: List[Tuple[List[ASN], List[AsnRecord]]] = []
        for row in index_doc.get("shards", ()):
            blob = load_bytes_verified(cache, row["name"], tracer=tracer)
            records = decode_shard(blob)
            asns = [record.asn for record in records]
            if not asns or asns[0] != row["lo"] or asns[-1] != row["hi"]:
                raise ServeStoreError(
                    f"shard {row['name']} does not match its index row"
                )
            shards.append((asns, records))
        return cls(index_doc, shards)

    # -- lookups -------------------------------------------------------

    def all_asns(self) -> List[ASN]:
        """The store's full sorted ASN universe (load-gen planning)."""
        return [asn for asns, _records in self._shards for asn in asns]

    def record(self, asn: ASN) -> Optional[AsnRecord]:
        """The ASN's record via two binary searches, or ``None``."""
        shard_pos = bisect_left(self._his, asn)
        if shard_pos >= len(self._shards):
            return None
        asns, records = self._shards[shard_pos]
        pos = bisect_left(asns, asn)
        if pos < len(asns) and asns[pos] == asn:
            return records[pos]
        return None

    def _records_in_range(
        self, lo: ASN, hi: ASN
    ) -> Iterator[AsnRecord]:
        """Records with ``lo <= asn <= hi``, ascending."""
        shard_pos = bisect_left(self._his, lo)
        while shard_pos < len(self._shards):
            asns, records = self._shards[shard_pos]
            if asns[0] > hi:
                return
            start = bisect_left(asns, lo)
            stop = bisect_right(asns, hi)
            yield from records[start:stop]
            shard_pos += 1

    # -- query API (JSON-ready) ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Identity and shape of the served snapshot."""
        meta = self.meta
        return {
            "snapshot": self.digest,
            "config_hash": self.doc.get("config_hash"),
            "window": {"start": to_iso(meta.start), "end": to_iso(meta.end)},
            "timeout": meta.timeout,
            "min_peers": meta.min_peers,
            "counts": self.doc.get("counts", {}),
            "shards": len(self._shards),
        }

    def lives(self, asn: ASN) -> Optional[Dict[str, Any]]:
        """Both lifetime datasets of one ASN (the Listing-1 records)."""
        record = self.record(asn)
        if record is None:
            return None
        return {
            "asn": asn,
            "snapshot": self.digest,
            "admin": [_admin_json(record, i) for i in range(len(record.admin))],
            "op": [_op_json(record, i) for i in range(len(record.op))],
        }

    def taxonomy(self, asn: ASN) -> Optional[Dict[str, Any]]:
        """The §5 category of every lifetime of one ASN, plus counts."""
        record = self.record(asn)
        if record is None:
            return None
        counts: Dict[str, int] = {}
        for category in record.admin_cats + record.op_cats:
            counts[category.value] = counts.get(category.value, 0) + 1
        return {
            "asn": asn,
            "snapshot": self.digest,
            "admin": [category.value for category in record.admin_cats],
            "op": [category.value for category in record.op_cats],
            "counts": counts,
        }

    def as_of(self, asn: ASN, day: Day) -> Optional[Dict[str, Any]]:
        """The ASN's state on one day: covering lives + raw visibility."""
        record = self.record(asn)
        if record is None:
            return None
        admin = next(
            (
                _admin_json(record, i)
                for i, life in enumerate(record.admin)
                if life.start <= day <= life.end
            ),
            None,
        )
        op = next(
            (
                _op_json(record, i)
                for i, life in enumerate(record.op)
                if life.start <= day <= life.end
            ),
            None,
        )
        observed = day in record.observed  # O(log n) interval bisect
        single = day in record.single
        return {
            "asn": asn,
            "snapshot": self.digest,
            "date": to_iso(day),
            "allocated": admin is not None,
            "admin": admin,
            "op": op,
            "observed": observed,
            "single_peer": single,
        }

    def range_summary(
        self, lo: ASN, hi: ASN, *, limit: int = DEFAULT_RANGE_LIMIT
    ) -> Dict[str, Any]:
        """Per-ASN lifetime/category counts over an ASN range."""
        limit = max(1, min(limit, DEFAULT_RANGE_LIMIT))
        rows: List[Dict[str, Any]] = []
        truncated = False
        total = 0
        for record in self._records_in_range(lo, hi):
            total += 1
            if len(rows) >= limit:
                truncated = True
                continue
            rows.append({
                "asn": record.asn,
                "admin_lives": len(record.admin),
                "op_lives": len(record.op),
                "categories": sorted(
                    {c.value for c in record.admin_cats + record.op_cats}
                ),
            })
        return {
            "snapshot": self.digest,
            "lo": lo,
            "hi": hi,
            "count": total,
            "truncated": truncated,
            "asns": rows,
        }

    def range_as_of(
        self, lo: ASN, hi: ASN, day: Day, *, limit: int = DEFAULT_RANGE_LIMIT
    ) -> Dict[str, Any]:
        """Which ASNs in a range were allocated/active on one day."""
        limit = max(1, min(limit, DEFAULT_RANGE_LIMIT))
        rows: List[Dict[str, Any]] = []
        truncated = False
        allocated = active = 0
        for record in self._records_in_range(lo, hi):
            is_alloc = any(
                life.start <= day <= life.end for life in record.admin
            )
            is_active = any(life.start <= day <= life.end for life in record.op)
            if not is_alloc and not is_active:
                continue
            allocated += is_alloc
            active += is_active
            if len(rows) >= limit:
                truncated = True
                continue
            rows.append({
                "asn": record.asn,
                "allocated": is_alloc,
                "active": is_active,
            })
        return {
            "snapshot": self.digest,
            "lo": lo,
            "hi": hi,
            "date": to_iso(day),
            "allocated": allocated,
            "active": active,
            "truncated": truncated,
            "asns": rows,
        }

    def __len__(self) -> int:
        return sum(len(asns) for asns, _records in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StoreIndex {self.digest[:12]} asns={len(self)} "
            f"shards={len(self._shards)}>"
        )
