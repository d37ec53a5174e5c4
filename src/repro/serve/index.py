"""In-memory query index over a published serve store.

:class:`StoreIndex` opens a ``serve-store/v1`` directory: it reads the
shard table and every shard document (verified, with bounded retries
on injected read faults), parses and checks each shard's columns, and
builds a shard's records only when a query first reaches it.  It
answers the three query shapes the HTTP layer exposes:

* **point** — ``lives(asn)`` / ``taxonomy(asn)``: binary search over
  the shard bounds, then over the shard's sorted ``asns`` array —
  O(log n) end to end;
* **as-of** — ``as_of(asn, day)``: the point lookup plus binary
  searches over the record's sorted lifetime rows and flat activity
  interval arrays;
* **range** — ``range_summary(lo, hi)`` / ``range_as_of``: two binary
  searches bound the shard span, then the covered records stream out,
  O(log n + k) for k hits.  The range as-of body reads each shard's
  lives from flat int columns in one vectorised pass per shard.

Every answer carries the snapshot digest, so clients can detect a
store swap between queries.  Each shape comes twice:

* the ``*_body`` methods return the complete response body as bytes
  (``None`` for an unknown ASN), joined from fragments that are encoded
  once and kept for the life of the index — the snapshot is immutable,
  so nothing is ever invalidated.  An ASN's lives and taxonomy are
  encoded on the first query that emits them, a shard's range-summary
  rows on the first range summary that reaches the shard, and a
  shard's as-of columns (:class:`_AsOfColumns`) on the first range
  as-of that reaches it.  The HTTP server answers every data route
  with these;
* the dict methods (``lives``, ``taxonomy``, ``as_of``,
  ``range_summary``, ``range_as_of``) build a JSON-ready document per
  call.  They are the oracle the byte-identity tests and the
  benchmark's response check encode independently.

:meth:`StoreIndex.open` only loads, verifies and checks: no record is
built and no fragment encoded until a query asks for one.  ``len``,
:meth:`~StoreIndex.all_asns`, :meth:`~StoreIndex.snapshot`, the digest
and the shard bisection read only the ASN columns and the index
document, so they never build a record.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..asn.numbers import ASN
from ..runtime.cache import USE_ENV_FAULTS
from ..runtime.observability import Tracer
from ..timeline.dates import Day, to_iso
from .store import (
    INDEX_NAME,
    SERVE_STORE_FORMAT,
    AsnRecord,
    ServeStoreError,
    ShardColumns,
    StoreMeta,
    decode_rows,
    load_bytes_verified,
    parse_shard,
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


def _summary_json(record: AsnRecord) -> Dict[str, Any]:
    """One row of a range-summary body."""
    return {
        "asn": record.asn,
        "admin_lives": len(record.admin),
        "op_lives": len(record.op),
        "categories": sorted(
            {c.value for c in record.admin_cats + record.op_cats}
        ),
    }


def _taxonomy_json(record: AsnRecord) -> Dict[str, Any]:
    """The taxonomy body of one record, without the snapshot key."""
    counts: Dict[str, int] = {}
    for category in record.admin_cats + record.op_cats:
        counts[category.value] = counts.get(category.value, 0) + 1
    return {
        "asn": record.asn,
        "admin": [category.value for category in record.admin_cats],
        "op": [category.value for category in record.op_cats],
        "counts": counts,
    }


def _encode(document: Any) -> bytes:
    """Canonical JSON bytes: the encoding of every served body."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


_TRUE_FALSE = (b"false", b"true")

#: A range as-of row (keys in sorted order) up to its ASN, for codes 1
#: (allocated only), 2 (active only) and 3 (both); the ASN and ``}``
#: close it.
_AS_OF_PREFIXES = tuple(
    b'{"active":%s,"allocated":%s,"asn":' % flags
    for flags in ((b"false", b"true"), (b"true", b"false"), (b"true", b"true"))
)


def _covering(lives: Sequence[Any], day: Day) -> int:
    """Position of the first life holding ``day``, or -1."""
    for i, life in enumerate(lives):
        if life.start <= day <= life.end:
            return i
    return -1


class _RecordBytes:
    """The encoded fragments of one record.

    One fragment per admin and op life (the bytes
    ``_encode(_admin_json(...))`` / ``_encode(_op_json(...))`` give),
    and the taxonomy document without the snapshot key and closing
    brace (``"snapshot"`` sorts last, so the body appends it).
    """

    __slots__ = ("admin", "op", "taxonomy")

    def __init__(self, record: AsnRecord) -> None:
        self.admin = [
            _encode(_admin_json(record, i)) for i in range(len(record.admin))
        ]
        self.op = [_encode(_op_json(record, i)) for i in range(len(record.op))]
        self.taxonomy = _encode(_taxonomy_json(record))[:-1]


def _life_columns(records: Sequence[AsnRecord], kind: str) -> np.ndarray:
    """The ``(start, end, position)`` rows of every ``kind`` life of
    ``records``, as three int columns ascending by position."""
    flat = [
        value
        for pos, record in enumerate(records)
        for life in getattr(record, kind)
        for value in (life.start, life.end, pos)
    ]
    return np.array(flat, dtype=np.int64).reshape(-1, 3).T.copy()


class _AsOfColumns:
    """One shard's lives as flat int columns, for range as-of bodies.

    ``admin`` and ``op`` are ``(3, n)`` arrays of each life's start,
    end and record position, ascending by position.  ``rows[3 * pos +
    code - 1]`` is record ``pos``'s encoded row for code 1 (allocated
    only), 2 (active only) or 3 (both).
    """

    __slots__ = ("admin", "op", "rows")

    def __init__(self, records: Sequence[AsnRecord]) -> None:
        self.admin = _life_columns(records, "admin")
        self.op = _life_columns(records, "op")
        self.rows = np.array([
            prefix + tail
            for tail in [b"%d}" % record.asn for record in records]
            for prefix in _AS_OF_PREFIXES
        ], dtype=object)

    def codes(self, day: Day) -> np.ndarray:
        """Per record: 1 allocated, 2 active, 3 both, 0 neither on ``day``."""
        codes = np.zeros(len(self.rows) // 3, dtype=np.int8)
        starts, ends, positions = self.admin
        codes[positions[(starts <= day) & (ends >= day)]] = 1
        starts, ends, positions = self.op
        codes[positions[(starts <= day) & (ends >= day)]] |= 2
        return codes


class _Shard:
    """One shard: its ASN column, and its records from first touch on.

    Until then it holds the parsed columns of its document;
    :meth:`records` builds every record of the shard at once through
    :func:`~repro.serve.store.decode_rows` and drops the columns.  A
    shard unpacks as ``(asns, records)``, the pair
    :class:`StoreIndex` takes for a decoded shard.
    """

    __slots__ = ("asns", "_records", "_columns")

    def __init__(
        self,
        asns: List[ASN],
        records: Optional[List[AsnRecord]] = None,
        columns: Optional[ShardColumns] = None,
    ) -> None:
        self.asns = asns
        self._records = records
        self._columns = columns

    def records(self) -> List[AsnRecord]:
        """The shard's records, decoded on the first call."""
        records = self._records
        if records is None:
            records = self._records = decode_rows(self._columns)
            self._columns = None
        return records

    def __iter__(self) -> Iterator[Any]:
        return iter((self.asns, self.records()))


class StoreIndex:
    """A read-only view of one store snapshot, decoded shard by shard."""

    def __init__(
        self,
        index_doc: Dict[str, Any],
        shards: Sequence[Union[ShardColumns, Tuple[List[ASN], List[AsnRecord]]]],
    ) -> None:
        """``shards`` in ASN order, each either parsed (its records are
        built on first touch) or an ``(asns, records)`` pair."""
        if index_doc.get("format") != SERVE_STORE_FORMAT:
            raise ServeStoreError(f"not a {SERVE_STORE_FORMAT} index document")
        self.doc = index_doc
        self.digest: str = index_doc["digest"]
        self.meta = StoreMeta.from_json_dict(index_doc["meta"])
        self._shards = [
            _Shard(shard.asns, columns=shard)
            if isinstance(shard, ShardColumns)
            else _Shard(*shard)
            for shard in shards
        ]
        #: Shard upper bounds, for the first-level binary search.
        self._his: List[ASN] = [shard.asns[-1] for shard in self._shards]
        #: Each touched record's fragments, encoded on first touch.
        self._encoded: Dict[ASN, _RecordBytes] = {}
        #: Each shard's range-summary rows, encoded on first touch.
        self._summaries: List[Optional[List[bytes]]] = [None] * len(shards)
        #: Each shard's as-of columns, built on first range as-of.
        self._as_of: List[Optional[_AsOfColumns]] = [None] * len(shards)
        self._snapshot_json = json.dumps(self.digest).encode()

    # -- construction --------------------------------------------------

    @classmethod
    def open(
        cls,
        store_dir: Union[str, Path],
        *,
        faults: Any = USE_ENV_FAULTS,
        tracer: Optional[Tracer] = None,
    ) -> "StoreIndex":
        """Open a store directory; no record is built until queried.

        The index and every shard are read and verified against their
        sha256 sidecars.  Each shard is parsed and checked: its format
        tag, equal-length columns, strictly ascending ASNs, and ASN
        bounds and count equal to its index row.  Its rows are only
        decoded when a query first reaches the shard, so a malformed
        row fails that query, not the open.

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
        shards: List[ShardColumns] = []
        for row in index_doc.get("shards", ()):
            columns = parse_shard(
                load_bytes_verified(cache, row["name"], tracer=tracer)
            )
            asns = columns.asns
            if (
                not asns
                or asns[0] != row["lo"]
                or asns[-1] != row["hi"]
                or len(asns) != row.get("count")
            ):
                raise ServeStoreError(
                    f"shard {row['name']} does not match its index row"
                )
            shards.append(columns)
        return cls(index_doc, shards)

    # -- lookups -------------------------------------------------------

    def all_asns(self) -> List[ASN]:
        """The store's full sorted ASN universe (load-gen planning)."""
        return [asn for shard in self._shards for asn in shard.asns]

    def iter_records(self) -> Iterator[AsnRecord]:
        """Every record in ASN order, decoding each shard as it is reached."""
        for shard in self._shards:
            yield from shard.records()

    def _locate(self, asn: ASN) -> Optional[Tuple[int, int]]:
        """``(shard, position)`` of the ASN via two binary searches."""
        shard_pos = bisect_left(self._his, asn)
        if shard_pos >= len(self._shards):
            return None
        asns = self._shards[shard_pos].asns
        pos = bisect_left(asns, asn)
        if pos < len(asns) and asns[pos] == asn:
            return shard_pos, pos
        return None

    def record(self, asn: ASN) -> Optional[AsnRecord]:
        """The ASN's record, or ``None``."""
        located = self._locate(asn)
        if located is None:
            return None
        shard_pos, pos = located
        return self._shards[shard_pos].records()[pos]

    def _spans_in_range(
        self, lo: ASN, hi: ASN
    ) -> Iterator[Tuple[int, int, int]]:
        """The non-empty ``(shard, start, stop)`` slices holding
        ``lo <= asn <= hi``."""
        shard_pos = bisect_left(self._his, lo)
        while shard_pos < len(self._shards):
            asns = self._shards[shard_pos].asns
            if asns[0] > hi:
                return
            start, stop = bisect_left(asns, lo), bisect_right(asns, hi)
            if start < stop:
                yield shard_pos, start, stop
            shard_pos += 1

    def _records_in_range(
        self, lo: ASN, hi: ASN
    ) -> Iterator[AsnRecord]:
        """Records with ``lo <= asn <= hi``, ascending."""
        for shard_pos, start, stop in self._spans_in_range(lo, hi):
            yield from self._shards[shard_pos].records()[start:stop]

    def _fragments(self, record: AsnRecord) -> _RecordBytes:
        """The record's fragments, encoded on the first call."""
        encoded = self._encoded.get(record.asn)
        if encoded is None:
            encoded = self._encoded[record.asn] = _RecordBytes(record)
        return encoded

    def _summary_rows(self, shard_pos: int) -> List[bytes]:
        """The shard's range-summary rows, encoded on the first call."""
        rows = self._summaries[shard_pos]
        if rows is None:
            rows = [
                _encode(_summary_json(r)) for r in self._shards[shard_pos].records()
            ]
            self._summaries[shard_pos] = rows
        return rows

    def _as_of_columns(self, shard_pos: int) -> _AsOfColumns:
        """The shard's as-of columns, built on the first call."""
        columns = self._as_of[shard_pos]
        if columns is None:
            columns = self._as_of[shard_pos] = _AsOfColumns(
                self._shards[shard_pos].records()
            )
        return columns

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
        return {**_taxonomy_json(record), "snapshot": self.digest}

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
            rows.append(_summary_json(record))
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

    # -- query API (response bodies) -----------------------------------

    def lives_body(self, asn: ASN) -> Optional[bytes]:
        """The :meth:`lives` body, encoded, or ``None``."""
        record = self.record(asn)
        if record is None:
            return None
        encoded = self._fragments(record)
        return b'{"admin":[%s],"asn":%d,"op":[%s],"snapshot":%s}\n' % (
            b",".join(encoded.admin), asn,
            b",".join(encoded.op), self._snapshot_json,
        )

    def taxonomy_body(self, asn: ASN) -> Optional[bytes]:
        """The :meth:`taxonomy` body, encoded, or ``None``."""
        record = self.record(asn)
        if record is None:
            return None
        return b'%s,"snapshot":%s}\n' % (
            self._fragments(record).taxonomy, self._snapshot_json,
        )

    def as_of_body(self, asn: ASN, day: Day) -> Optional[bytes]:
        """The :meth:`as_of` body, encoded, or ``None``."""
        record = self.record(asn)
        if record is None:
            return None
        admin = _covering(record.admin, day)
        op = _covering(record.op, day)
        return (
            b'{"admin":%s,"allocated":%s,"asn":%d,"date":"%s","observed":%s,'
            b'"op":%s,"single_peer":%s,"snapshot":%s}\n'
        ) % (
            self._fragments(record).admin[admin] if admin >= 0 else b"null",
            _TRUE_FALSE[admin >= 0],
            asn,
            to_iso(day).encode(),
            _TRUE_FALSE[day in record.observed],
            self._fragments(record).op[op] if op >= 0 else b"null",
            _TRUE_FALSE[day in record.single],
            self._snapshot_json,
        )

    def range_summary_body(
        self, lo: ASN, hi: ASN, *, limit: int = DEFAULT_RANGE_LIMIT
    ) -> bytes:
        """The :meth:`range_summary` body, encoded."""
        limit = max(1, min(limit, DEFAULT_RANGE_LIMIT))
        rows: List[bytes] = []
        total = 0
        for shard_pos, start, stop in self._spans_in_range(lo, hi):
            total += stop - start
            room = limit - len(rows)
            if room > 0:
                summary = self._summary_rows(shard_pos)
                rows += summary[start:min(stop, start + room)]
        return (
            b'{"asns":[%s],"count":%d,"hi":%d,"lo":%d,"snapshot":%s,'
            b'"truncated":%s}\n'
        ) % (
            b",".join(rows), total, hi, lo, self._snapshot_json,
            _TRUE_FALSE[total > limit],
        )

    def range_as_of_body(
        self, lo: ASN, hi: ASN, day: Day, *, limit: int = DEFAULT_RANGE_LIMIT
    ) -> bytes:
        """The :meth:`range_as_of` body, encoded."""
        limit = max(1, min(limit, DEFAULT_RANGE_LIMIT))
        rows: List[bytes] = []
        allocated = active = matched = 0
        for shard_pos, start, stop in self._spans_in_range(lo, hi):
            columns = self._as_of_columns(shard_pos)
            codes = columns.codes(day)[start:stop]
            _none, alloc_only, active_only, both = np.bincount(
                codes, minlength=4
            ).tolist()
            allocated += alloc_only + both
            active += active_only + both
            matched += alloc_only + active_only + both
            room = limit - len(rows)
            if room > 0:
                picked = codes.nonzero()[0][:room]
                rows += columns.rows[
                    3 * (start + picked) + codes[picked] - 1
                ].tolist()
        return (
            b'{"active":%d,"allocated":%d,"asns":[%s],"date":"%s","hi":%d,'
            b'"lo":%d,"snapshot":%s,"truncated":%s}\n'
        ) % (
            active, allocated, b",".join(rows), to_iso(day).encode(), hi, lo,
            self._snapshot_json, _TRUE_FALSE[matched > limit],
        )

    def __len__(self) -> int:
        return sum(len(shard.asns) for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StoreIndex {self.digest[:12]} asns={len(self)} "
            f"shards={len(self._shards)}>"
        )
