"""The ``serve-store/v1`` on-disk format: build, publish, load.

A serve store is a read-optimized snapshot of the paper's two
per-ASN datasets (administrative and operational lifetimes, §4) plus
the §5 taxonomy assignment, laid out for point lookups instead of
batch analysis:

``store.json``
    The shard index: snapshot identity (the snapshot-manifest digest),
    build parameters, and a sorted table of ASN-range shards with
    their payload sha256s.  Queries binary-search this table first.
``shard-NNNNN.json``
    One canonical-JSON document per ASN-range shard: a sorted ``asns``
    array plus parallel per-ASN columns — admin lifetime rows,
    operational lifetime rows, and the raw activity day sets in the
    same flat ``(start, end, start, end, ...)`` tuple form
    :class:`~repro.timeline.intervals.IntervalSet` pickles to.
``snapshot_manifest.json``
    The snapshot's identity: config fingerprint, cache versions and
    serve settings, nothing about the build (no commit, no fault
    settings, no timestamps).  It is registered in the ``runs.jsonl``
    registry, with the build's ``git describe``, so digest prefixes
    resolve to stores.

Every file goes through :class:`~repro.runtime.cache.ArtifactCache`'s
*named-entry* publish path — unique temps, manifest-first atomic
renames, sha256 sidecars, ambient fault injection — and every publish
is read back and compared byte-for-byte, retrying on torn or failed
writes and raising a typed :class:`ServeStoreError` when the retry
budget runs out.  Store bytes are a pure function of the dataset
content, which is what makes the incremental day-append
(:mod:`repro.serve.append`) provably equivalent to a full rebuild:
identical content ⇒ identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..asn.numbers import ASN
from ..core.taxonomy import Category, TaxonomyResult, classify
from ..lifetimes.bgp import (
    DEFAULT_TIMEOUT,
    OperationalActivity,
    build_operational_dataset,
)
from ..lifetimes.records import AdminLifetime, BgpLifetime
from ..runtime.cache import (
    CACHE_VERSIONS,
    USE_ENV_FAULTS,
    ArtifactCache,
    CacheStoreError,
    cache_key,
    fingerprint,
)
from ..runtime.observability import Tracer, git_describe
from ..runtime.runs import record_run
from ..timeline.dates import Day
from ..timeline.intervals import IntervalSet

__all__ = [
    "SERVE_STORE_FORMAT",
    "SERVE_SHARD_FORMAT",
    "SNAPSHOT_MANIFEST_FORMAT",
    "INDEX_NAME",
    "MANIFEST_NAME",
    "DEFAULT_SHARD_SIZE",
    "CATEGORY_ORDER",
    "ServeStoreError",
    "AsnRecord",
    "StoreMeta",
    "build_serve_records",
    "encode_shard",
    "decode_shard",
    "plan_shards",
    "store_bytes_verified",
    "load_bytes_verified",
    "publish_store",
    "build_store",
    "config_from_fingerprint",
]

#: Format tag of the shard index document (``store.json``).
SERVE_STORE_FORMAT = "serve-store/v1"

#: Format tag of each shard document.
SERVE_SHARD_FORMAT = "serve-shard/v1"

#: Format tag of the snapshot identity document.
SNAPSHOT_MANIFEST_FORMAT = "serve-snapshot/v1"

INDEX_NAME = "store.json"
MANIFEST_NAME = "snapshot_manifest.json"

#: ASNs per shard.  Shards are consecutive slices of the sorted ASN
#: universe, so the boundaries are a pure function of the content —
#: append rebuilds the same plan a full build would.
DEFAULT_SHARD_SIZE = 512

#: Fixed category order; shard rows store the index into this list.
CATEGORY_ORDER: Tuple[Category, ...] = (
    Category.COMPLETE_OVERLAP,
    Category.PARTIAL_OVERLAP,
    Category.UNUSED,
    Category.OUTSIDE_DELEGATION,
)
_CATEGORY_ID = {category: i for i, category in enumerate(CATEGORY_ORDER)}

#: Publish/read retry budgets under fault injection.  Ambient injectors
#: fire continually, and a serve store cannot degrade to "built but not
#: persisted" the way a cache entry can — so publishes retry until the
#: read-back matches and reads retry transient I/O errors, with a typed
#: error once the budget is gone.
DEFAULT_PUBLISH_RETRIES = 8
DEFAULT_READ_RETRIES = 8


class ServeStoreError(Exception):
    """A serve store could not be published, read, or validated."""


# -- record model -----------------------------------------------------------


@dataclass
class AsnRecord:
    """Everything the store knows about one ASN."""

    asn: ASN
    admin: List[AdminLifetime] = field(default_factory=list)
    op: List[BgpLifetime] = field(default_factory=list)
    admin_cats: List[Category] = field(default_factory=list)
    op_cats: List[Category] = field(default_factory=list)
    observed: IntervalSet = field(default_factory=IntervalSet)
    single: IntervalSet = field(default_factory=IntervalSet)


@dataclass(frozen=True)
class StoreMeta:
    """Build parameters every query and append must agree on."""

    start: Day
    end: Day
    timeout: int = DEFAULT_TIMEOUT
    min_peers: int = 2
    min_corroboration: int = 2
    shard_size: int = DEFAULT_SHARD_SIZE

    def to_json_dict(self) -> Dict[str, int]:
        return {
            "start": self.start,
            "end": self.end,
            "timeout": self.timeout,
            "min_peers": self.min_peers,
            "min_corroboration": self.min_corroboration,
            "shard_size": self.shard_size,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, Any]) -> "StoreMeta":
        try:
            return cls(**{f.name: int(doc[f.name]) for f in dataclasses.fields(cls)})
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeStoreError(f"malformed store meta: {exc}") from exc


def build_serve_records(
    admin_lives: Mapping[ASN, Sequence[AdminLifetime]],
    op_lives: Mapping[ASN, Sequence[BgpLifetime]],
    tables: Mapping[ASN, OperationalActivity],
    taxonomy: TaxonomyResult,
) -> Dict[ASN, AsnRecord]:
    """Join the batch datasets into per-ASN records, ASN-sorted.

    The universe is the union of every source: admin-only ASNs (the
    taxonomy's *unused* population), ASNs with operational lives, and
    ASNs whose activity never cleared the ``min_peers`` threshold but
    still carry raw day sets the append path needs.
    """
    out: Dict[ASN, AsnRecord] = {}
    for asn in sorted(set(admin_lives) | set(op_lives) | set(tables)):
        record = AsnRecord(asn=asn)
        record.admin = list(admin_lives.get(asn, ()))
        record.op = list(op_lives.get(asn, ()))
        record.admin_cats = [
            taxonomy.admin_assignment[(asn, i)] for i in range(len(record.admin))
        ]
        record.op_cats = [
            taxonomy.op_assignment[(asn, i)] for i in range(len(record.op))
        ]
        activity = tables.get(asn)
        if activity is not None:
            record.observed = activity.observed
            record.single = activity.single_peer
        out[asn] = record
    return out


# -- shard encoding ---------------------------------------------------------


def _flat(ivs: IntervalSet) -> List[Day]:
    flat: List[Day] = []
    for iv in ivs:
        flat.append(iv.start)
        flat.append(iv.end)
    return flat


def _unflat(flat: Sequence[Day]) -> IntervalSet:
    return IntervalSet._from_flat(tuple(flat))


def encode_shard(records: Sequence[AsnRecord]) -> bytes:
    """Canonical-JSON bytes of one shard (pure function of content)."""
    pool: List[str] = []
    pool_index: Dict[str, int] = {}

    def intern(text: Optional[str]) -> int:
        if text is None:
            return -1
        idx = pool_index.get(text)
        if idx is None:
            idx = pool_index[text] = len(pool)
            pool.append(text)
        return idx

    asns: List[int] = []
    admin_col: List[List[List[int]]] = []
    op_col: List[List[List[int]]] = []
    observed_col: List[List[Day]] = []
    single_col: List[List[Day]] = []
    for record in records:
        asns.append(record.asn)
        admin_rows = []
        for life, category in zip(record.admin, record.admin_cats):
            flags = (
                int(life.open_ended)
                | int(life.via_nir) << 1
                | int(life.left_censored) << 2
            )
            admin_rows.append([
                life.start,
                life.end,
                life.reg_date,
                [intern(reg) for reg in life.registries],
                intern(life.cc),
                intern(life.org_id),
                flags,
                _CATEGORY_ID[category],
            ])
        admin_col.append(admin_rows)
        op_col.append([
            [life.start, life.end, int(life.open_ended), _CATEGORY_ID[category]]
            for life, category in zip(record.op, record.op_cats)
        ])
        observed_col.append(_flat(record.observed))
        single_col.append(_flat(record.single))
    doc = {
        "format": SERVE_SHARD_FORMAT,
        "asns": asns,
        "admin": admin_col,
        "op": op_col,
        "observed": observed_col,
        "single": single_col,
        "pool": pool,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_shard(blob: bytes) -> List[AsnRecord]:
    """Parse shard bytes back into records (inverse of :func:`encode_shard`)."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServeStoreError(f"shard is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SERVE_SHARD_FORMAT:
        raise ServeStoreError(f"shard is not a {SERVE_SHARD_FORMAT} document")
    pool = doc["pool"]

    def lookup(idx: int) -> Optional[str]:
        return None if idx < 0 else pool[idx]

    out: List[AsnRecord] = []
    try:
        rows = zip(
            doc["asns"], doc["admin"], doc["op"], doc["observed"], doc["single"]
        )
        for asn, admin_rows, op_rows, observed, single in rows:
            record = AsnRecord(asn=asn)
            for start, end, reg_date, regs, cc, org, flags, cat in admin_rows:
                record.admin.append(AdminLifetime(
                    asn=asn,
                    start=start,
                    end=end,
                    reg_date=reg_date,
                    registries=tuple(pool[i] for i in regs),
                    cc=lookup(cc) or "",
                    org_id=lookup(org),
                    open_ended=bool(flags & 1),
                    via_nir=bool(flags & 2),
                    left_censored=bool(flags & 4),
                ))
                record.admin_cats.append(CATEGORY_ORDER[cat])
            for start, end, open_ended, cat in op_rows:
                record.op.append(BgpLifetime(
                    asn=asn, start=start, end=end, open_ended=bool(open_ended)
                ))
                record.op_cats.append(CATEGORY_ORDER[cat])
            record.observed = _unflat(observed)
            record.single = _unflat(single)
            out.append(record)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ServeStoreError(f"malformed shard row: {exc}") from exc
    return out


def plan_shards(
    asns: Sequence[ASN], shard_size: int = DEFAULT_SHARD_SIZE
) -> List[Tuple[str, int, int]]:
    """``(file name, first index, last index)`` per shard, in ASN order."""
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    plan = []
    for number, lo in enumerate(range(0, len(asns), shard_size)):
        hi = min(lo + shard_size, len(asns)) - 1
        plan.append((f"shard-{number:05d}.json", lo, hi))
    return plan


# -- verified publish / load -----------------------------------------------


def store_publisher(
    store_dir: Union[str, Path], *, faults: Any = USE_ENV_FAULTS
) -> ArtifactCache:
    """The cache instance all store file I/O routes through (a failed
    store raises, so :func:`store_bytes_verified` can retry it)."""
    return ArtifactCache(store_dir, faults=faults, strict_store=True)


def store_bytes_verified(
    cache: ArtifactCache,
    name: str,
    blob: bytes,
    *,
    retries: int = DEFAULT_PUBLISH_RETRIES,
) -> None:
    """Publish one store file and prove it landed intact.

    Each attempt is a full atomic publish followed by a verified
    read-back compared byte-for-byte — a torn write, an injected I/O
    error, or a mangled payload shows up as a mismatch and is retried.
    """
    failure = "never attempted"
    for _attempt in range(max(1, retries)):
        try:
            cache.store_named(name, blob)
        except CacheStoreError as exc:
            failure = str(exc)
            continue
        if cache.load_named(name) == blob:
            return
        failure = "read-back did not match published bytes"
    raise ServeStoreError(
        f"could not publish store file {name} after {retries} attempts: {failure}"
    )


def load_bytes_verified(
    cache: ArtifactCache, name: str, *, retries: int = DEFAULT_READ_RETRIES
) -> bytes:
    """Verified bytes of one store file, retrying transient read faults."""
    for _attempt in range(max(1, retries)):
        blob = cache.load_named(name)
        if blob is not None:
            return blob
    raise ServeStoreError(
        f"store file {name} is missing, unreadable, or failed verification "
        f"after {retries} attempts"
    )


# -- store assembly ---------------------------------------------------------


def _snapshot_manifest(config: Any, meta: StoreMeta) -> Dict[str, Any]:
    """The store's identity document: what it holds, not how it was built.

    Span digests, commits and ambient fault settings describe a build;
    a store reached by append, by another commit or under injection
    must carry the same identity as one fully rebuilt, so the digest
    covers the config, the cache versions and the serve parameters only.
    """
    manifest: Dict[str, Any] = {
        "format": SNAPSHOT_MANIFEST_FORMAT,
        "config": fingerprint(config),
        "config_hash": cache_key(config=config),
        "cache_versions": dict(CACHE_VERSIONS),
        "settings": fingerprint({"serve": meta.to_json_dict()}),
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    manifest["digest"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return manifest


def publish_store(
    store_dir: Union[str, Path],
    records: Mapping[ASN, AsnRecord],
    meta: StoreMeta,
    config: Any,
    *,
    faults: Any = USE_ENV_FAULTS,
    tracer: Optional[Tracer] = None,
    runs_index: Union[str, Path, None] = None,
) -> Dict[str, Any]:
    """Write (or refresh) a complete store; returns the index document.

    Shard files whose bytes already match on disk are left untouched —
    this is what makes the append path cheap, and doubles as an
    end-to-end verification pass over the untouched shards.  Shards go
    out before the index, so a reader never sees an index referencing
    an unpublished shard; stale extra shards from a previous, larger
    plan are ignored by readers (the index is the source of truth).
    """
    tracer = tracer if tracer is not None else Tracer()
    cache = store_publisher(store_dir, faults=faults)
    asns = sorted(records)
    plan = plan_shards(asns, meta.shard_size)
    manifest = _snapshot_manifest(config, meta)

    shard_rows = []
    published = 0
    with tracer.stage("serve:publish", items=len(plan), component="serve") as span:
        for name, lo, hi in plan:
            shard_asns = asns[lo:hi + 1]
            blob = encode_shard([records[asn] for asn in shard_asns])
            existing = cache.load_named(name)
            if existing != blob:
                store_bytes_verified(cache, name, blob)
                published += 1
            shard_rows.append({
                "name": name,
                "lo": shard_asns[0],
                "hi": shard_asns[-1],
                "count": len(shard_asns),
                "sha256": hashlib.sha256(blob).hexdigest(),
            })
        index_doc = {
            "format": SERVE_STORE_FORMAT,
            "digest": manifest["digest"],
            "config_hash": manifest["config_hash"],
            "meta": meta.to_json_dict(),
            "counts": {
                "asns": len(asns),
                "admin_lives": sum(len(r.admin) for r in records.values()),
                "op_lives": sum(len(r.op) for r in records.values()),
            },
            "shards": shard_rows,
        }
        index_blob = (
            json.dumps(index_doc, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        manifest_blob = (
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        if cache.load_named(MANIFEST_NAME) != manifest_blob:
            store_bytes_verified(cache, MANIFEST_NAME, manifest_blob)
        if cache.load_named(INDEX_NAME) != index_blob:
            store_bytes_verified(cache, INDEX_NAME, index_blob)
        span.set_attr("published", published)
    tracer.drain_events_from(cache)
    if runs_index is not None:
        build = git_describe(Path(__file__).resolve().parent) or "unknown"
        record_run(runs_index, {**manifest, "git": build}, {
            "store": Path(store_dir) / INDEX_NAME,
            "manifest": Path(store_dir) / MANIFEST_NAME,
        })
    return index_doc


def build_store(
    store_dir: Union[str, Path],
    world: Any,
    admin_lives: Mapping[ASN, Sequence[AdminLifetime]],
    *,
    start: Optional[Day] = None,
    end: Optional[Day] = None,
    timeout: int = DEFAULT_TIMEOUT,
    min_peers: int = 2,
    min_corroboration: int = 2,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache: Any = None,
    tracer: Optional[Tracer] = None,
    faults: Any = USE_ENV_FAULTS,
    runs_index: Union[str, Path, None] = None,
) -> Dict[str, Any]:
    """Full rebuild: columnar activity over the window, then publish.

    The same columnar engine the batch pipeline uses rebuilds the
    per-ASN activity tables over ``[start, end]``; segmentation,
    taxonomy and encoding are shared with the append path, so the two
    produce byte-identical stores for the same day range.
    """
    tracer = tracer if tracer is not None else Tracer()
    start = world.config.start_day if start is None else start
    end = world.config.end_day if end is None else end
    meta = StoreMeta(
        start=start,
        end=end,
        timeout=timeout,
        min_peers=min_peers,
        min_corroboration=min_corroboration,
        shard_size=shard_size,
    )
    op_lives, tables = build_operational_dataset(
        world,
        start=start,
        end=end,
        timeout=timeout,
        min_peers=min_peers,
        min_corroboration=min_corroboration,
        cache=cache,
        tracer=tracer,
    )
    with tracer.stage("serve:assemble", component="serve") as span:
        taxonomy = classify(admin_lives, op_lives, metrics=tracer.metrics)
        records = build_serve_records(admin_lives, op_lives, tables, taxonomy)
        span.items = len(records)
    return publish_store(
        store_dir,
        records,
        meta,
        world.config,
        faults=faults,
        tracer=tracer,
        runs_index=runs_index,
    )


def config_from_fingerprint(doc: Any) -> Any:
    """Rebuild a :class:`WorldConfig` from its manifest fingerprint.

    The fingerprint is JSON (tuples flattened to lists; the strict
    ``from_dict`` coerces them back).  Unknown keys are a hard error —
    a manifest written by a different code version must not silently
    re-simulate a *different* world.  Used by ``serve-append`` to
    re-simulate the store's exact world.
    """
    from ..simulation.config import UnknownConfigKeyError, WorldConfig

    if not isinstance(doc, Mapping) or doc.get("__class__") != "WorldConfig":
        raise ServeStoreError("manifest config is not a WorldConfig fingerprint")
    try:
        config = WorldConfig.from_dict(doc)
    except UnknownConfigKeyError as exc:
        raise ServeStoreError(f"manifest config is not reconstructible: {exc}")
    if cache_key(config=config) != cache_key(config=doc):
        raise ServeStoreError("reconstructed config does not match fingerprint")
    return config
