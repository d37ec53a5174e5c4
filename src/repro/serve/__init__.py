"""Lifetimes-as-a-service: a read-optimized query layer over the
paper's per-ASN datasets.

The batch pipeline (``repro.simulation`` → ``repro.lifetimes`` →
``repro.core``) answers "rebuild everything and compare"; this package
answers "what is AS 3333's story?" without a rebuild:

* :mod:`repro.serve.store` — the sharded ``serve-store/v1`` on-disk
  format: canonical-JSON shards over the sorted ASN universe, a
  binary-searchable shard index, and a deterministic snapshot manifest
  registered in the run registry.  All writes go through the artifact
  cache's atomic publish with byte-for-byte read-back verification.
* :mod:`repro.serve.index` — :class:`StoreIndex`, the in-memory view
  answering point, as-of-date, and range queries in O(log n).
* :mod:`repro.serve.append` — incremental day-append, byte-identical
  to a full rebuild over the extended window.
* :mod:`repro.serve.http` — the stdlib-asyncio HTTP/JSON front end.
* :mod:`repro.serve.telemetry` — live service telemetry: labeled
  per-route metrics, Prometheus text exposition (``/metrics``),
  structured JSONL access logs, and the sliding-window SLO tracker.
* :mod:`repro.serve.loadgen` — the deterministic zipf-skewed load
  generator behind ``serve-bench`` and the serve benchmarks, with an
  end-to-end ``/metrics`` consistency check (client-observed vs
  server-reported).

CLI entry points: ``repro serve-build``, ``repro serve-append``,
``repro serve``, ``repro serve-bench``.
"""

from .append import append_days
from .http import LifetimesServer, route_template
from .index import DEFAULT_RANGE_LIMIT, StoreIndex
from .loadgen import (
    LoadReport,
    QueryPlan,
    plan_queries,
    run_load,
    run_load_checked,
)
from .telemetry import (
    AccessLog,
    ServerTelemetry,
    SloWindow,
    labeled,
    parse_exposition,
    render_exposition,
    split_labeled,
)
from .store import (
    DEFAULT_SHARD_SIZE,
    INDEX_NAME,
    MANIFEST_NAME,
    SERVE_SHARD_FORMAT,
    SERVE_STORE_FORMAT,
    AsnRecord,
    ServeStoreError,
    StoreMeta,
    build_store,
    config_from_fingerprint,
    decode_shard,
    encode_shard,
    publish_store,
)

__all__ = [
    "append_days",
    "LifetimesServer",
    "route_template",
    "DEFAULT_RANGE_LIMIT",
    "StoreIndex",
    "LoadReport",
    "QueryPlan",
    "plan_queries",
    "run_load",
    "run_load_checked",
    "AccessLog",
    "ServerTelemetry",
    "SloWindow",
    "labeled",
    "parse_exposition",
    "render_exposition",
    "split_labeled",
    "DEFAULT_SHARD_SIZE",
    "INDEX_NAME",
    "MANIFEST_NAME",
    "SERVE_SHARD_FORMAT",
    "SERVE_STORE_FORMAT",
    "AsnRecord",
    "ServeStoreError",
    "StoreMeta",
    "build_store",
    "config_from_fingerprint",
    "decode_shard",
    "encode_shard",
    "publish_store",
]
