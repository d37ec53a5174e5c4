"""Pipeline runtime: artifact caching, observability, fault injection.

The paper's real corpus (~930G RIB records, 107k ASNs over 6,350 days)
is processed once and then queried forever; this package gives the
reproduction pipeline the same operational shape.

* :mod:`repro.runtime.cache` — content-addressed on-disk artifacts so
  an already-built world is loaded, not re-simulated; entries carry
  checksum manifests verified on load, and corrupt entries are
  quarantined, never trusted and never deleted blind.
* :mod:`repro.runtime.observability` — the run's one
  :class:`~repro.runtime.observability.Tracer`: per-stage spans (wall
  time, item counts), the ``stage.<name>.seconds`` metrics, and the
  runtime's degradation event log, surfaced through ``simulate
  --profile``, ``--trace`` and the run manifest.
* :mod:`repro.runtime.faults` — deterministic, seeded failure
  injection (torn writes, disk full, read-only directories, ...) so
  every failure mode the hardening claims to survive is provoked in
  tests and CI.
* :mod:`repro.runtime.ledger` — dataflow conservation accounting:
  every lossy boundary counts records in/kept/dropped-by-reason, a
  closure checker fails any stage where the books don't balance.
* :mod:`repro.runtime.inspect` — read-only consumers of the exported
  artifacts: span-tree rendering, flamegraph export, and cross-run
  diffing with cause attribution.
* :mod:`repro.runtime.runs` — append-only ``runs.jsonl`` registry so
  past runs are addressable by manifest-digest prefix.
"""

from .cache import (
    ACTIVITY_TABLE_VERSION,
    MANIFEST_FORMAT,
    PIPELINE_VERSION,
    ArtifactCache,
    CacheError,
    CacheStoreError,
    cache_key,
    dumps_with_gc_paused,
    fingerprint,
    loads_with_gc_paused,
)
from .faults import (
    USE_ENV_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultSpec,
)
from .inspect import (
    RunArtifacts,
    TraceView,
    critical_path,
    diff_runs,
    folded_stacks,
    load_run,
    load_trace,
    render_diff,
    render_trace,
    trace_view,
)
from .ledger import (
    LEDGER_FORMAT,
    build_ledger,
    check_ledger,
    load_ledger,
    record_boundary,
    render_ledger,
    write_ledger,
)
from .observability import (
    RUN_MANIFEST_FORMAT,
    TRACE_FORMAT,
    MetricsRegistry,
    Span,
    Tracer,
    build_run_manifest,
    get_metrics,
    git_describe,
    reset_metrics,
    write_json_atomic,
    write_jsonl_atomic,
    write_run_manifest,
)
from .runs import (
    RUNS_FORMAT,
    RunLookupError,
    load_runs,
    record_run,
    resolve_run,
    run_path,
)

__all__ = [
    "RUN_MANIFEST_FORMAT",
    "TRACE_FORMAT",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "build_run_manifest",
    "get_metrics",
    "git_describe",
    "reset_metrics",
    "write_json_atomic",
    "write_jsonl_atomic",
    "write_run_manifest",
    "PIPELINE_VERSION",
    "ACTIVITY_TABLE_VERSION",
    "MANIFEST_FORMAT",
    "ArtifactCache",
    "CacheError",
    "CacheStoreError",
    "cache_key",
    "dumps_with_gc_paused",
    "fingerprint",
    "loads_with_gc_paused",
    "USE_ENV_FAULTS",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "LEDGER_FORMAT",
    "build_ledger",
    "check_ledger",
    "load_ledger",
    "record_boundary",
    "render_ledger",
    "write_ledger",
    "RunArtifacts",
    "TraceView",
    "critical_path",
    "diff_runs",
    "folded_stacks",
    "load_run",
    "load_trace",
    "render_diff",
    "render_trace",
    "trace_view",
    "RUNS_FORMAT",
    "RunLookupError",
    "load_runs",
    "record_run",
    "resolve_run",
    "run_path",
]
