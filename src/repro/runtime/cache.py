"""Content-addressed on-disk cache for pipeline artifacts.

Back-to-the-Future-Whois-style services answer historical queries from
precomputed state instead of re-deriving the world per request; the
artifact cache gives this pipeline the same property.  A cache entry is
addressed by a SHA-256 over the *content that determines the artifact*:
the full :class:`~repro.simulation.config.WorldConfig`, the
:class:`~repro.rir.pitfalls.PitfallConfig`, the lifetime-inference
parameters, and a pipeline version tag — so any change to any input
(or to the pipeline semantics, via the tag) misses and rebuilds, while
repeated builds of the same world hit and skip everything.

Entries are pickled with the highest protocol and written atomically
(unique temp file + ``os.replace``), so concurrent builders — e.g.
pytest-xdist workers racing on the benchmark bundle — can share one
cache directory: both build, one rename wins, nobody observes a torn
file.  Loads run with the cyclic garbage collector paused: unpickling
millions of small interval/record objects is an order of magnitude
faster without intermediate GC passes, and that speed is the whole
point of a hit.

Precomputed state is only useful if it can be *trusted* after crashes,
so every entry carries a sidecar manifest (payload SHA-256, byte
length, pipeline version) that is checked on every load.  An entry
whose bytes do not match its manifest — a torn write that a crash
made visible, bit rot, a truncated file — is moved to a
``quarantine/`` directory for post mortems and treated as a miss, and
the artifact is rebuilt; an entry is never deleted blind, and a
corrupt load can never return a wrong artifact silently.  Failed
stores degrade gracefully by default (the built artifact is returned,
the entry is simply not persisted, and the failure is surfaced in
:attr:`ArtifactCache.events`); strict callers get a typed
:class:`CacheStoreError` instead.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .faults import USE_ENV_FAULTS, FaultInjector, resolve_faults
from .observability import MetricsRegistry, resolve_metrics

__all__ = [
    "PIPELINE_VERSION",
    "ACTIVITY_TABLE_VERSION",
    "MANIFEST_FORMAT",
    "CACHE_VERSIONS",
    "USE_ENV_FAULTS",
    "CacheError",
    "CacheStoreError",
    "ArtifactCache",
    "fingerprint",
    "cache_key",
    "dumps_with_gc_paused",
    "loads_with_gc_paused",
]

#: Bump whenever the pipeline's semantics change in a way that makes
#: previously cached bundles stale (new restoration step, changed
#: lifetime rules, ...).  Part of every cache key.
PIPELINE_VERSION = "2026.08-1"

#: Version tag of the ``activity-table`` bundle component (the per-ASN
#: :class:`~repro.lifetimes.bgp.OperationalActivity` tables the columnar
#: BGP activity engine produces).  Part of every activity-table cache
#: key; bump when the tables' semantics change, i.e. whenever the engine
#: and its object-stream test oracle would agree on a new output.
ACTIVITY_TABLE_VERSION = "activity-table/v1"

#: Format tag of the per-entry sidecar manifest.
MANIFEST_FORMAT = "artifact-manifest/v1"

#: Every version tag above, by name, as run manifests and serve
#: snapshot identities record them.
CACHE_VERSIONS = {
    "pipeline": PIPELINE_VERSION,
    "activity_table": ACTIVITY_TABLE_VERSION,
    "entry_manifest": MANIFEST_FORMAT,
}

#: Payloads are pickled inside a tagged envelope so that a legitimately
#: cached ``None`` (or any falsy artifact) is distinguishable from a
#: miss — :meth:`ArtifactCache.get_or_build` must not rebuild forever
#: just because the builder returned ``None``.
_ENVELOPE_TAG = "repro/artifact-envelope/v1"

#: Internal miss marker (never a valid artifact).
_MISS = object()

#: Per-process counter making temp/quarantine names unique across the
#: threads of one process (the pid alone collides under pytest-xdist's
#: in-process threads and any threaded caller).
_UNIQUE = itertools.count()


class CacheError(Exception):
    """Base class for typed artifact-cache failures."""


class CacheStoreError(CacheError):
    """An artifact could not be persisted (and the caller asked to know)."""


def fingerprint(obj: Any) -> Any:
    """Reduce configs to a canonical JSON-compatible structure.

    Dataclasses become ``{"__class__": name, **fields}`` so two config
    types with identical field values still key differently; dicts are
    emitted with sorted keys; tuples and sets become lists (sets
    sorted).  Raises ``TypeError`` for anything non-canonical (lambdas,
    open files, ...), which is the safe failure mode for a cache key.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = fingerprint(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): fingerprint(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [fingerprint(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [fingerprint(v) for v in sorted(obj)]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot fingerprint {type(obj).__name__} for a cache key")


def cache_key(**parts: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of keyword parts."""
    canonical = json.dumps(
        fingerprint(parts), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dumps_with_gc_paused(obj: Any) -> bytes:
    """``pickle.dumps`` with the cyclic collector paused.

    Serializing object graphs with hundreds of thousands of small
    records triggers repeated generational collections whose passes
    scan the very objects being written; pausing the collector for the
    duration is an order-of-magnitude win and safe (nothing here
    creates garbage cycles).
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        if gc_was_enabled:
            gc.enable()


def loads_with_gc_paused(blob: bytes) -> Any:
    """``pickle.loads`` with the cyclic collector paused (see above)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(blob)
    finally:
        if gc_was_enabled:
            gc.enable()


class ArtifactCache:
    """A directory of content-addressed pickled artifacts.

    Every loaded payload is checked against its sidecar manifest.

    Parameters
    ----------
    faults:
        A :class:`~repro.runtime.faults.FaultInjector` to consult at
        the cache's failure-prone points, ``None`` for no injection, or
        the default :data:`USE_ENV_FAULTS` to pick up the ambient
        environment-configured injector (the CI fault-injection run).
    strict_store:
        When true, a failed :meth:`store` raises
        :class:`CacheStoreError` instead of degrading to "built but not
        persisted".
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        faults: Any = USE_ENV_FAULTS,
        strict_store: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.faults: Optional[FaultInjector] = resolve_faults(faults)
        self.strict_store = strict_store
        #: Where counters (``cache.hits``, ``cache.verify_failures``,
        #: ...) aggregate; ``None`` means the process-global registry.
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.store_failures = 0
        #: Human-readable log of degradations (quarantines, failed
        #: stores); pipeline drivers drain this into the run's
        #: :attr:`~repro.runtime.observability.Tracer.events`.
        self.events: List[str] = []

    def _inc(self, metric: str, n: int = 1) -> None:
        resolve_metrics(self.metrics).inc(metric, n)

    # -- paths ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def manifest_path_for(self, key: str) -> Path:
        return self.root / f"{key}.manifest.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def key_for(self, **parts: Any) -> str:
        """Key for artifact-determining parts (version tag included)."""
        parts.setdefault("pipeline_version", PIPELINE_VERSION)
        return cache_key(**parts)

    # -- loading -------------------------------------------------------

    def _read_payload(self, path: Path) -> Optional[bytes]:
        try:
            if self.faults is not None:
                self.faults.on_read(path)
            return path.read_bytes()
        except OSError:
            return None

    def _read_manifest(self, manifest_path: Path) -> Optional[Dict[str, Any]]:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    @staticmethod
    def _manifest_matches(manifest: Optional[Dict[str, Any]], blob: bytes) -> bool:
        return (
            manifest is not None
            and manifest.get("length") == len(blob)
            and manifest.get("sha256") == hashlib.sha256(blob).hexdigest()
        )

    def _quarantine(self, path: Path, observed: bytes) -> None:
        """Move the bad entry aside — but only the bytes actually read.

        A plain ``unlink(path)`` races with concurrent builders: a
        fresh, valid entry that another process just ``os.replace``-d
        in would be deleted on the evidence of stale bytes.  Instead:
        move the entry into ``quarantine/`` (atomic), then verify the
        moved bytes are the ones this reader judged corrupt; if they
        are not, a fresh entry raced in and is put straight back.
        """
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return  # cannot quarantine; the rebuild's store overwrites it
        qpath = self.quarantine_dir / (
            f"{path.name}.{os.getpid()}.{next(_UNIQUE)}"
        )
        try:
            os.replace(path, qpath)
        except OSError:
            return  # already gone (e.g. another reader quarantined it)
        try:
            moved = qpath.read_bytes()
        except OSError:
            return
        if moved != observed:
            # a fresh entry landed between our read and the move:
            # restore it — it was never the corrupt bytes we saw
            try:
                os.replace(qpath, path)
            except OSError:
                pass
            return
        self.quarantined += 1
        self._inc("cache.quarantined")
        self.events.append(
            f"cache: quarantined corrupt entry {path.name} -> {qpath.name}"
        )

    def _verified_payload(
        self, key: str, path: Path, manifest_path: Path
    ) -> Optional[bytes]:
        """The payload bytes iff they are readable and match the sidecar
        manifest; anything else counts a miss."""
        blob = self._read_payload(path)
        if blob is None:
            self._miss()
            return None
        if self._manifest_matches(self._read_manifest(manifest_path), blob):
            return blob
        # One fresh re-read closes the benign race where a concurrent
        # store's two renames (manifest, then payload) were observed
        # halfway through; after both land, fresh reads are consistent.
        fresh = self._read_payload(path)
        manifest = self._read_manifest(manifest_path)
        if fresh is not None and self._manifest_matches(manifest, fresh):
            return fresh
        if manifest is None:
            # Unverifiable, not provably corrupt (legacy entry or a
            # lost manifest): miss, but leave the payload in place for
            # the rebuild's store to overwrite.
            self.events.append(
                f"cache: entry {key[:12]} has no manifest; treating as miss"
            )
            self._miss()
            return None
        self.corrupt += 1
        self._inc("cache.verify_failures")
        self.events.append(
            f"cache: entry {key[:12]} failed sha256 verification"
        )
        self._quarantine(path, fresh if fresh is not None else blob)
        self._miss()
        return None

    def _miss(self) -> None:
        self.misses += 1
        self._inc("cache.misses")

    def lookup(self, key: str) -> Any:
        """The cached artifact, or the module-private miss marker.

        Unlike :meth:`load`, a cached ``None`` is distinguishable from
        a miss — this is what :meth:`get_or_build` consults.
        """
        path = self.path_for(key)
        blob = self._verified_payload(key, path, self.manifest_path_for(key))
        if blob is None:
            return _MISS
        try:
            obj = loads_with_gc_paused(blob)
        except Exception:
            self.corrupt += 1
            self._inc("cache.verify_failures")
            self.events.append(f"cache: entry {key[:12]} failed to unpickle")
            self._quarantine(path, blob)
            self._miss()
            return _MISS
        self.hits += 1
        self._inc("cache.hits")
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and obj[0] == _ENVELOPE_TAG
        ):
            return obj[1]
        return obj  # legacy entry written before envelopes

    def load(self, key: str) -> Optional[Any]:
        """Return the cached artifact, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss and is
        quarantined, so a crashed writer can never poison later runs.
        (``None`` is ambiguous here by design — callers caching
        possibly-``None`` artifacts go through :meth:`get_or_build`.)
        """
        value = self.lookup(key)
        return None if value is _MISS else value

    # -- storing -------------------------------------------------------

    def store(self, key: str, artifact: Any) -> Optional[Path]:
        """Atomically persist an artifact (payload + manifest).

        On I/O failure (disk full, read-only directory, ...) the
        partially written temp files are always removed; by default the
        failure is recorded in :attr:`events` and ``None`` is returned
        — the pipeline continues with the freshly built artifact,
        merely uncached.  With ``strict_store=True`` on the cache a
        :class:`CacheStoreError` is raised instead.
        """
        try:
            blob = dumps_with_gc_paused((_ENVELOPE_TAG, artifact))
        except Exception as exc:
            # an unpicklable artifact is a caller bug, never degraded
            raise CacheStoreError(
                f"artifact for {key} is not picklable: {exc}"
            ) from exc
        return self._publish(
            key,
            blob,
            path=self.path_for(key),
            manifest_path=self.manifest_path_for(key),
            kind="pickle",
        )

    def _publish(
        self,
        key: str,
        blob: bytes,
        *,
        path: Path,
        manifest_path: Path,
        kind: str,
    ) -> Optional[Path]:
        manifest_blob = json.dumps(
            {
                "format": MANIFEST_FORMAT,
                "kind": kind,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "length": len(blob),
                "pipeline_version": PIPELINE_VERSION,
            },
            sort_keys=True,
        ).encode("utf-8")

        uniq = f"tmp.{os.getpid()}.{next(_UNIQUE)}"
        tmp_payload = self.root / f"{path.name}.{uniq}"
        tmp_manifest = self.root / f"{manifest_path.name}.{uniq}"
        try:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                if self.faults is not None:
                    self.faults.on_write(tmp_manifest, manifest_blob)
                tmp_manifest.write_bytes(manifest_blob)
                payload_bytes = (
                    blob if self.faults is None else self.faults.mangle_write(blob)
                )
                if self.faults is not None:
                    self.faults.on_write(tmp_payload, payload_bytes)
                tmp_payload.write_bytes(payload_bytes)
                # publish the manifest first, the payload second: the
                # instant a payload becomes visible, a matching
                # manifest is already beside it (the reverse order
                # would widen the mismatch window for verified readers)
                if self.faults is not None:
                    self.faults.on_replace(tmp_manifest, manifest_path)
                os.replace(tmp_manifest, manifest_path)
                if self.faults is not None:
                    self.faults.on_replace(tmp_payload, path)
                os.replace(tmp_payload, path)
            finally:
                # whatever failed above, never leak temp files
                for tmp in (tmp_payload, tmp_manifest):
                    tmp.unlink(missing_ok=True)
            self._inc("cache.stores")
        except OSError as exc:
            self.store_failures += 1
            self._inc("cache.store_failures")
            self.events.append(
                f"cache: store of {key[:12]} failed ({exc}); continuing uncached"
            )
            if self.strict_store:
                raise CacheStoreError(
                    f"could not store artifact {key}: {exc}"
                ) from exc
            return None
        return path

    # -- named entries -------------------------------------------------

    @staticmethod
    def _check_name(name: str) -> str:
        if not name or name != Path(name).name or name.startswith("."):
            raise ValueError(f"invalid named cache entry {name!r}")
        return name

    def named_path(self, name: str) -> Path:
        """Payload path of a *named* entry (caller-chosen file name).

        Named entries carry the same sidecar manifest and publish
        discipline as content-addressed ones but live under a stable,
        human-meaningful file name — this is how the serve store's
        index and shard files get atomic, verified, fault-injectable
        writes without inventing a parallel publish path.
        """
        return self.root / self._check_name(name)

    def named_manifest_path(self, name: str) -> Path:
        return self.root / f"{self._check_name(name)}.manifest.json"

    def store_named(self, name: str, blob: bytes) -> Optional[Path]:
        """Atomically persist raw bytes under a caller-chosen name.

        Same guarantees as :meth:`store` (unique temps, manifest-first
        rename order, fault hooks at every write and replace,
        guaranteed temp cleanup); the payload is written byte-for-byte,
        with no pickle envelope, under a stable name.
        """
        return self._publish(
            name,
            bytes(blob),
            path=self.named_path(name),
            manifest_path=self.named_manifest_path(name),
            kind="named",
        )

    def load_named(self, name: str) -> Optional[bytes]:
        """Verified bytes of a named entry, or ``None``.

        ``None`` covers both "missing" and "corrupt" (the latter is
        quarantined first); callers that must distinguish retry the
        write and then fail typed — see ``repro.serve.store``.
        """
        blob = self._verified_payload(
            name, self.named_path(name), self.named_manifest_path(name)
        )
        if blob is None:
            return None
        self.hits += 1
        self._inc("cache.hits")
        return blob

    def get_or_build(self, key: str, builder) -> Any:
        """Load the artifact for ``key``, building and storing on a miss.

        Builders may legitimately return ``None``; the envelope makes a
        cached ``None`` hit instead of rebuilding forever.
        """
        value = self.lookup(key)
        if value is _MISS:
            value = builder()
            self.store(key, value)
        return value

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArtifactCache {self.root} "
            f"hits={self.hits} misses={self.misses} "
            f"quarantined={self.quarantined}>"
        )
