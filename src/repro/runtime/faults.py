"""Deterministic failure injection for the runtime layer.

The paper's §3.1 premise is that a 17-year pipeline must survive
defective *inputs* — missing, corrupt, and inconsistent delegation
files.  The runtime layer has inputs of its own: cache entries on
disk and the filesystem itself.  This module is the §3.1 pitfall
injector for those inputs: a seeded :class:`FaultInjector` that the
:class:`~repro.runtime.cache.ArtifactCache` consults at its
failure-prone points, so every failure mode the hardening claims to
survive can be provoked on demand, deterministically (same seed + same
call order → same faults), in tests and in CI.

Faults are described by :class:`FaultSpec` rows — *where* they strike
(a ``site``), *what* goes wrong (a ``kind``), how often (``rate``) and
how many times at most (``max_fires``):

========================  =====================================================
site                      failure-prone point
========================  =====================================================
``cache:read``            reading an entry's payload or manifest
``cache:write``           writing a temp payload/manifest file
``cache:replace``         the atomic ``os.replace`` publishing an entry
========================  =====================================================

========================  =====================================================
kind                      behaviour when fired
========================  =====================================================
``oserror``               ``OSError(EIO)`` — generic I/O failure
``read-only``             ``OSError(EROFS)`` — read-only filesystem
``disk-full``             writes a partial prefix, then ``OSError(ENOSPC)``
``torn-write``            silently persists only a seeded prefix of the bytes
``truncate``              silently persists zero bytes
========================  =====================================================

Injected faults surface as the *real* exception types the runtime has
to survive (``OSError`` subtypes) — never as a special injection
error — so the code under test cannot tell drills from disasters.

A process-wide injector can also be enabled from the environment
(:func:`from_env`): ``REPRO_FAULT_SEED`` switches it on, with
``REPRO_FAULT_RATE`` (default 0.05) and ``REPRO_FAULT_SITES`` (csv,
default all sites) tuning it.  CI runs the whole tier-1 suite once
under this ambient injection at a fixed seed: every test must still
pass, because every injected failure must end in a correct rebuilt
artifact or a clean, typed error — never a silent wrong answer.
"""

from __future__ import annotations

import errno
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .observability import get_metrics

__all__ = [
    "SITES",
    "KINDS",
    "USE_ENV_FAULTS",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "from_env",
    "resolve_faults",
    "ENV_SEED",
    "ENV_RATE",
    "ENV_SITES",
]

#: Sentinel default for ``faults`` parameters across the runtime:
#: consult :func:`from_env` (ambient suite-wide injection) unless the
#: caller explicitly passes an injector or ``None``.
USE_ENV_FAULTS = object()

SITES = ("cache:read", "cache:write", "cache:replace")

KINDS = (
    "oserror",
    "read-only",
    "disk-full",
    "torn-write",
    "truncate",
)

#: Which kinds make sense at which sites.
_SITE_KINDS = {
    "cache:read": ("oserror",),
    "cache:write": ("oserror", "read-only", "disk-full", "torn-write", "truncate"),
    "cache:replace": ("oserror", "read-only", "disk-full"),
}

ENV_SEED = "REPRO_FAULT_SEED"
ENV_RATE = "REPRO_FAULT_RATE"
ENV_SITES = "REPRO_FAULT_SITES"


@dataclass(frozen=True)
class FaultSpec:
    """One failure mode armed at one site.

    ``rate`` is the per-opportunity firing probability; ``max_fires``
    bounds total firings (``None`` = unbounded), which is how tests
    model *transient* failures — e.g. one failed read followed by a
    successful rebuild.
    """

    site: str
    kind: str
    rate: float = 1.0
    max_fires: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.site not in _SITE_KINDS:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.kind not in _SITE_KINDS[self.site]:
            raise ValueError(
                f"fault kind {self.kind!r} cannot strike site {self.site!r}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("fault rate must be within [0, 1]")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be None or >= 1")


@dataclass
class FaultEvent:
    """One fault that actually fired (the injector's ground-truth log)."""

    site: str
    kind: str
    detail: str = ""


class FaultInjector:
    """Seeded dispenser of runtime faults.

    The cache calls the ``on_*`` hooks at its failure-prone points; a hook either does nothing or makes the
    armed failure happen.  All randomness comes from one
    ``random.Random(seed)``, so a given seed and call order reproduce
    the exact same fault sequence.
    """

    def __init__(self, specs: Iterable[FaultSpec], *, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._fired: Dict[FaultSpec, int] = {}
        self.events: List[FaultEvent] = []
        #: Callables invoked with each :class:`FaultEvent` as it fires.
        #: :meth:`~repro.runtime.observability.Tracer.subscribe_faults`
        #: registers one to mirror faults into the emitted trace.
        self.listeners: List[Callable[[FaultEvent], None]] = []

    def fired(self, site: Optional[str] = None) -> int:
        """How many faults have fired (optionally at one site)."""
        if site is None:
            return len(self.events)
        return sum(1 for e in self.events if e.site == site)

    def _arm(self, site: str, exclude: Sequence[str] = ()) -> Optional[FaultSpec]:
        """The spec firing at this opportunity, if any."""
        for spec in self._by_site.get(site, ()):
            if spec.kind in exclude:
                continue
            used = self._fired.get(spec, 0)
            if spec.max_fires is not None and used >= spec.max_fires:
                continue
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                continue
            self._fired[spec] = used + 1
            return spec
        return None

    def _log(self, spec: FaultSpec, detail: str) -> None:
        event = FaultEvent(site=spec.site, kind=spec.kind, detail=detail)
        self.events.append(event)
        metrics = get_metrics()
        metrics.inc("faults.injected")
        metrics.inc(f"faults.{spec.site}.{spec.kind}")
        for listener in list(self.listeners):
            listener(event)

    # -- hooks: the runtime calls these at its failure-prone points ----

    def on_read(self, path: Path) -> None:
        """May raise ``OSError`` for a payload/manifest read."""
        spec = self._arm("cache:read")
        if spec is None:
            return
        self._log(spec, str(path))
        raise OSError(errno.EIO, f"injected read failure: {path}")

    def on_write(self, path: Path, blob: bytes) -> None:
        """May raise for a temp-file write (possibly leaving wreckage).

        ``disk-full`` writes a partial prefix before raising — exactly
        the mess a real ``ENOSPC`` leaves behind — so temp-file cleanup
        is exercised against a file that genuinely exists.
        """
        # silent-corruption kinds are applied via mangle_write and must
        # not be armed (and consumed) here
        spec = self._arm("cache:write", exclude=("torn-write", "truncate"))
        if spec is None:
            return
        self._log(spec, str(path))
        if spec.kind == "read-only":
            raise OSError(errno.EROFS, f"injected read-only filesystem: {path}")
        if spec.kind == "disk-full":
            try:
                path.write_bytes(blob[: max(1, len(blob) // 3)])
            except OSError:
                pass
            raise OSError(errno.ENOSPC, f"injected disk full: {path}")
        raise OSError(errno.EIO, f"injected write failure: {path}")

    def mangle_write(self, blob: bytes) -> bytes:
        """The bytes that actually reach disk (torn/truncated writes).

        Models data pages lost after a crash: the write and the rename
        both *appear* to succeed, but the persisted payload is a prefix
        of what was written.  Only checksum verification (or an
        unpickling error) can catch this afterwards.
        """
        for spec in self._by_site.get("cache:write", ()):
            if spec.kind not in ("torn-write", "truncate"):
                continue
            used = self._fired.get(spec, 0)
            if spec.max_fires is not None and used >= spec.max_fires:
                continue
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                continue
            self._fired[spec] = used + 1
            if spec.kind == "truncate":
                self._log(spec, f"{len(blob)} bytes -> 0")
                return b""
            cut = self._rng.randint(1, max(1, len(blob) - 1))
            self._log(spec, f"{len(blob)} bytes -> {cut}")
            return blob[:cut]
        return blob

    def on_replace(self, src: Path, dst: Path) -> None:
        """May raise ``OSError`` for the atomic publish rename."""
        spec = self._arm("cache:replace")
        if spec is None:
            return
        self._log(spec, f"{src} -> {dst}")
        if spec.kind == "read-only":
            raise OSError(errno.EROFS, f"injected read-only filesystem: {dst}")
        if spec.kind == "disk-full":
            raise OSError(errno.ENOSPC, f"injected disk full: {dst}")
        raise OSError(errno.EIO, f"injected replace failure: {dst}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        armed = sum(len(v) for v in self._by_site.values())
        return (
            f"<FaultInjector seed={self.seed} specs={armed} "
            f"fired={len(self.events)}>"
        )


def _env_specs(rate: float, sites: Sequence[str]) -> List[FaultSpec]:
    """The ambient fault mix for suite-wide injection runs.

    Every fault here is one the runtime recovers from *transparently*
    (rebuild or degrade) — the point of the CI job is that the whole
    test suite is oblivious to them.
    """
    specs: List[FaultSpec] = []
    if "cache:read" in sites:
        specs.append(FaultSpec("cache:read", "oserror", rate, None))
    if "cache:write" in sites:
        specs.append(FaultSpec("cache:write", "torn-write", rate / 2, None))
        specs.append(FaultSpec("cache:write", "disk-full", rate / 2, None))
    if "cache:replace" in sites:
        specs.append(FaultSpec("cache:replace", "oserror", rate / 2, None))
    return specs


#: Cached (env fingerprint, injector) pair so every default-constructed
#: cache in one process shares a single ambient injector (and its RNG
#: stream), keeping suite-wide injection runs deterministic.
_env_cache: Optional[Tuple[Tuple[Optional[str], Optional[str], Optional[str]], Optional[FaultInjector]]] = None


def from_env() -> Optional[FaultInjector]:
    """The process-wide ambient injector, or ``None`` when not enabled.

    Enabled by setting ``REPRO_FAULT_SEED``; ``REPRO_FAULT_RATE`` and
    ``REPRO_FAULT_SITES`` tune probability and coverage.  The injector
    is built once per environment fingerprint and shared.
    """
    global _env_cache
    fingerprint = (
        os.environ.get(ENV_SEED),
        os.environ.get(ENV_RATE),
        os.environ.get(ENV_SITES),
    )
    if _env_cache is not None and _env_cache[0] == fingerprint:
        return _env_cache[1]
    seed_text = fingerprint[0]
    injector: Optional[FaultInjector] = None
    if seed_text:
        rate = float(fingerprint[1]) if fingerprint[1] else 0.05
        sites = (
            tuple(s.strip() for s in fingerprint[2].split(",") if s.strip())
            if fingerprint[2]
            else SITES
        )
        injector = FaultInjector(_env_specs(rate, sites), seed=int(seed_text))
    _env_cache = (fingerprint, injector)
    return injector


def resolve_faults(faults: object) -> Optional[FaultInjector]:
    """Resolve a ``faults`` parameter: sentinel → env, else pass through."""
    if faults is USE_ENV_FAULTS:
        return from_env()
    return faults  # type: ignore[return-value]
