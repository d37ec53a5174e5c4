"""Append-only run registry: address past runs by manifest digest.

``repro inspect diff`` wants to compare "that run from before lunch"
with "this one" without the user remembering directory paths.  Each
``simulate`` invocation that writes a manifest appends one line to a
``runs.jsonl`` index — manifest digest, config hash, ``git describe``,
and the absolute artifact paths — so later commands can resolve a digest
prefix back to a loadable run.

The index is deliberately dumb: JSON lines, append-only, written with a
single ``O_APPEND`` write per run so concurrent appenders interleave at
line granularity (POSIX appends of this size are atomic on local
filesystems).  The reader tolerates a torn final line, and the next
writer starts its entry on a fresh line — a crashed writer costs one
entry, never the index.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = [
    "RUNS_FORMAT",
    "record_run",
    "load_runs",
    "resolve_run",
    "run_path",
    "RunLookupError",
]

#: Format tag carried by every index line.
RUNS_FORMAT = "run-index/v1"


class RunLookupError(KeyError):
    """A digest prefix matched zero or several registered runs."""


def record_run(
    index_path: Union[str, Path],
    manifest: Mapping[str, Any],
    artifacts: Mapping[str, Union[str, Path, None]],
) -> Dict[str, Any]:
    """Append one run's identity + artifact locations to the index.

    ``artifacts`` maps kind (``manifest``/``metrics``/``trace``/
    ``ledger``/``admin``/``operational``) to the written path; ``None``
    values (artifact not requested) are skipped.  Paths are stored
    absolute so the index resolves from any working directory.
    """
    index_path = Path(index_path)
    index_path.parent.mkdir(parents=True, exist_ok=True)
    entry: Dict[str, Any] = {
        "format": RUNS_FORMAT,
        "digest": manifest.get("digest"),
        "config_hash": manifest.get("config_hash"),
        "git": manifest.get("git"),
        "artifacts": {
            kind: str(Path(path).resolve())
            for kind, path in sorted(artifacts.items())
            if path is not None
        },
    }
    line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    fd = os.open(
        index_path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        # a torn tail from a crashed writer must not swallow this entry
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = "\n" + line
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
    return entry


def load_runs(index_path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every well-formed entry in the index, oldest first.

    Torn or foreign lines are skipped, not fatal: the index is an
    accelerator, and one crashed writer must not poison every later
    ``inspect diff``.
    """
    index_path = Path(index_path)
    if not index_path.exists():
        return []
    entries: List[Dict[str, Any]] = []
    with index_path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and entry.get("format") == RUNS_FORMAT:
                entries.append(entry)
    return entries


def resolve_run(
    index_path: Union[str, Path],
    prefix: str,
) -> Dict[str, Any]:
    """The unique index entry whose digest starts with ``prefix``.

    Re-registrations of the same digest collapse to the newest entry
    (re-running an identical config is common and unambiguous).
    Raises :class:`RunLookupError` on zero or several distinct matches.
    """
    prefix = prefix.strip().lower()
    if not prefix:
        raise RunLookupError("empty digest prefix")
    by_digest: Dict[str, Dict[str, Any]] = {}
    for entry in load_runs(index_path):
        digest = str(entry.get("digest") or "")
        if digest.lower().startswith(prefix):
            by_digest[digest] = entry  # newest entry per digest wins
    if not by_digest:
        raise RunLookupError(
            f"no run with digest prefix {prefix!r} in {index_path}"
        )
    if len(by_digest) > 1:
        sample = ", ".join(sorted(d[:12] for d in by_digest))
        raise RunLookupError(
            f"digest prefix {prefix!r} is ambiguous in {index_path}: "
            f"matches {sample}"
        )
    return next(iter(by_digest.values()))


def run_path(entry: Mapping[str, Any]) -> Optional[Path]:
    """The run directory implied by an entry's artifact paths."""
    for kind in ("manifest", "trace", "metrics", "ledger"):
        path = entry.get("artifacts", {}).get(kind)
        if path:
            return Path(path).parent
    return None
