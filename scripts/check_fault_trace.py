#!/usr/bin/env python3
"""Fault→trace closure check: every injected fault must reach the trace.

Runs an instrumented serial pipeline build under deterministic ambient
fault injection (``REPRO_FAULT_SEED``), with the run's tracer subscribed to
the ambient injector, and then verifies that *every* fault the injector
actually fired appears as a ``fault: site=... kind=...`` annotation in
the emitted JSON-lines trace, and that the run's ``faults.injected``
counter equals the number fired.  It then closes the degradation
account the same way: the run's ``cache.verify_failures`` plus
``cache.store_failures`` must equal the verification and store
failure messages in the run's events, and ``cache.quarantined`` the
quarantine messages.  CI runs this after the fault-injection suite; a
fault or degradation that happens without leaving a trace annotation,
an event, or a count means the observability layer lost a failure the
runtime survived silently — exactly the blind spot the layer exists to
close.

The run's trace, metrics snapshot, and manifest are written to
``--out`` (default: a temp directory) so CI can upload them as
artifacts.

Usage::

    REPRO_FAULT_SEED=2021 REPRO_FAULT_RATE=0.5 \\
        PYTHONPATH=src python scripts/check_fault_trace.py --out /tmp/fault-run
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List

from repro.runtime import (
    ArtifactCache,
    Tracer,
    build_ledger,
    build_run_manifest,
    write_json_atomic,
    write_ledger,
    write_run_manifest,
)
from repro.runtime.faults import from_env
from repro.simulation import build_datasets
from repro.simulation.config import tiny


def degradation_mismatches(counters, events) -> List[str]:
    """How the run's cache counters and its event messages disagree.

    Verification failures (sha256 or unpickle) and failed stores must
    each have one message, and so must quarantines; an empty list means
    the account closes.
    """
    failed = sum(
        1 for event in events
        if event.startswith("cache: ")
        and (event.endswith(" failed sha256 verification")
             or event.endswith(" failed to unpickle")
             or "; continuing uncached" in event)
    )
    quarantines = sum(
        1 for event in events
        if event.startswith("cache: quarantined corrupt entry ")
    )
    counted_failed = (
        counters.get("cache.verify_failures", 0)
        + counters.get("cache.store_failures", 0)
    )
    counted_quarantines = counters.get("cache.quarantined", 0)
    mismatches = []
    if counted_failed != failed:
        mismatches.append(
            f"cache.verify_failures + cache.store_failures = {counted_failed}, "
            f"but {failed} failure events"
        )
    if counted_quarantines != quarantines:
        mismatches.append(
            f"cache.quarantined = {counted_quarantines}, "
            f"but {quarantines} quarantine events"
        )
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for the trace/metrics/manifest artifacts",
    )
    parser.add_argument("--seed", type=int, default=2021, help="world seed")
    args = parser.parse_args(argv)

    injector = from_env()
    if injector is None:
        sys.exit(
            "check_fault_trace: ambient injection is off — set REPRO_FAULT_SEED "
            "(and optionally REPRO_FAULT_RATE/REPRO_FAULT_SITES) first"
        )

    out = args.out or Path(tempfile.mkdtemp(prefix="fault-trace-"))
    out.mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    metrics = tracer.metrics
    detach = tracer.subscribe_faults(injector)
    try:
        with tempfile.TemporaryDirectory(prefix="fault-cache-") as cache_dir:
            # two builds through one faulty cache: the first stores
            # (write/replace faults), the second loads (read faults)
            cache = ArtifactCache(cache_dir)
            config = tiny(seed=args.seed)
            bundle = build_datasets(config, cache=cache, tracer=tracer)
            again = build_datasets(config, cache=cache, tracer=tracer)
    finally:
        detach()

    # faults never change results — only timings and the event log
    if again.admin_lives != bundle.admin_lives or again.op_lives != bundle.op_lives:
        print("check_fault_trace: FAIL — datasets drifted under injection",
              file=sys.stderr)
        return 1

    trace_path = tracer.write_jsonl(out / "trace.jsonl")
    write_json_atomic(out / "metrics.json", metrics.snapshot())
    # the dataflow ledger must stay conserving under injection: a
    # rebuilt artifact may not double-count (`repro inspect ledger
    # --check` gates this artifact in CI)
    write_ledger(out / "ledger.json", build_ledger(metrics))
    manifest = build_run_manifest(config=config, tracer=tracer)
    write_run_manifest(out / "run_manifest.json", manifest)

    lines = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    annotations = [
        note
        for line in lines[1:]
        for note in line.get("annotations", [])
        if note.startswith("fault: ")
    ]

    fired = injector.events
    missing = []
    unclaimed = list(annotations)
    for event in fired:
        needle = f"fault: site={event.site} kind={event.kind}"
        match = next((a for a in unclaimed if a.startswith(needle)), None)
        if match is None:
            missing.append(event)
        else:
            unclaimed.remove(match)

    snapshot = metrics.snapshot()
    counted = snapshot["counters"].get("faults.injected", 0)
    print(f"check_fault_trace: {len(fired)} faults fired "
          f"({counted} counted), {len(annotations)} trace annotations, "
          f"artifacts in {out}")
    for site in sorted({e.site for e in fired}):
        n = sum(1 for e in fired if e.site == site)
        print(f"  {site:<16} {n}")

    if not fired:
        print(
            "check_fault_trace: FAIL — no faults fired; raise REPRO_FAULT_RATE "
            "so the check exercises the closure", file=sys.stderr,
        )
        return 1
    if missing:
        print(f"check_fault_trace: FAIL — {len(missing)} fired faults never "
              f"reached the trace:", file=sys.stderr)
        for event in missing:
            print(f"  - site={event.site} kind={event.kind} detail={event.detail}",
                  file=sys.stderr)
        return 1
    if counted != len(fired):
        print(f"check_fault_trace: FAIL — the run counted {counted} faults "
              f"but {len(fired)} fired", file=sys.stderr)
        return 1
    mismatches = degradation_mismatches(snapshot["counters"], tracer.events)
    if mismatches:
        print("check_fault_trace: FAIL — the run's cache counters and its "
              "events disagree:", file=sys.stderr)
        for mismatch in mismatches:
            print(f"  - {mismatch}", file=sys.stderr)
        return 1
    print("check_fault_trace: every injected fault is annotated in the trace "
          "and counted in the run's metrics, and every cache degradation "
          "counted is an event of the run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
