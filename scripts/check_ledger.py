#!/usr/bin/env python3
"""Conservation gate over an emitted dataflow ledger.

Loads a ``ledger.json`` (written by ``repro simulate --trace`` or any
run that calls :func:`repro.runtime.write_ledger`), replays the
closure check — every instrumented boundary must satisfy
``in == kept + dropped + routed`` — and exits non-zero listing each
violating stage.  CI runs this on the fault-injection and
scaling-benchmarks artifacts: a non-conserving stage means records silently leaked or
were double-counted across a lossy boundary, which no output diff
would catch on synthetic data.

Usage::

    PYTHONPATH=src python scripts/check_ledger.py out/ledger.json
    PYTHONPATH=src python scripts/check_ledger.py out/        # dir works too
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.runtime import check_ledger, load_ledger, render_ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "ledger", type=Path,
        help="ledger.json path, or a run directory containing one",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the conservation table; print only the verdict",
    )
    args = parser.parse_args(argv)

    try:
        doc = load_ledger(args.ledger)
    except FileNotFoundError:
        sys.exit(f"check_ledger: {args.ledger} not found")
    except ValueError as exc:
        sys.exit(f"check_ledger: {exc}")

    if not args.quiet:
        print(render_ledger(doc))

    violations = check_ledger(doc)
    stages = doc.get("stages", [])
    if violations:
        print(f"check_ledger: FAIL — {len(violations)} conservation "
              f"violation(s) across {len(stages)} stages:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print(f"check_ledger: {len(stages)} stages conserve "
          f"(in == kept + dropped + routed at every boundary)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
