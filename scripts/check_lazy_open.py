#!/usr/bin/env python3
"""Lazy-open check: a store opened lazily serves the eagerly decoded bytes.

``StoreIndex.open`` verifies and parses every shard but builds a
shard's records only when a query first reaches it.  This script opens
a store that way and, for every ASN, compares its ``lives``,
``taxonomy`` and ``as-of`` (the window's end day) bodies with those of
an index over records built up front by ``decode_shard`` from the same
shard files.  Each ASN is asked cold first: the lives query is the one
that decodes its shard.

A second lazy index answers range routes, which it serves from
per-shard columns built on first touch.  Its ``range_summary_body`` and
``range_as_of_body`` must equal ``_json_body`` of the eager index's
dict answers (``range_summary``, ``range_as_of``) over the full store,
each shard, and each shard boundary with one ASN either side; on the
window's first and last days, the days just outside it and every 7th
day; with limits 1 and 1000.

It exits 1 and names the query of every mismatch.

Usage::

    PYTHONPATH=src python scripts/check_lazy_open.py --store store-inc
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

from repro.serve.http import _json_body
from repro.serve.index import StoreIndex
from repro.serve.store import INDEX_NAME, decode_shard


def eager_index(store_dir: Path) -> StoreIndex:
    """The store's index over records built up front by ``decode_shard``."""
    doc = json.loads((store_dir / INDEX_NAME).read_text(encoding="utf-8"))
    shards = []
    for row in doc["shards"]:
        records = decode_shard((store_dir / row["name"]).read_bytes())
        shards.append(([record.asn for record in records], records))
    return StoreIndex(doc, shards)


def mismatches(lazy: StoreIndex, eager: StoreIndex) -> List[str]:
    """Every point query where the two indexes disagree."""
    if lazy.all_asns() != eager.all_asns():
        return ["all_asns"]
    end = lazy.meta.end
    out = []
    for asn in lazy.all_asns():
        if lazy.lives_body(asn) != eager.lives_body(asn):
            out.append(f"AS{asn} lives")
        if lazy.taxonomy_body(asn) != eager.taxonomy_body(asn):
            out.append(f"AS{asn} taxonomy")
        if lazy.as_of_body(asn, end) != eager.as_of_body(asn, end):
            out.append(f"AS{asn} as-of")
    return out


def range_cases(index: StoreIndex) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The ``(lo, hi)`` ranges and the days the range check asks."""
    bounds = [(row["lo"], row["hi"]) for row in index.doc["shards"]]
    ranges = [(bounds[0][0], bounds[-1][1])] + bounds
    ranges += [(below - 1, above + 1)
               for (_lo, below), (above, _hi) in zip(bounds, bounds[1:])]
    meta = index.meta
    days = {meta.start - 1, meta.start, meta.end, meta.end + 1}
    days.update(range(meta.start, meta.end + 1, 7))
    return ranges, sorted(days)


def range_mismatches(lazy: StoreIndex, eager: StoreIndex) -> List[str]:
    """Every range query where the lazy body and the eager dict disagree."""
    ranges, days = range_cases(lazy)
    out = []
    for lo, hi in ranges:
        for limit in (1, 1000):
            if lazy.range_summary_body(lo, hi, limit=limit) != _json_body(
                eager.range_summary(lo, hi, limit=limit)
            ):
                out.append(f"range {lo}-{hi} limit {limit}")
            for day in days:
                if lazy.range_as_of_body(lo, hi, day, limit=limit) != _json_body(
                    eager.range_as_of(lo, hi, day, limit=limit)
                ):
                    out.append(f"range {lo}-{hi} as-of {day} limit {limit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, type=Path,
                        help="a serve-store/v1 directory")
    args = parser.parse_args(argv)
    lazy = StoreIndex.open(args.store, faults=None)
    eager = eager_index(args.store)
    found = mismatches(lazy, eager)
    ranged = StoreIndex.open(args.store, faults=None)
    found += range_mismatches(ranged, eager)
    for query in found:
        print(f"MISMATCH {query}", file=sys.stderr)
    ranges, days = range_cases(ranged)
    print(f"lazy open: {len(lazy)} ASNs x 3 routes, {len(ranges)} ranges x "
          f"({len(days)} days + 1) x 2 limits, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
