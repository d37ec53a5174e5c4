#!/usr/bin/env python3
"""Lazy-open check: a store opened lazily serves the eagerly decoded bytes.

``StoreIndex.open`` verifies and parses every shard but builds a
shard's records only when a query first reaches it.  This script opens
a store that way and, for every ASN, compares its ``lives``,
``taxonomy`` and ``as-of`` (the window's end day) bodies with those of
an index over records built up front by ``decode_shard`` from the same
shard files.  Each ASN is asked cold first: the lives query is the one
that decodes its shard.  It exits 1 and names the ASN and route of
every mismatch.

Usage::

    PYTHONPATH=src python scripts/check_lazy_open.py --store store-inc
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List, Tuple

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


def mismatches(lazy: StoreIndex, eager: StoreIndex) -> List[Tuple[Any, str]]:
    """``(asn, route)`` of every body where the two indexes disagree."""
    if lazy.all_asns() != eager.all_asns():
        return [(None, "all_asns")]
    end = lazy.meta.end
    out = []
    for asn in lazy.all_asns():
        if lazy.lives_body(asn) != eager.lives_body(asn):
            out.append((asn, "lives"))
        if lazy.taxonomy_body(asn) != eager.taxonomy_body(asn):
            out.append((asn, "taxonomy"))
        if lazy.as_of_body(asn, end) != eager.as_of_body(asn, end):
            out.append((asn, "as-of"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, type=Path,
                        help="a serve-store/v1 directory")
    args = parser.parse_args(argv)
    lazy = StoreIndex.open(args.store, faults=None)
    found = mismatches(lazy, eager_index(args.store))
    for asn, route in found:
        print(f"MISMATCH AS{asn} {route}", file=sys.stderr)
    print(f"lazy open: {len(lazy)} ASNs x 3 routes, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
