"""Per-day ASN visibility accounting.

§3.2: "we only consider an ASN to be active in BGP in a given day if in
that day its visibility is strictly more than 1 peer, i.e., two or more
distinct ASes that peer with the collector infrastructure share BGP
announcements with that ASN in the path that day."

This module turns one day's (sanitized) element stream into the set of
active ASNs under a configurable peer threshold, so that the ablation
benchmark can contrast ``min_peers=1`` (spurious data leaks in) against
the paper's ``min_peers=2``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..asn.numbers import ASN
from .messages import WITHDRAW, BgpElement

__all__ = ["peer_visibility", "active_asns", "DEFAULT_MIN_PEERS"]

#: The paper's visibility threshold (strictly more than one peer).
DEFAULT_MIN_PEERS = 2


def peer_visibility(elements: Iterable[BgpElement]) -> Dict[ASN, Set[ASN]]:
    """Map every ASN appearing in a path to the set of peers that
    shared paths containing it.

    Every ASN on the path counts — origin and transit hops alike — as
    the paper tracks "ASNs that appear in BGP paths".
    """
    # Hot loop: bind the dict lookup locally and branch on a missing
    # entry instead of paying setdefault's per-call set() allocation;
    # withdrawals short-circuit before any path decode.
    seen: Dict[ASN, Set[ASN]] = {}
    get = seen.get
    for element in elements:
        if element.elem_type == WITHDRAW:
            continue
        peer = element.peer_asn
        for asn in element.path_asns():
            peers = get(asn)
            if peers is None:
                seen[asn] = {peer}
            else:
                peers.add(peer)
    return seen


def active_asns(
    elements: Iterable[BgpElement],
    *,
    min_peers: int = DEFAULT_MIN_PEERS,
) -> Set[ASN]:
    """ASNs considered active for the day under the visibility rule."""
    if min_peers < 1:
        raise ValueError("min_peers must be at least 1")
    return {
        asn
        for asn, peers in peer_visibility(elements).items()
        if len(peers) >= min_peers
    }
