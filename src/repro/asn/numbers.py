"""AS number representation and classification.

AS numbers are plain non-negative integers.  Historically they were
16-bit (0..65535); RFC 6793 extended BGP to 32-bit AS numbers
(0..4294967295), which RIRs began delegating in 2007 and by default
from 2009-2010 (Appendix B of the paper).  The paper's Fig. 12 and the
§6.3 analysis of failed 32-bit deployments both hinge on telling the
two classes apart, so the helpers here are used throughout.

A note on "huge" ASNs (§6.4): values such as 290012147 are *valid*
32-bit ASNs that no RIR has delegated; they typically appear in BGP
when an internal numbering scheme leaks.  They are not bogons — the
bogon/special-use registries live in :mod:`repro.asn.bogons`.
"""

from __future__ import annotations

__all__ = [
    "AS_MIN",
    "AS16_MAX",
    "AS32_MAX",
    "ASN",
    "validate_asn",
    "is_16bit",
    "is_32bit_only",
    "to_asdot",
    "from_asdot",
    "digit_count",
    "looks_like_prepend_typo",
    "one_digit_apart",
]

#: Alias used in signatures: an AS number is a plain ``int``.
ASN = int

AS_MIN: ASN = 0
AS16_MAX: ASN = 2**16 - 1
AS32_MAX: ASN = 2**32 - 1


def validate_asn(asn: ASN) -> ASN:
    """Return ``asn`` unchanged, raising :class:`ValueError` if it is
    outside the 32-bit AS number space."""
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise ValueError(f"ASN must be an int, got {type(asn).__name__}")
    if not AS_MIN <= asn <= AS32_MAX:
        raise ValueError(f"ASN {asn} outside 0..{AS32_MAX}")
    return asn


def is_16bit(asn: ASN) -> bool:
    """True for ASNs representable in the original 16-bit space."""
    return AS_MIN <= asn <= AS16_MAX


def is_32bit_only(asn: ASN) -> bool:
    """True for ASNs that *require* 32-bit support (RFC 6793)."""
    return AS16_MAX < asn <= AS32_MAX


def to_asdot(asn: ASN) -> str:
    """Render in asdot notation (RFC 5396): ``high.low`` above 65535.

    16-bit values render as plain decimal, e.g. ``3356``; 32-bit-only
    values as e.g. ``3.14`` for 196622.
    """
    validate_asn(asn)
    if is_16bit(asn):
        return str(asn)
    return f"{asn >> 16}.{asn & 0xFFFF}"


def from_asdot(text: str) -> ASN:
    """Parse asplain (``"3356"``) or asdot (``"3.14"``) notation."""
    text = text.strip()
    if "." in text:
        high_s, _, low_s = text.partition(".")
        high, low = int(high_s), int(low_s)
        if not (0 <= high <= AS16_MAX and 0 <= low <= AS16_MAX):
            raise ValueError(f"invalid asdot value {text!r}")
        return (high << 16) | low
    return validate_asn(int(text))


def digit_count(asn: ASN) -> int:
    """Number of decimal digits of the asplain rendering."""
    return len(str(validate_asn(asn)))


def looks_like_prepend_typo(origin: ASN, first_hop: ASN) -> bool:
    """True when ``origin`` looks like a failed AS-path prepend of
    ``first_hop``.

    §6.4 of the paper finds that 76% of fat-finger misconfigurations
    involve an origin that is a mistyped repetition of its first hop —
    e.g. origin AS3202632026 next to first hop AS32026 (the digits of
    32026 typed twice and concatenated instead of prepended as two
    separate hops).  We flag an origin when its decimal digits are the
    first-hop digits written two or more times in a row, or when the
    origin *starts or ends* with the full first-hop digit string twice.
    """
    o, h = str(origin), str(first_hop)
    if origin == first_hop or len(o) <= len(h):
        return False
    if len(o) % len(h) == 0 and o == h * (len(o) // len(h)):
        return True
    # affix form (doubled digits plus stray characters) — only for hops
    # long enough that the doubled string cannot occur by accident
    if len(h) < 3:
        return False
    doubled = h + h
    return o.startswith(doubled) or o.endswith(doubled)


def one_digit_apart(a: ASN, b: ASN) -> bool:
    """True when the asplain renderings differ by a single edit of one
    digit (substitution, or one inserted/deleted digit).

    §6.4 attributes 24% of fat-finger misconfigurations to MOAS
    conflicts between ASNs "that differ by 1 digit", e.g. AS419333 vs
    AS41933.
    """
    sa, sb = str(a), str(b)
    if sa == sb:
        return False
    if len(sa) == len(sb):
        return sum(x != y for x, y in zip(sa, sb)) == 1
    if abs(len(sa) - len(sb)) != 1:
        return False
    longer, shorter = (sa, sb) if len(sa) > len(sb) else (sb, sa)
    for i in range(len(longer)):
        if longer[:i] + longer[i + 1 :] == shorter:
            return True
    return False
