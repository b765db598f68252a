"""Pure-Python reference implementations used as test oracles.

Everything here works on plain ints with no numpy and no reuse of the
library's counting code, so a bug in the vectorized or closed-form
paths cannot hide behind itself.
"""

from __future__ import annotations


def ref_offset(q: int, s: int) -> int:
    return pow(2, s, q)


def ref_wire(q: int, s: int, x: int, m: int) -> int:
    """Two-branch masked reduction wire on plain ints."""
    r = ref_offset(q, s)
    if m <= x:
        return (x - m) % q
    return (x - m + r) % q


def ref_wire_hw(q: int, s: int, x: int, m: int) -> int:
    """Width-s wrap followed by one reduction, as the datapath computes it."""
    w = 1 << s
    return ((x + w - m) % w) % q


def ref_stage(name: str, q: int, s: int, x: int, m: int) -> int:
    """One pipeline stage on plain ints: "barrett" or "identity" (x - m)."""
    return ref_wire(q, s, x, m) if name == "barrett" else (x - m) % q


def ref_counts(q: int, s: int, x: int) -> list[int]:
    """Preimage count per output value, by direct enumeration."""
    counts = [0] * q
    for m in range(q):
        counts[ref_wire(q, s, x, m)] += 1
    return counts


def ref_count(q: int, s: int, x: int, v: int) -> int:
    return ref_counts(q, s, x)[v]


def ceil_log2(q: int) -> int:
    return (q - 1).bit_length()
