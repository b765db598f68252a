"""The ring's input checks: a modulus q in [1, MAX_MODULUS], a canonical residue.

BarrettParams and WireGadget run them once, when built, and keep plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass

# Keeps q below 2^31, so every preimage count (at most q) fits int32 and the
# scans' intermediates on canonical residues, in (-q, 2q), fit int16 lanes for
# q <= 2^14 and int32 lanes for q <= 2^30 (gadgets.lane_dtype), else int64.
MAX_MODULUS = 2**31 - 1


@dataclass(frozen=True)
class Modulus:
    """A residue-ring size q. Immutable; shared by all elements of Z_q."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool):
            raise ValueError(f"modulus must be an integer, got {self.q!r}")
        if self.q < 1:
            raise ValueError(f"modulus must be >= 1, got {self.q}")
        if self.q > MAX_MODULUS:
            raise ValueError(f"modulus {self.q} exceeds supported bound {MAX_MODULUS}")


@dataclass(frozen=True)
class ZqElem:
    """A canonical residue: 0 <= val < q, tagged with its modulus."""

    val: int
    modulus: Modulus

    def __post_init__(self) -> None:
        if not isinstance(self.val, int) or isinstance(self.val, bool):
            raise ValueError(f"residue value must be an int, got {self.val!r}")
        if not 0 <= self.val < self.modulus.q:
            raise ValueError(
                f"value {self.val} not canonical for modulus {self.modulus.q}"
            )


def branch_offset(q: Modulus, s: int) -> ZqElem:
    """The wrap-around correction 2^s mod q for an s-bit datapath.

    Uses modular exponentiation, so s = 48 (and far beyond) never builds
    the full 2^s intermediate.
    """
    if not isinstance(s, int) or isinstance(s, bool) or s < 0:
        raise ValueError(f"shift exponent must be >= 0 and an int, got {s!r}")
    return ZqElem(pow(2, s, q.q), q)
