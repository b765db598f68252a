"""Concrete (secret, mask) -> wire-value maps over Z_q.

Two wire maps are modeled:

* the internal wire of a Barrett-style modular reduction stage, where an
  unsigned s-bit subtraction either proceeds directly (mask <= secret) or
  wraps around 2^s and picks up the offset r = 2^s mod q;
* the identity masking wire x - m, the output-register form whose map is
  a plain translation and therefore a bijection.

Both come wrapped in a uniform WireGadget record carrying the stage's
claimed worst-case preimage size.  q, r, secrets and wire values are
plain ints: BarrettParams and WireGadget run modring's checks on q once,
when they are built, and keep nothing of modring's types.

Each map has one *_eval_vec kernel: the Barrett wire's two-branch and
hardware-faithful s-bit forms, and the identity wire.  A 0-d secret and
mask give a single wire value.  The tests pin every kernel to the
pure-int oracle in tests/reference.py.  A scan's tile, a (B, 1) column
of canonical secrets in lane_dtype(q) against range(lo, hi) with
SLICE_MIN_ROW or more masks, takes the two-branch and identity kernels'
slice form: row x is x - m, plus r on x < m <= x + r and r + q on
m > x + r (r = 0 for the identity wire), so one arange and a slice add
at each bound in the row.
Mask arrays (sampled pairs, witness), a (B, n) secret (the shared wire's
second stage) and shorter rows take the general form below.  The slice
bounds x + 1 and x + 1 + r are the closed form's in mask space, so an
error common to both passes enumeration against the closed form; the
exhaustive equivalence scan against the s-bit form catches it.  The
kernels feed every exhaustive scan, so they are written for few, cheap
passes:

* on int64 inputs every vec evaluator returns int64 and is exact for any
  values, negative and non-canonical ones included, with wrapping int64
  arithmetic; the hardware-faithful one computes in int64 whatever its
  masks' dtype for s <= 62, and in exact Python ints above;
* on a range of masks against secrets already in lane_dtype(q), the
  calls a scan makes, the two-branch and identity evaluators run in that
  lane: int16 for q <= 2^14, int32 for q <= 2^30, else int64.  There
  they treat both operands as canonical residues 0 <= x, m < q and
  return that lane; every other call, int16 or int32 arrays included,
  runs in int64;
* counts_closedform_all (in preimage) needs a canonical secret
  0 <= x < q, because it slices each row at x + 1 and at the wrap set's
  bounds, which are the interval lemma's sets only for such x.

Each evaluator updates x - m in place, an array of the broadcast shape
in its lane, so no step falls into numpy scalar arithmetic on 0-d input.
v % q is written v -= (v // q) * q, exact for every int64 since the true
result lies in [0, q) and wrapping cancels; % 2^s is written & (2^s - 1).
With numpy 2.4 on a 2-vCPU x86-64 host, int64 % q costs 4.1 ns per
element, // q 1.1 ns and & 0.8 ns, and the exhaustive equivalence scan
at q = 12289 costs 0.6 ns per pair at s = 28 and at s = 40 (int16 tiles),
against 1.1 and 1.9 ns on int32 and int64 tiles and 2.3 and 4.7 ns with
the s-bit form run at every pair.  The scan checks the two-branch
evaluator at every pair, in lane_dtype(q), against the s-bit one on the
2q - 1 differences x - m in int64 (preimage), so they share only _in_lane
and _floor_mod, unused by the slice form, never r or the wrap.

Every evaluator broadcasts x against m: a scan passes a (B, 1) column
of B consecutive secrets against one range of masks and gets a (B, n)
block back, so a small ring pays numpy's per-call cost once per block
instead of once per secret.  preimage.block_rows sizes B so that every
block-sized array stays under glibc's 128 KiB mmap threshold: 65,408
int16 masks, 19 secrets a block at q = 3329 (9 in int32).  Past it,
each temporary is mapped and faulted in afresh.  At q = 12289, two-row
int64 blocks (196 KB temporaries) made the exhaustive equivalence scan
take 3.4 s against 1.4 s one row at a time.  On a 2-vCPU x86-64 host
the NTT acceptance sweep (q = 3329, 4591, 7681, 12289) took 2.1-2.5 s
with the 128 KiB budget, 2.9-3.7 s with a 256 KiB one and 2.8-4.0 s
one secret at a time.  A row too long for one block runs alone, cut
into tiles within the same budget; preimage's module docstring says how.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .modring import Modulus, branch_offset

IntOrArray = Union[int, np.ndarray]
Masks = Union[np.ndarray, range]
INT16 = np.dtype(np.int16)
INT32 = np.dtype(np.int32)
INT64 = np.dtype(np.int64)
# Rows this long or longer take the slice form, which pays Python per row.  General /
# slice form per 128 KiB int16 block, in us (2-vCPU x86-64, numpy 2.4): Barrett 89 / 2,302
# at q = 61 (1,072 rows), 53 / 63 at 2053 (31), 46 / 45 at 3329 (19), 46 / 30 at 4591
# (14); identity 35 / 1,683, 26 / 56, 22 / 34, 23 / 28.
SLICE_MIN_ROW = 4096


def lane_dtype(q: int) -> np.dtype:
    """int16 when q <= 2^14, int32 when q <= 2^30, else int64.

    The narrowest dtype that holds residue arithmetic on canonical
    residues of Z_q, the two-branch form's x - m + r in (-q, 2q), as
    ML-KEM's reference code keeps its coefficients in int16.  The
    hardware-faithful form, which wraps at an s-bit word, runs on 2q - 1
    values a scan and computes in int64 whatever s is.
    """
    if q <= 2**14:
        return INT16
    return INT32 if q <= 2**30 else INT64


class ScopeConditionError(ValueError):
    """Raised when the hardware-faithful evaluator is used with q > 2^s."""


@dataclass(frozen=True)
class BarrettParams:
    """Modulus q and shift s of a reduction stage, with the cached offset r.

    All three are plain ints; modring checks q and s once, here.  The
    algebraic evaluator accepts any q >= 1 and s >= 0.  Only the
    hardware-faithful (unsigned s-bit datapath) evaluator needs q <= 2^s.
    """

    q: int
    s: int
    r: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", branch_offset(Modulus(self.q), self.s).val)

    @classmethod
    def create(cls, q: int, s: int) -> "BarrettParams":
        """BarrettParams(q, s); the bench tracer times each build as this span."""
        return cls(q, s)

    def scope_ok(self) -> bool:
        """True when q <= 2^s, i.e. one s-bit word holds a full residue.

        Compared by bit length, so no s-bit integer is built.
        """
        return (self.q - 1).bit_length() <= self.s

    def require_scope(self) -> None:
        if not self.scope_ok():
            raise ScopeConditionError(
                f"hardware-faithful form needs q <= 2^s, got q={self.q}, s={self.s}"
            )


def _in_lane(lane: np.dtype, x: IntOrArray, m: Masks) -> tuple:
    """(x, m, x - m) in the caller's lane for a range of masks against secrets
    already in it, else in int64."""
    if not (isinstance(m, range) and getattr(x, "dtype", None) == lane):
        lane = INT64
    x = np.asarray(x, dtype=lane)
    if isinstance(m, range):
        m = np.arange(m.start, m.stop, m.step, dtype=lane)
    m = np.asarray(m, dtype=lane)
    return x, m, np.subtract(x, m, out=np.empty(np.broadcast(x, m).shape, lane))


def _floor_mod(out: np.ndarray, q: int) -> np.ndarray:
    """out -= (out // q) * q in place, with no step in numpy scalar arithmetic."""
    t = np.floor_divide(out, q, out=np.empty_like(out))
    out -= np.multiply(t, q, out=t)
    return out


def _sliceable(q: int, x: IntOrArray, m: Masks) -> bool:
    """A (B, 1) secret column in lane_dtype(q) against SLICE_MIN_ROW or more
    contiguous masks, a range."""
    sliceable = isinstance(m, range) and m.step == 1 and len(m) >= SLICE_MIN_ROW
    return sliceable and np.shape(x)[1:] == (1,) and getattr(x, "dtype", None) == lane_dtype(q)


def _two_branch_slices(q: int, r: int, x: np.ndarray, m: range) -> np.ndarray:
    """The slice form (module docstring) of the column x on the masks m, in lane_dtype(q)."""
    lo, n, lane = m.start, len(m), lane_dtype(q)
    # Per row: x - lo, and the row indices of masks x + 1 and x + 1 + r.
    rows = [(x - lo, x + 1 - lo, x + 1 + r - lo) for x in x.ravel().tolist()]
    tops = [d + (r if a <= 0 else 0) + (q if b <= 0 else 0) for d, a, b in rows]
    if len(tops) == 1:
        out = np.arange(tops[0], tops[0] - n, -1, dtype=lane).reshape(1, n)
    else:
        out = np.subtract(np.array(tops, dtype=lane).reshape(-1, 1), np.arange(n, dtype=lane))
    for row, (_, a, b) in zip(out, rows):
        if r and 0 < a < n:
            row[a:] += r
        if 0 < b < n:
            row[b:] += q
    return out


def barrett_algebraic_eval_vec(p: BarrettParams, x: IntOrArray, m: Masks) -> np.ndarray:
    """Two-branch wire map (x - m, plus r where m > x) mod q, in _in_lane's dtype."""
    if _sliceable(p.q, x, m):
        return _two_branch_slices(p.q, p.r, x, m)
    x, m, out = _in_lane(lane_dtype(p.q), x, m)
    np.add(out, p.r, out=out, where=m > x)
    return _floor_mod(out, p.q)


def barrett_nat_eval_vec(p: BarrettParams, x: IntOrArray, m: Masks) -> np.ndarray:
    """Hardware-faithful wire map ((x + 2^s - m) mod 2^s) mod q, in int64."""
    p.require_scope()
    q = p.q
    if p.s > 62:
        # x + 2^s overflows int64: exact Python ints, one pair's s-bit word at a time.
        w = 2**p.s
        pair = np.frompyfunc(lambda a, b: (a + w - b) % w % q, 2, 1)
        return np.asarray(pair(x, m), dtype=np.int64)  # a 0-d result is a bare int
    # The + 2^s that keeps x - m non-negative sets only bits above the s-bit mask.
    _, _, out = _in_lane(INT64, x, m)
    out &= (1 << p.s) - 1
    return _floor_mod(out, q)


def identity_mask_eval_vec(q: int, x: IntOrArray, m: Masks) -> np.ndarray:
    """Translation wire map (x - m) mod q, in _in_lane's dtype."""
    if _sliceable(q, x, m):
        return _two_branch_slices(q, 0, x, m)
    return _floor_mod(_in_lane(lane_dtype(q), x, m)[2], q)


@dataclass(frozen=True)
class WireGadget:
    """A single masked stage: its wire map and the claimed worst-case
    preimage multiplicity k.

    eval_vec is the stage's only form of its map, used by every mask
    scan; tests pin it to tests/reference.py.  A scan hands it canonical
    secrets in lane_dtype(q), set by q alone (int16 up to q = 2^14, int32
    up to 2^30, else int64), and masks as a range, which a gadget that
    needs an array turns into np.arange(m.start, m.stop), and reads back
    any integer array of wire values.  It must broadcast: a scan passes a
    (B, 1) column of secrets, B = 1 for a lone secret, against a range of n
    masks and reads row i of the (B, n) result as secret i's wire
    values, so a column call must equal the 0-d-secret calls stacked.
    """

    name: str
    q: int
    claimed_max_mult: int
    eval_vec: Callable[[IntOrArray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        Modulus(self.q)  # the ring's checks: an int, not a bool, in [1, MAX_MODULUS]
        if self.claimed_max_mult < 1:
            raise ValueError("claimed_max_mult must be >= 1")


def make_barrett_gadget(p: BarrettParams) -> WireGadget:
    """Reduction-stage gadget: two-branch wire map, claimed k = 2."""
    return WireGadget(
        name="barrett",
        q=p.q,
        claimed_max_mult=2,
        eval_vec=lambda x, m: barrett_algebraic_eval_vec(p, x, m),
    )


def make_identity_gadget(q: int) -> WireGadget:
    """Masking-only gadget x - m: every output has exactly one preimage."""
    return WireGadget(
        name="identity",
        q=q,
        claimed_max_mult=1,
        eval_vec=lambda x, m: identity_mask_eval_vec(q, x, m),
    )
