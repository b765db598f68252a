"""Preimage counting and distribution analysis for masked wire maps.

Two counting routes are kept deliberately separate:

* counts_bruteforce_all tallies hits over every mask — the oracle;
* counts_closedform_all tests only the two algebraic candidates x - v
  and x - v + r against their branch conditions — the production path.

Cross-checking the two routes is the core property this package exists
to exercise, so neither is ever expressed in terms of the other.  Both
take a canonical secret 0 <= x < q, or a 1-D array of them, return
counts of shape shape(x) + (q,), and raise ValueError if any secret is
not canonical.
count_closedform stays a scalar O(1) form next to the vectorised
counts_closedform_all: the test suite checks the vectorised counts
against it, and building it from counts_closedform_all would make that
check vouch for itself.

Every scan keeps each array it builds within BLOCK_BYTES, under glibc's
128 KiB mmap threshold (gadgets says what crossing it cost).  Secrets go
in blocks of B = block_rows(q, dtype), the most whole rows of q that
fit, and a block is one (B, q) array: a (B, 1) secret column against a
row of values or masks.  That is 9 / 7 / 4 / 2 secrets in int32 at
q = 3329 / 4591 / 7681 / 12289, and 4 in int64 at 3329, so small rings
pay numpy's per-call cost once per block: at q = 3329 the closed-form
trichotomy scan went from 65-88 ms to 31-48 ms and the exhaustive
equivalence scan from 0.105 s to 0.046 s.  A row that does not fit is
a block of one, a lone secret included, cut into tiles of
tile_len(dtype) = BLOCK_BYTES // itemsize elements (32,704 in int32,
16,352 in int64) whose temporaries stay in L2 cache.  The full budget
pays for having one path: at q = 8,380,417 one secret's closed form
took 10.8-10.9 ms as a 0-d array in 2^14-element tiles, 11.7-11.9 ms
as a (1, 1) column in those tiles, and 9.6-9.9 ms as a column in
32,704-element tiles (2-vCPU x86-64 host, numpy 2.4).

scan(secrets, route, reduce, check) is the one driver of every
per-secret scan.  A route is an (arg, count) pair run as count(arg, xs):
BarrettParams with counts_closedform_all, which counts in
gadgets.lane_dtype(q) (int32 for q <= 2^30, as the exhaustive
equivalence scan does in lane_dtype(q, s)), or a WireGadget with
counts_bruteforce_all, which stays int64: its cost is the np.add.at
scatter, which int32 masks did not speed up.  Blocks hold the smaller
block_rows of the routes run.  A check route counts each block a second
way; on disagreement reduce gets its counts.  Only reduce's result
outlives a block, so one block's counts are alive at a time.  Sampled
equivalence draws int64 pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .gadgets import (
    INT64,
    BarrettParams,
    IntOrArray,
    WireGadget,
    barrett_algebraic_eval,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    lane_dtype,
    make_barrett_gadget,
)
from .modring import ZqElem

# Full-modulus secret sweeps above this size switch to PRNG sampling.
EXHAUSTIVE_SECRET_LIMIT = 2**16
DEFAULT_SAMPLE_SECRETS = 16
DEFAULT_SEED = 0
# Bytes per block or tile array, kept under glibc's 128 KiB mmap threshold.
BLOCK_BYTES = 2**17 - 256
# (pairs before the tile, secrets, masks) for equivalence_check.
PairTile = Tuple[int, np.ndarray, np.ndarray]
# (arg, count) for scan, run as count(arg, xs).
Route = Tuple[Any, Callable[[Any, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class MultiplicityProfile:
    """Per-secret histogram of preimage sizes over all q output values.

    zeros/ones/twos/overflow count output values by preimage size
    (overflow = size >= 3).  Construction checks nothing, so a report
    keeps a broken histogram as data; `conserved` gives the verdict.
    """

    secret: ZqElem
    zeros: int
    ones: int
    twos: int
    overflow: int
    max_count: int
    support_size: int

    @classmethod
    def from_counts(cls, secret: ZqElem, counts: np.ndarray) -> "MultiplicityProfile":
        """Build a profile from the per-value preimage counts array."""
        q = secret.modulus.q
        if counts.shape != (q,):
            raise ValueError(f"counts array must have length q={q}")
        zeros = int(np.count_nonzero(counts == 0))
        ones = int(np.count_nonzero(counts == 1))
        twos = int(np.count_nonzero(counts == 2))
        return cls(
            secret=secret,
            zeros=zeros,
            ones=ones,
            twos=twos,
            overflow=q - zeros - ones - twos,
            max_count=int(counts.max()),
            support_size=q - zeros,
        )

    @property
    def conserved(self) -> bool:
        """The conservation law holds.

        Because the wire map is total, the buckets partition the q
        outputs; with no overflow the mask mass gives ones + 2*twos = q,
        hence zeros = twos.
        """
        q = self.secret.modulus.q
        return (
            self.zeros + self.ones + self.twos + self.overflow == q
            and self.support_size == self.ones + self.twos + self.overflow
            and self.overflow == 0
            and self.ones + 2 * self.twos == q
            and self.zeros == self.twos
        )


@dataclass(frozen=True)
class WitnessReport:
    """A (secret, value) pair hit by two distinct masks, if one exists."""

    found: bool
    secret: Optional[ZqElem] = None
    value: Optional[ZqElem] = None
    count: Optional[int] = None
    mask_a: Optional[ZqElem] = None
    mask_b: Optional[ZqElem] = None


@dataclass(frozen=True)
class TrichotomyReport:
    passed: bool
    secrets_checked: int
    pairs_checked: int
    max_count_seen: int
    oracle: bool
    counterexample: Optional[Tuple[int, int, int]] = None  # (secret, value, count)


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    pairs_checked: int
    first_mismatch: Optional[Tuple[int, int, int, int]] = None  # (x, m, algebraic, hw)


def tile_len(dtype: np.dtype) -> int:
    """Elements of dtype per tile: as many as fit BLOCK_BYTES."""
    return BLOCK_BYTES // np.dtype(dtype).itemsize


def block_rows(q: int, dtype: np.dtype) -> int:
    """Secrets per block: the most (B, q) dtype rows within BLOCK_BYTES, at least 1."""
    return max(1, tile_len(dtype) // q)


def scan(
    secrets: Iterable[int],
    route: Route,
    reduce: Callable[[np.ndarray, np.ndarray], Any],
    check: Optional[Route] = None,
) -> Iterator[Tuple[Any, bool]]:
    """(reduce(xs, counts), agree) for each block xs of the secrets, in order.

    xs is an int64 array of the smaller block_rows of the routes run, in
    each route's lane: lane_dtype(q) for BarrettParams, int64 for a
    WireGadget; only the last block may be shorter.  check, if given,
    counts each block a second way, agree says whether the two arrays
    are equal, and on disagreement reduce gets check's counts.
    """
    rows = min(
        block_rows(arg.q.q, lane_dtype(arg.q.q) if isinstance(arg, BarrettParams) else INT64)
        for arg, _ in filter(None, (route, check))
    )
    it = iter(secrets)
    while block := list(islice(it, rows)):
        yield _scan_block(np.array(block, dtype=np.int64), route, reduce, check)


def _scan_block(
    xs: np.ndarray, route: Route, reduce: Callable, check: Optional[Route]
) -> Tuple[Any, bool]:
    """One block of scan; its count arrays die on return, before the next block."""
    counts = route[1](route[0], xs)
    if check is None:
        return reduce(xs, counts), True
    checked = check[1](check[0], xs)
    agree = np.array_equal(checked, counts)
    return reduce(xs, counts if agree else checked), agree


def _column(xs: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Secrets, one or many, as a (B, 1) column in dtype, broadcast against one row."""
    return xs.astype(dtype).reshape(-1, 1)


def _canonical(x: IntOrArray, q: int) -> np.ndarray:
    """x as an int64 array, or ValueError naming its first secret outside [0, q)."""
    xs = np.asarray(x)
    bad = (xs < 0) | (xs >= q)
    if bad.any():
        raise ValueError(f"secret {xs[bad][0]} not canonical for modulus {q}")
    return xs.astype(np.int64)


def counts_bruteforce_all(g: WireGadget, x: IntOrArray) -> np.ndarray:
    """Per-value preimage counts for secret(s) x over every mask, shape(x) + (q,).

    g.eval_vec gets x as a _column against one tile of int64 masks and
    returns a new (B, n) array, to which row i's offset i*q is added in
    place; one bincount then tallies every row.  A value outside [0, q)
    raises ValueError instead of landing in a neighbouring secret's row.
    """
    q = g.q.q
    xs = _canonical(x, q)
    col = _column(xs, INT64)
    offsets = np.arange(0, col.size * q, q).reshape(-1, 1)
    step = tile_len(INT64)
    counts = None
    for lo in range(0, q, step):
        values = g.eval_vec(col, np.arange(lo, min(lo + step, q), dtype=np.int64))
        # Read unsigned, a negative value is huge, so one max bounds both ends.
        if values.view(f"u{values.itemsize}").max(initial=0) >= q:
            raise ValueError(f"wire value outside [0, {q}) for modulus {q}")
        if col.size > 1:
            values += offsets
        flat = values.ravel()
        if counts is None:
            counts = np.bincount(flat, minlength=col.size * q)
        else:
            np.add.at(counts, flat, 1)
    return counts.reshape(xs.shape + (q,))


def count_closedform(p: BarrettParams, x: ZqElem, v: ZqElem) -> int:
    """Preimage size from the two-candidate characterization, in {0, 1, 2}.

    Candidate x - v counts iff it takes the direct branch, and candidate
    x - v + r counts iff it takes the wrapping branch.  With r = 0 both
    candidates coincide and exactly one test holds: the map is the
    bijection m -> x - m.
    """
    q = p.q.q
    r = p.r.val
    a = (x.val - v.val) % q
    b = (a + r) % q
    return (1 if a <= x.val else 0) + (1 if b > x.val else 0)


def _closedform_tile(
    x: IntOrArray, q: int, r: int, lo: int, hi: int, dtype: np.dtype, out: np.ndarray
) -> None:
    """Write the closed-form counts of values v in [lo, hi) into out, as int8.

    x is a (B, 1) column of secrets and out is (B, hi - lo) to match.
    a = (x - v) mod q and b = (a + r) mod q are computed in dtype; with
    x, v, r in [0, q) each needs at most one correction, and every
    intermediate lies in (-q, 2q).
    """
    a = x - np.arange(lo, hi, dtype=dtype)
    np.add(a, q, out=a, where=a < 0)
    direct = a <= x
    b = np.add(a, r, out=a)
    np.subtract(b, q, out=b, where=b >= q)
    np.add(direct, b > x, out=out, dtype=np.int8)


def counts_closedform_all(p: BarrettParams, x: IntOrArray) -> np.ndarray:
    """Closed-form preimage counts for canonical secret(s) x, int8 of shape(x) + (q,).

    Each count sums two candidate tests, so it never exceeds 2.  With
    r = 0 the tests read a <= x and a > x, so every count is 1.  The
    tiles wrap at no s-bit word, so their lane depends on q alone.
    """
    q = p.q.q
    r = p.r.val
    xs = _canonical(x, q)
    lane = lane_dtype(q)
    col = _column(xs, lane)
    step = tile_len(lane)
    counts = np.empty((col.size, q), dtype=np.int8)
    for lo in range(0, q, step):
        hi = min(lo + step, q)
        _closedform_tile(col, q, r, lo, hi, lane, counts[:, lo:hi])
    return counts.reshape(xs.shape + (q,))


def multiplicity_profile(g: WireGadget, x: ZqElem) -> MultiplicityProfile:
    """Profile of preimage sizes for one secret.

    Barrett gadgets use the closed-form counts (O(q) per secret); other
    gadgets are enumerated.
    """
    if g.barrett_params is not None:
        counts = counts_closedform_all(g.barrett_params, x.val)
    else:
        counts = counts_bruteforce_all(g, x.val)
    return MultiplicityProfile.from_counts(x, counts)


def sample_secrets(q: int, n: int, seed: int = DEFAULT_SEED) -> list[int]:
    """n distinct secrets drawn by a seeded PRNG, returned ascending."""
    if n >= q:
        return list(range(q))
    rng = random.Random(seed)
    return sorted(rng.sample(range(q), n))


def default_secrets(
    q: int, seed: int = DEFAULT_SEED, limit: int = EXHAUSTIVE_SECRET_LIMIT
) -> Sequence[int]:
    """Every secret while q <= limit, a seeded 16-secret sample beyond.

    The one rule every analysis uses to pick secrets; callers pass their
    own limit.  A scan is exhaustive when it covers all q secrets,
    whatever container holds them.
    """
    if q <= limit:
        return range(q)
    return sample_secrets(q, DEFAULT_SAMPLE_SECRETS, seed)


def _trichotomy_block(xs: np.ndarray, counts: np.ndarray) -> Tuple[int, int, Optional[tuple]]:
    """(secrets seen, their peak, counterexample or None), stopping at the first offender."""
    peaks = counts.max(axis=1)
    over = np.flatnonzero(peaks > 2)
    if not len(over):
        return len(xs), int(peaks.max()), None
    i = int(over[0])
    v = int(np.argmax(counts[i] > 2))
    return i + 1, int(peaks[: i + 1].max()), (int(xs[i]), v, int(counts[i, v]))


def trichotomy_check(
    p: BarrettParams,
    secrets: Optional[Iterable[int]] = None,
    oracle: bool = False,
) -> TrichotomyReport:
    """Verify that no output value has three or more preimages.

    secrets = None sweeps every secret.  oracle = True counts by mask
    enumeration instead of the closed form.  A failure is data, not an
    error: the first offending (secret, value, count) is reported, and
    no block after it is counted.
    """
    q = p.q.q
    if oracle:
        route = (make_barrett_gadget(p), counts_bruteforce_all)
    else:
        route = (p, counts_closedform_all)
    checked = max_seen = 0
    counterexample = None
    for (seen, peak, counterexample), _ in scan(
        range(q) if secrets is None else secrets, route, _trichotomy_block
    ):
        checked += seen
        max_seen = max(max_seen, peak)
        if counterexample:
            break
    return TrichotomyReport(
        passed=counterexample is None,
        secrets_checked=checked,
        pairs_checked=checked * q,
        max_count_seen=max_seen,
        oracle=oracle,
        counterexample=counterexample,
    )


def support_gap_predicted_paper(p: BarrettParams, x: ZqElem) -> int:
    """Published three-term gap predictor min(x+1, q-r, q-1-x).

    It lacks the r term of the derived four-term form (see the extended
    predictor), so it overshoots exactly when r < min(x+1, q-1-x, q-r);
    both are reported side by side so the data can speak.
    """
    q = p.q.q
    r = p.r.val
    return max(0, min(x.val + 1, q - r, q - 1 - x.val))


def support_gap_predicted_extended(p: BarrettParams, x: ZqElem) -> int:
    """Four-term gap predictor min(x+1, q-1-x, r, q-r), derived exactly.

    With D = [0, x], the direct masks m <= x hit each v in D once and the
    wrap masks m in [x+1, q-1] hit each v in D^c + r (mod q) once.  So
    count(v) = [v in D] + [v in D^c + r] lies in {0, 1, 2}, the counts sum
    to q, and zeros = twos = |D| - |D & (D + r)| = max(0, min(x+1, q-1-x,
    r, q-r)).  The test suite and the sweep still check it by enumeration.
    """
    q = p.q.q
    r = p.r.val
    return max(0, min(x.val + 1, q - 1 - x.val, r, q - r))


def tightness_witness_search(p: BarrettParams) -> WitnessReport:
    """First (secret, value) pair, scanning ascending, with two preimages.

    No such pair exists when r = 0 (the map degenerates to a bijection).
    For r != 0 the scan never gets past its first pair, x = 0 and v = 0:
    the direct candidate mask x - v = 0 takes the direct branch (0 <= 0)
    and the wrap candidate x - v + r = r takes the wrapping branch
    (r > 0), so count_closedform is 2 there.  The two masks are still
    re-evaluated through the wire map before reporting.
    """
    if p.r.val == 0:
        return WitnessReport(found=False)
    zero = ZqElem(0, p.q)
    mask_a, mask_b = zero, p.r
    if (
        barrett_algebraic_eval(p, zero, mask_a) != zero
        or barrett_algebraic_eval(p, zero, mask_b) != zero
        or mask_a == mask_b
    ):
        raise AssertionError("closed-form witness (0, 0) failed re-evaluation")
    return WitnessReport(
        found=True, secret=zero, value=zero, count=2, mask_a=mask_a, mask_b=mask_b
    )


def _exhaustive_pair_tiles(q: int, dtype: np.dtype) -> Iterator[PairTile]:
    """(pairs before, secrets, masks) tiles over all q^2 pairs, secret-major.

    Each tile is a _column of B consecutive secrets against one row of
    masks, both built in dtype, which picks both evaluators' lane;
    every block reuses the first tile's arange.  Blocks hold whole rows
    (B > 1 only when a row fits in half a tile), so a tile's flat order
    is secret-major pair order.
    """
    rows = block_rows(q, dtype)
    step = tile_len(dtype)
    first = np.arange(min(q, step), dtype=dtype)
    for x in range(0, q, rows):
        xs = _column(np.arange(x, min(x + rows, q)), dtype)
        for lo in range(0, q, step):
            if lo == 0:
                masks = first
            else:
                masks = np.arange(lo, min(lo + step, q), dtype=dtype)
            yield x * q + lo, xs, masks


def _sampled_pair_tiles(q: int, sample: int, seed: int) -> Iterator[PairTile]:
    """(pairs before, secrets, masks) tiles of `sample` seeded random pairs.

    Each (2, n) int64 draw fits BLOCK_BYTES, as every scan array does.
    """
    rng = np.random.default_rng(seed)
    n = tile_len(INT64) // 2
    for lo in range(0, sample, n):
        xs, ms = rng.integers(0, q, size=(2, min(n, sample - lo)))
        yield lo, xs, ms


def equivalence_check(
    p: BarrettParams,
    sample: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> EquivalenceReport:
    """Compare the algebraic and hardware-faithful forms pointwise.

    sample = None checks all q^2 (x, m) pairs, with masks in the lane
    gadgets.lane_dtype(q, s) picks; otherwise `sample` int64 pairs
    are drawn tile by tile from one np.random.default_rng(seed), each
    tile's secrets and masks by one integers(0, q, size=(2, n)) call.
    Raises ScopeConditionError when q > 2^s — a usage error, distinct
    from a mismatch.
    """
    p.require_scope()
    q = p.q.q
    if sample is None:
        total, tiles = q * q, _exhaustive_pair_tiles(q, lane_dtype(q, p.s))
    else:
        total, tiles = sample, _sampled_pair_tiles(q, sample, seed)
    for before, xs, masks in tiles:
        alg = barrett_algebraic_eval_vec(p, xs, masks)
        hw = barrett_nat_eval_vec(p, xs, masks)
        bad = np.flatnonzero(alg != hw)
        if len(bad) > 0:
            i = int(bad[0])
            at = np.unravel_index(i, alg.shape)
            x = int(np.broadcast_to(xs, alg.shape)[at])
            m = int(np.broadcast_to(masks, alg.shape)[at])
            return EquivalenceReport(
                passed=False,
                pairs_checked=before + i + 1,
                first_mismatch=(x, m, int(alg[at]), int(hw[at])),
            )
    return EquivalenceReport(passed=True, pairs_checked=total)
