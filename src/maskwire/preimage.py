"""Preimage counting and distribution analysis for masked wire maps.

Two counting routes are kept deliberately separate:

* counts_bruteforce_all tallies hits over every mask — the oracle;
* counts_closedform_all tests only the two algebraic candidates x - v
  and x - v + r against their branch conditions — the production path.

Cross-checking the two routes is the core property this package exists
to exercise, so neither is ever expressed in terms of the other.  Both
take a canonical secret 0 <= x < q and raise ValueError otherwise.
count_closedform stays a scalar O(1) form next to the vectorised
counts_closedform_all: the test suite checks the vectorised counts
against it, and building it from counts_closedform_all would make that
check vouch for itself.

Every scan over the mask (or value) axis walks it in tiles of TILE =
2^14 elements, so one secret's scan keeps only its q-length result
array and never builds a q-length int64 temporary.  A 2^14-element
int64 tile is 128 KiB, so a tile's temporaries stay in a 2 MB L2
cache instead of being page-faulted and streamed through memory: on a
2-vCPU x86-64 host with numpy 2.4, the algebraic evaluator costs 13.1
ns/element over a full q = 8,380,417 array and 5.6 ns/element in 2^14
tiles, copying the result out included.  Every q <= TILE (ML-KEM's
3329 and the NTT primes up to 12289 among them) is a single tile, so
small rings run the same numpy operations as an untiled scan.

The closed form and the exhaustive equivalence scan build their tiles
in gadgets.lane_dtype: int32, 64 KiB a tile, for every q <= 2^30 (and
s <= 31 for the equivalence scan).  Mask enumeration stays int64: its
cost is the np.add.at scatter, which int32 masks did not speed up.
Sampled equivalence draws int64 pairs, so a seed keeps drawing the
same pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .gadgets import (
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
# Elements per tile of every mask/value scan: 128 KiB of int64.
TILE = 1 << 14
# (pairs before the tile, secret or secrets, masks) for equivalence_check.
PairTile = Tuple[int, IntOrArray, np.ndarray]


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


def tally_masks(q: int, wire: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per-value counts of wire(m) over every mask m in Z_q, one tile at a time."""
    counts = np.bincount(wire(np.arange(min(q, TILE), dtype=np.int64)), minlength=q)
    for lo in range(TILE, q, TILE):
        np.add.at(counts, wire(np.arange(lo, min(lo + TILE, q), dtype=np.int64)), 1)
    return counts


def counts_bruteforce_all(g: WireGadget, x: int) -> np.ndarray:
    """Per-value preimage counts for secret x, by one pass over all masks."""
    q = g.q.q
    if not 0 <= x < q:
        raise ValueError(f"secret {x} not canonical for modulus {q}")
    return tally_masks(q, lambda masks: g.eval_vec(x, masks))


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
    x: int, q: int, r: int, lo: int, hi: int, dtype: np.dtype, out: np.ndarray
) -> None:
    """Write the closed-form counts of values v in [lo, hi) into out, as int8.

    a = (x - v) mod q and b = (a + r) mod q are computed in dtype; with
    x, v, r in [0, q) each needs at most one correction, and every
    intermediate lies in (-q, 2q).
    """
    a = np.arange(x - lo, x - hi, -1, dtype=dtype)
    np.add(a, q, out=a, where=a < 0)
    direct = a <= x
    b = np.add(a, r, out=a)
    np.subtract(b, q, out=b, where=b >= q)
    np.add(direct, b > x, out=out, dtype=np.int8)


def counts_closedform_all(p: BarrettParams, x: int) -> np.ndarray:
    """Per-value closed-form preimage counts for canonical secret x, as int8.

    Each count sums two candidate tests, so it never exceeds 2.  With
    r = 0 the tests read a <= x and a > x, so every count is 1.  The
    tiles wrap at no s-bit word, so their lane depends on q alone.
    """
    q = p.q.q
    r = p.r.val
    if not 0 <= x < q:
        raise ValueError(f"secret {x} not canonical for modulus {q}")
    lane = lane_dtype(q)
    counts = np.empty(q, dtype=np.int8)
    for lo in range(0, q, TILE):
        hi = min(lo + TILE, q)
        _closedform_tile(x, q, r, lo, hi, lane, counts[lo:hi])
    return counts


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


def trichotomy_check(
    p: BarrettParams,
    secrets: Optional[Iterable[int]] = None,
    oracle: bool = False,
) -> TrichotomyReport:
    """Verify that no output value has three or more preimages.

    secrets = None sweeps every secret.  oracle = True counts by mask
    enumeration instead of the closed form.  A failure is data, not an
    error: the first offending (secret, value, count) is reported.
    """
    q = p.q.q
    gadget = make_barrett_gadget(p) if oracle else None
    checked = 0
    max_seen = 0
    counterexample = None
    for x in range(q) if secrets is None else secrets:
        if oracle:
            counts = counts_bruteforce_all(gadget, x)
        else:
            counts = counts_closedform_all(p, x)
        checked += 1
        max_seen = max(max_seen, int(counts.max()))
        if max_seen > 2:
            v = int(np.argmax(counts > 2))
            counterexample = (x, v, int(counts[v]))
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

    Known to disagree with enumeration in some regimes (see the extended
    predictor); reported side by side so the data can speak.
    """
    q = p.q.q
    r = p.r.val
    return max(0, min(x.val + 1, q - r, q - 1 - x.val))


def support_gap_predicted_extended(p: BarrettParams, x: ZqElem) -> int:
    """Four-term gap predictor min(x+1, q-1-x, r, q-r).

    Candidate correction of the three-term formula; validated against
    brute-force enumeration by the test suite and the sweep command.
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
    """(pairs before, secret, masks) tiles over all q^2 pairs, secret-major.

    The masks are built in dtype, which picks both evaluators' lane.  The
    secret stays a scalar (gadgets explains why secrets are not blocked
    into 2-D arrays), and every secret reuses the first tile's arange.
    """
    first = np.arange(min(q, TILE), dtype=dtype)
    for x in range(q):
        for lo in range(0, q, TILE):
            if lo == 0:
                masks = first
            else:
                masks = np.arange(lo, min(lo + TILE, q), dtype=dtype)
            yield x * q + lo, x, masks


def _sampled_pair_tiles(q: int, sample: int, seed: int) -> Iterator[PairTile]:
    """(pairs before, secrets, masks) tiles of `sample` seeded random pairs."""
    rng = np.random.default_rng(seed)
    for lo in range(0, sample, TILE):
        xs, ms = rng.integers(0, q, size=(2, min(TILE, sample - lo)))
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
        bad = np.nonzero(alg != hw)[0]
        if len(bad) > 0:
            i = int(bad[0])
            x = int(np.broadcast_to(xs, masks.shape)[i])
            return EquivalenceReport(
                passed=False,
                pairs_checked=before + i + 1,
                first_mismatch=(x, int(masks[i]), int(alg[i]), int(hw[i])),
            )
    return EquivalenceReport(passed=True, pairs_checked=total)
