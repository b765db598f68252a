"""Preimage counting and distribution analysis for masked wire maps.

Two counting routes are kept deliberately separate:

* counts_bruteforce_all tallies hits over every mask — the oracle;
* counts_closedform_all fills each row as the interval lemma's two
  sets, the direct set [0, x] and the wrap set D^c + r — the production
  path.

Cross-checking the two routes is the core property this package exists
to exercise, so neither is ever expressed in terms of the other.  Both
take a canonical secret 0 <= x < q, or a 1-D array of them, return
counts of shape shape(x) + (q,), and raise ValueError if any secret is
not canonical; so do the scalar forms and profiles, on plain ints.
count_closedform stays a scalar O(1) form next to the vectorised
counts_closedform_all: the test suite checks the vectorised counts
against it, and building it from counts_closedform_all would make that
check vouch for itself.

Every scan keeps each array it builds within BLOCK_BYTES, under glibc's
128 KiB mmap threshold (gadgets says what crossing it cost).  Secrets go
in blocks of B = block_rows(q, dtype), the most whole rows of q that
fit, and a block is one (B, q) array: a (B, 1) secret column against a
row of masks, so small rings pay numpy's per-call cost once per block
(9 secrets in int32 at q = 3329).  A row that does not fit is a block
of one, cut into tiles of tile_len(dtype) = BLOCK_BYTES // itemsize
elements (32,704 in int32) whose temporaries stay in L2 cache.  Both
routes count in uint8, q bytes a secret.  The closed form fills its
rows in place, three slices a row with Python-int bounds: 1.5 ms a
secret at q = 8,380,417 (2-vCPU x86-64 host, numpy 2.4).

Enumeration walks its mask axis through _tiles in its route's _lane,
and the exhaustive equivalence scan in lane_dtype(q, s).  The
two-branch and translation wires wrap at no s-bit word, so q alone sets
a route's lane, int32 wherever q <= 2^30.  It tallies a tile with one
slice add per run of masks whose values fall by one, exact for any wire
(see _tally); the two wires break a row's run at most twice, at the
branch switch and at the wrap past 0, so a Barrett secret at
q = 8,380,417 took 26-31 ms against 44-50 ms with a np.add.at a tile.
A row's mass tells whether a uint8 count wrapped (counts_bruteforce_all).
scan(secrets, route, reduce, check) drives every per-secret scan.  A
route is an (arg, count) pair run as count(arg, xs): BarrettParams with
counts_closedform_all, or a WireGadget with counts_bruteforce_all; scan
sizes both routes' blocks in _lane, so they take the same blocks at one
q.  A check route counts each block a second way, compared slice by
slice; on disagreement reduce gets its counts.  Only reduce's result
outlives a block, and the other counts die before it runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from .gadgets import (
    INT64,
    BarrettParams,
    IntOrArray,
    WireGadget,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    lane_dtype,
    make_barrett_gadget,
)

# analyze's and trichotomy's full-modulus secret sweeps stop at this
# size; beyond, cli._secret_scope draws DEFAULT_SAMPLE_SECRETS by PRNG.
EXHAUSTIVE_SECRET_LIMIT = 2**16
DEFAULT_SAMPLE_SECRETS = 16
DEFAULT_SEED = 0
# Bytes per block or tile array, kept under glibc's 128 KiB mmap threshold.
BLOCK_BYTES = 2**17 - 256
# Mean run length from which enumeration tallies a tile by slices, not np.add.at.  Tiles
# of 32,704 int32 masks into an 8.4 MB uint8 row broke even at runs of 768-1024 masks.
RUN_BREAK_EVEN = 1024
# (offset, secrets, masks) from _tiles and for equivalence_check.
Tile = Tuple[int, np.ndarray, np.ndarray]
# (arg, count) for scan, run as count(arg, xs).
Route = Tuple[Any, Callable[[Any, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class MultiplicityProfile:
    """Per-secret histogram of preimage sizes over all q output values.

    The secret and q, then measurements: zeros/ones/twos count output
    values by preimage size; overflow (size >= 3) and support_size
    (size >= 1) follow from them and q.  Construction checks nothing, so
    a report keeps a broken histogram as data; `conserved` gives the verdict.
    """

    secret: int
    q: int
    zeros: int
    ones: int
    twos: int
    max_count: int

    @classmethod
    def from_counts(cls, secret: int, q: int, counts: np.ndarray) -> "MultiplicityProfile":
        """Profile a per-value counts array in four passes: nonzero, twos, max and min."""
        _require_canonical("secret", secret, q)
        if counts.shape != (q,):
            raise ValueError(f"counts array must have length q={q}")
        nonzero, twos = int(np.count_nonzero(counts)), int(np.count_nonzero(counts == 2))
        top = int(counts.max())
        # Past 0..2, nonzero - twos is not the ones: count them, so a broken row stays data.
        in_range = top <= 2 and counts.min() >= 0
        ones = nonzero - twos if in_range else int(np.count_nonzero(counts == 1))
        return cls(secret, q, zeros=q - nonzero, ones=ones, twos=twos, max_count=top)

    @property
    def overflow(self) -> int:
        return self.q - self.zeros - self.ones - self.twos

    @property
    def support_size(self) -> int:
        return self.q - self.zeros

    @property
    def conserved(self) -> bool:
        """The conservation law holds: no overflow and zeros = twos.

        The wire map is total, so with no value hit three times its q
        masks must add up to ones + 2*twos = q.  With no overflow,
        zeros + ones + twos = q, so ones + 2*twos = q holds exactly when
        zeros = twos: the mass needs no clause of its own.
        """
        return self.overflow == 0 and self.zeros == self.twos


@dataclass(frozen=True)
class WitnessReport:
    """witness's row in column order, less verified, the exit code; a new field changes digests."""

    found: bool
    secret: Optional[int] = None
    value: Optional[int] = None
    count: Optional[int] = None
    mask_a: Optional[int] = None
    mask_b: Optional[int] = None
    verified: bool = True


@dataclass(frozen=True)
class TrichotomyReport:
    """trichotomy's row in column order; a new field is a new column and changes the digests."""

    passed: bool
    secrets_checked: int
    pairs_checked: int
    max_count_seen: int
    route: str
    cx_secret: Optional[int] = None
    cx_value: Optional[int] = None
    cx_count: Optional[int] = None


@dataclass(frozen=True)
class EquivalenceReport:
    """equiv's row in column order; a new field is a new column and changes the digests."""

    passed: bool
    pairs_checked: int
    pair_mode: str
    mm_secret: Optional[int] = None
    mm_mask: Optional[int] = None
    mm_algebraic: Optional[int] = None
    mm_hw: Optional[int] = None


def tile_len(dtype: np.dtype) -> int:
    """Elements of dtype per tile: as many as fit BLOCK_BYTES."""
    return BLOCK_BYTES // np.dtype(dtype).itemsize


def block_rows(q: int, dtype: np.dtype) -> int:
    """Secrets per block: the most (B, q) dtype rows within BLOCK_BYTES, at least 1."""
    return max(1, tile_len(dtype) // q)


def _lane(arg: Any) -> np.dtype:
    """A route's lane, lane_dtype(q), for BarrettParams and WireGadget alike."""
    return lane_dtype(arg.q)


def _blocks(secrets: Iterable[int], rows: int) -> Iterator[np.ndarray]:
    """The secrets in order as int64 arrays of `rows`, only the last shorter."""
    it = iter(secrets)
    while block := list(islice(it, rows)):
        yield np.array(block, dtype=np.int64)


def _tiles(xs: np.ndarray, q: int, dtype: np.dtype) -> Iterator[Tile]:
    """(lo, col, row) tiles over the masks [0, q), built one at a time.

    col is xs as a (B, 1) column in dtype; row is lo, lo + 1, ..., the
    masks of one tile of tile_len(dtype), in dtype.
    """
    col = xs.astype(dtype).reshape(-1, 1)
    step = tile_len(dtype)
    for lo in range(0, q, step):
        yield lo, col, np.arange(lo, min(lo + step, q), dtype=dtype)


def scan(
    secrets: Iterable[int],
    route: Route,
    reduce: Callable[[np.ndarray, np.ndarray], Any],
    check: Optional[Route] = None,
) -> Iterator[Tuple[Any, bool]]:
    """(reduce(xs, counts), agree) for each block xs of the secrets, in order.

    xs is an int64 array of block_rows(q, _lane(route)) secrets; only the
    last block may be shorter.  check, if given, counts each block a second
    way over the same q, agree says whether the two arrays are equal, and
    on disagreement reduce gets check's counts.
    """
    rows = block_rows(route[0].q, _lane(route[0]))
    for xs in _blocks(secrets, rows):
        yield _scan_block(xs, route, reduce, check)


def _scan_block(
    xs: np.ndarray, route: Route, reduce: Callable, check: Optional[Route]
) -> Tuple[Any, bool]:
    """One block of scan; its count arrays die on return, before the next block."""
    counts = route[1](route[0], xs)
    if check is None:
        return reduce(xs, counts), True
    checked = check[1](check[0], xs)
    # Compared in slices of BLOCK_BYTES elements, so no q-length bool is built.
    a, b, n = checked.reshape(-1), counts.reshape(-1), BLOCK_BYTES
    agree = checked.shape == counts.shape and all(
        np.array_equal(a[i : i + n], b[i : i + n]) for i in range(0, a.size, n)
    )
    counts = counts if agree else checked
    del checked, a, b  # reduce runs beside one block of counts, not two
    return reduce(xs, counts), agree


def _require_canonical(name: str, n: int, q: int) -> None:
    if not 0 <= n < q:
        raise ValueError(f"{name} {n} not canonical for modulus {q}")


def _canonical(x: IntOrArray, q: int) -> np.ndarray:
    """x as an int64 array, or ValueError naming its first secret outside [0, q)."""
    xs = np.asarray(x)
    bad = (xs < 0) | (xs >= q)
    if bad.any():
        raise ValueError(f"secret {xs[bad][0]} not canonical for modulus {q}")
    return xs.astype(np.int64)


def counts_bruteforce_all(g: WireGadget, x: IntOrArray) -> np.ndarray:
    """Per-value preimage counts for secret(s) x over every mask, of shape(x) + (q,).

    uint8, or int32 if a count passes 255.  A row's q masks make q increments
    and uint8 keeps a count c as c mod 256, so the row sums to
    q - 256 * sum(c // 256): to q exactly when no count passed 255.  A block
    with a row off is counted again in int32, where no count passes q < 2^31.
    """
    xs = _canonical(x, g.q)
    counts = _tally(g, xs, np.uint8)
    if (counts.sum(axis=-1, dtype=np.uint32) != g.q).any():
        counts = _tally(g, xs, np.int32)
    return counts


def _tally(g: WireGadget, xs: np.ndarray, dtype: type) -> np.ndarray:
    """Counts for secret(s) xs in dtype, each modulo dtype's range, of shape(xs) + (q,).

    g.eval_vec gets one (col, masks) tile of _tiles at a time and returns
    a (B, n) array; a value outside [0, q) raises ValueError instead of
    landing in a neighbouring secret's row.  Row i's values plus i*q, in
    lane_dtype(B*q) so no index wraps, are cut into runs that fall by one
    per mask, and each run adds 1 to one slice of counts.  That is exact
    for any wire: the runs partition the tile's masks, a run's indices are
    one interval, and no row falls by one into the next row's offset.  A
    tile whose mean run is under RUN_BREAK_EVEN takes one np.add.at.
    """
    q = g.q
    offsets = np.arange(0, xs.size * q, q, dtype=lane_dtype(xs.size * q)).reshape(-1, 1)
    counts = np.zeros(xs.size * q, dtype=dtype)
    for _, col, masks in _tiles(xs, q, _lane(g)):
        idx = g.eval_vec(col, masks)
        # Read unsigned, a negative value is huge, so one max bounds both ends.
        if idx.view(f"u{idx.itemsize}").max(initial=0) >= q:
            raise ValueError(f"wire value outside [0, {q}) for modulus {q}")
        # Rebound, so the (B, n) values die before the run test's temporaries.
        idx = idx.ravel() if xs.size == 1 else (idx + offsets).ravel()
        breaks = idx[1:] - idx[:-1] != -1
        if idx.size < RUN_BREAK_EVEN * (np.count_nonzero(breaks) + 1):
            # A typed increment keeps ufunc.at on its fast path; a Python 1 does not.
            np.add.at(counts, idx, dtype(1))
            continue
        cuts = np.flatnonzero(breaks)  # where each run but the tile's last one ends
        tops = [int(idx[0])] + idx[cuts + 1].tolist()
        for top, bottom in zip(tops, idx[cuts].tolist() + [int(idx[-1])]):
            counts[bottom : top + 1] += 1
    return counts.reshape(xs.shape + (q,))


def count_closedform(p: BarrettParams, x: int, v: int) -> int:
    """Preimage size from the two-candidate characterization, in {0, 1, 2}.

    Candidate x - v counts iff it takes the direct branch, and candidate
    x - v + r counts iff it takes the wrapping branch.  With r = 0 both
    candidates coincide and exactly one test holds: the map is the
    bijection m -> x - m.
    """
    _require_canonical("secret", x, p.q)
    _require_canonical("value", v, p.q)
    a = (x - v) % p.q
    b = (a + p.r) % p.q
    return (1 if a <= x else 0) + (1 if b > x else 0)


def counts_closedform_all(p: BarrettParams, x: IntOrArray) -> np.ndarray:
    """Closed-form preimage counts for canonical secret(s) x, uint8 of shape(x) + (q,).

    Row x is [v <= x] + [v in D^c + r]: 1 on [0, x], plus 1 on the wrap
    set, the q - 1 - x values from (x + 1 + r) mod q on, cut in two where
    it passes q.  Each row is three slices with Python-int bounds, so a
    count never exceeds 2, and with r = 0 the wrap set is (x, q) and
    every count is 1.
    """
    q, r = p.q, p.r
    xs = _canonical(x, q)
    counts = np.zeros((xs.size, q), dtype=np.uint8)
    for row, x in zip(counts, xs.ravel().tolist()):
        row[: x + 1] = 1
        lo = (x + 1 + r) % q
        hi = lo + q - 1 - x
        row[lo:hi] += 1
        row[: max(0, hi - q)] += 1
    return counts.reshape(xs.shape + (q,))


def sample_secrets(q: int, n: int, seed: int = DEFAULT_SEED) -> list[int]:
    """n distinct secrets drawn by a seeded PRNG, returned ascending."""
    if n >= q:
        return list(range(q))
    rng = random.Random(seed)
    return sorted(rng.sample(range(q), n))


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
    if oracle:
        name, route = "bruteforce", (make_barrett_gadget(p), counts_bruteforce_all)
    else:
        name, route = "closedform", (p, counts_closedform_all)
    checked = max_seen = 0
    counterexample = None
    for (seen, peak, counterexample), _ in scan(
        range(p.q) if secrets is None else secrets, route, _trichotomy_block
    ):
        checked += seen
        max_seen = max(max_seen, peak)
        if counterexample:
            break
    # The cx_* fields take the (secret, value, count) triple, or stay None.
    return TrichotomyReport(
        counterexample is None, checked, checked * p.q, max_seen, name, *(counterexample or ())
    )


def support_gap_predicted_paper(p: BarrettParams, x: int) -> int:
    """Published three-term gap predictor min(x+1, q-r, q-1-x).

    It lacks the r term of the derived four-term form (see the extended
    predictor), so it overshoots exactly when r < min(x+1, q-1-x, q-r);
    both are reported side by side so the data can speak.
    """
    q, r = p.q, p.r
    _require_canonical("secret", x, q)
    return max(0, min(x + 1, q - r, q - 1 - x))


def support_gap_predicted_extended(p: BarrettParams, x: int) -> int:
    """Four-term gap predictor min(x+1, q-1-x, r, q-r), derived exactly.

    With D = [0, x], the direct masks m <= x hit each v in D once and the
    wrap masks m in [x+1, q-1] hit each v in D^c + r (mod q) once.  So
    count(v) = [v in D] + [v in D^c + r] lies in {0, 1, 2}, the counts sum
    to q, and zeros = twos = |D| - |D & (D + r)| = max(0, min(x+1, q-1-x,
    r, q-r)).  The test suite and the sweep still check it by enumeration.
    """
    q, r = p.q, p.r
    _require_canonical("secret", x, q)
    return max(0, min(x + 1, q - 1 - x, r, q - r))


def tightness_witness_search(p: BarrettParams) -> WitnessReport:
    """First (secret, value) pair, scanning ascending, with two preimages.

    No such pair exists when r = 0 (the map degenerates to a bijection).
    For r != 0 the scan never gets past its first pair, x = 0 and v = 0:
    the direct candidate mask x - v = 0 takes the direct branch (0 <= 0)
    and the wrap candidate x - v + r = r takes the wrapping branch
    (r > 0), so count_closedform is 2 there.  The two masks are still
    re-evaluated through the wire map; verified is False unless both
    send secret 0 to value 0 and they differ.
    """
    if p.r == 0:
        return WitnessReport(found=False)
    wire = barrett_algebraic_eval_vec(p, 0, np.array([0, p.r]))
    return WitnessReport(
        found=True, secret=0, value=0, count=2, mask_a=0, mask_b=p.r,
        verified=not wire.any(),
    )


def _exhaustive_pair_tiles(q: int, dtype: np.dtype) -> Iterator[Tile]:
    """(pairs before, secrets, masks) tiles over all q^2 pairs, secret-major.

    They are the _tiles, in dtype, of blocks of whole rows (B > 1 only
    when a row fits in half a tile), so a tile's flat order is pair order.
    """
    for xs in _blocks(range(q), block_rows(q, dtype)):
        for lo, col, masks in _tiles(xs, q, dtype):
            yield int(xs[0]) * q + lo, col, masks


def _sampled_pair_tiles(q: int, sample: int, seed: int) -> Iterator[Tile]:
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
    q = p.q
    if sample is None:
        mode, total, tiles = "exhaustive", q * q, _exhaustive_pair_tiles(q, lane_dtype(q, p.s))
    else:
        mode, total, tiles = "sampled", sample, _sampled_pair_tiles(q, sample, seed)
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
                False, before + i + 1, mode, x, m, int(alg[at]), int(hw[at])
            )
    return EquivalenceReport(True, total, mode)
