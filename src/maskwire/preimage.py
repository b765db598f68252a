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
not canonical.  MultiplicityProfile.from_counts and the two gap
predictors follow the same shape(x) rule: an int secret gives ints, a
block of B secrets one profile of length-B int64 arrays and lists of B
predicted gaps, so a scan block is profiled and predicted in one call
each.  count_closedform stays a scalar O(1) form next to the vectorised
counts_closedform_all: the test suite checks the vectorised counts
against it, and building it from counts_closedform_all would make that
check vouch for itself.

Every scan keeps each array it builds within BLOCK_BYTES, under glibc's
128 KiB mmap threshold (gadgets says what crossing it cost).  Secrets go
in blocks of B = block_rows(q, dtype), the most whole rows of q that
fit, and a block is one (B, q) array: a (B, 1) secret column against a
row of masks, so small rings pay numpy's per-call cost once per block
(19 secrets in int16 at q = 3329).  A row that does not fit is a block
of one, cut into tiles of tile_len(dtype) = BLOCK_BYTES // itemsize
elements (65,408 in int16, 32,704 in int32) whose temporaries stay in
L2 cache.  Both routes count in uint8, q bytes a secret.  The closed
form fills its rows in place, three slices a row with Python-int
bounds: 1.5 ms a secret at q = 8,380,417 (2-vCPU x86-64 host, numpy 2.4).

Enumeration and the exhaustive equivalence scan walk their mask axis
through _tiles in lane_dtype(q): the two-branch and translation wires
wrap at no s-bit word, and q alone sets every lane: int16 wherever
q <= 2^14 (every NTT modulus) and int32 up to 2^30.  Only that scan's
line of 2q - 1 s-bit values (equivalence_check), one a scan in
lane_dtype(q), passes BLOCK_BYTES, from q = 2^14 + 1 where it is int32;
it is built in int64 tiles beside a few tile-sized temporaries.
A tile's masks are a range, so on long rows the two wires take
gadgets' slice form.  Enumeration tallies a tile with one slice add per
run of masks whose values fall by one, exact for any wire (see
_tally); the two wires break a row's run at most twice, at the
branch switch and at the wrap past 0, so a Barrett secret at
q = 8,380,417 took 8.6-16 ms (20-35 ms with the general form and a range
check over every value).  The runs, else a row's mass, tell whether a
uint8 count wrapped (counts_bruteforce_all).
scan(q, secrets, count, reduce) drives every per-secret scan: it yields
reduce(xs, count(xs)) for each block xs.  A route is a plain callable
count(xs) of a secret block: partial(counts_closedform_all, p),
partial(counts_bruteforce_all, g) for a WireGadget g, or any other
wire's counts.  scan sizes its blocks in lane_dtype(q), so every route
takes the same blocks at one q.  A cross-check is a reduce like any
other: partial(counts_bruteforce_check, g) answers whether the closed
form's uint8 counts are g's, cancelling them in place, mask by mask, so
a checked block holds one row of counts a secret.  Only reduce's result
outlives a block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from .gadgets import (
    INT64,
    BarrettParams,
    IntOrArray,
    Masks,
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
# Mean run length from which enumeration tallies a tile by slices, not np.add.at.  Tiles of
# 32,704 int32 masks into an 8.4 MB uint8 row broke even at runs of 768-1024; int16 blocks of
# 65,408 near 660-770 (np.add.at / slices, us: 210 / 230 at runs of 600, 200 / 171 at 1,000).
RUN_BREAK_EVEN = 1024
# (offset, secrets, masks) from _tiles (masks a range) and for equivalence_check.
Tile = Tuple[int, np.ndarray, Masks]


class WireValueError(ValueError):
    """A wire map returned a value outside [0, q): a fault in the map, not in its input."""


@dataclass(frozen=True)
class MultiplicityProfile:
    """Histogram of preimage sizes over all q output values, of a secret or a block.

    The secret and q, then measurements: zeros/ones/twos count output
    values by preimage size; overflow (size >= 3) and support_size
    (size >= 1) follow from them and q.  For an int secret every field
    is an int; for an array of secrets, such as a scan block of B, each
    field but q is an int64 array of its shape, and overflow,
    support_size and conserved hold elementwise.  Construction checks
    nothing, so a report keeps a broken histogram as data; `conserved`
    gives the verdict.
    """

    secret: IntOrArray
    q: int
    zeros: IntOrArray
    ones: IntOrArray
    twos: IntOrArray
    max_count: IntOrArray

    @classmethod
    def from_counts(cls, secret: IntOrArray, q: int, counts: np.ndarray) -> "MultiplicityProfile":
        """Profile counts of shape shape(secret) + (q,) from each row's nonzero, twos and max.

        A block is measured in one max(axis=1), one count_nonzero per
        row and one counts == 2 while the block fits BLOCK_BYTES (see
        _count_equal), so no row-length bool is built beside a long row.
        count_nonzero(axis=1) would cast the block to intp first.  Past
        0..2, or in a signed dtype, nonzero - twos need not be the ones:
        they are counted too, so a broken row stays data.
        """
        xs = _canonical(secret, q)
        if counts.shape != xs.shape + (q,):
            raise ValueError(f"counts array must have length q={q} for each secret")
        block = counts.reshape(-1, q)
        top = block.max(axis=1).astype(np.int64)
        nonzero = np.array([np.count_nonzero(row) for row in block], dtype=np.int64)
        twos = _count_equal(block, 2)
        if block.dtype.kind == "u" and max(top.tolist(), default=0) <= 2:
            ones = nonzero - twos
        else:
            ones = _count_equal(block, 1)
        columns = [c.reshape(xs.shape) for c in (q - nonzero, ones, twos, top)]
        if xs.ndim == 0:
            return cls(int(xs), q, *map(int, columns))
        return cls(xs, q, *columns)

    def __eq__(self, other: object) -> bool:
        """Field by field, a block's fields as whole arrays (a tuple compare of
        arrays would ask an array for its truth value)."""
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @property
    def overflow(self) -> IntOrArray:
        return self.q - self.zeros - self.ones - self.twos

    @property
    def support_size(self) -> IntOrArray:
        return self.q - self.zeros

    @property
    def conserved(self) -> Any:
        """The conservation law holds (a bool, or a bool array for a block):
        no overflow and zeros = twos.

        The wire map is total, so with no value hit three times its q
        masks must add up to ones + 2*twos = q.  With no overflow,
        zeros + ones + twos = q, so ones + 2*twos = q holds exactly when
        zeros = twos: the mass needs no clause of its own.
        """
        return (self.zeros + self.ones + self.twos == self.q) & (self.zeros == self.twos)


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
    """Elements of dtype per tile: as many as fit BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // np.dtype(dtype).itemsize)


def block_rows(q: int, dtype: np.dtype) -> int:
    """Secrets per block: the most (B, q) dtype rows within BLOCK_BYTES, at least 1."""
    return max(1, tile_len(dtype) // q)


def _count_equal(block: np.ndarray, value: int) -> np.ndarray:
    """Entries of each row of a (B, q) block equal to value, as int64.

    One compare over the block while it fits BLOCK_BYTES, else each row
    BLOCK_BYTES entries at a time; each row's bools are counted alone.
    """
    n = BLOCK_BYTES
    if block.size <= n:
        hits = [np.count_nonzero(row) for row in block == value]
    else:
        hits = [
            sum(np.count_nonzero(row[i : i + n] == value) for i in range(0, row.size, n))
            for row in block
        ]
    return np.array(hits, dtype=np.int64)


def _blocks(secrets: Iterable[int], rows: int) -> Iterator[np.ndarray]:
    """The secrets in order as int64 arrays of `rows`, only the last shorter."""
    it = iter(secrets)
    while block := list(islice(it, rows)):
        yield np.array(block, dtype=np.int64)


def _tiles(xs: np.ndarray, q: int, dtype: np.dtype) -> Iterator[Tile]:
    """(lo, col, masks) tiles over the masks [0, q), one at a time.

    col is xs as a (B, 1) column in dtype; masks is range(lo, hi), the
    contiguous masks of one tile of tile_len(dtype).
    """
    col = xs.astype(dtype).reshape(-1, 1)
    step = tile_len(dtype)
    for lo in range(0, q, step):
        yield lo, col, range(lo, min(lo + step, q))


def scan(
    q: int,
    secrets: Iterable[int],
    count: Callable[[np.ndarray], np.ndarray],
    reduce: Callable[[np.ndarray, np.ndarray], Any],
) -> Iterator[Any]:
    """reduce(xs, count(xs)) for each block xs of the secrets, in order.

    xs is an int64 array of block_rows(q, lane_dtype(q)) secrets; only the
    last block may be shorter.  A block's counts die once reduce returns,
    unless reduce returns them.
    """
    for xs in _blocks(secrets, block_rows(q, lane_dtype(q))):
        yield reduce(xs, count(xs))


def _require_canonical(name: str, n: int, q: int) -> None:
    if not 0 <= n < q:
        raise ValueError(f"{name} {n} not canonical for modulus {q}")


def _canonical(x: IntOrArray, q: int) -> np.ndarray:
    """x as an int64 array, or ValueError naming its first secret outside [0, q)."""
    xs = np.asarray(x)
    for n in xs.ravel().tolist():  # Python ints: a huge secret cannot wrap into range
        if not 0 <= n < q:
            raise ValueError(f"secret {n} not canonical for modulus {q}")
    return xs.astype(np.int64, copy=False)


def counts_bruteforce_all(g: WireGadget, x: IntOrArray) -> np.ndarray:
    """Per-value preimage counts for secret(s) x over every mask, of shape(x) + (q,).

    uint8, or lane_dtype(q)'s unsigned twin if a count passes 255.  A count
    is at most its value's runs (see _tally), so with at most 255 runs a
    row no uint8 count wraps.  Else a row's q masks make q increments, and
    with a count c kept as c mod 256 the row sums to q - 256 * sum(c // 256):
    to q exactly when no count passed 255.  A block with a row off is counted
    again in the twin: it holds any count <= q in the block's bytes in the lane.
    """
    xs = _canonical(x, g.q)
    counts, runs = _tally(g, xs, np.uint8)
    if runs > 255 and (counts.sum(axis=-1, dtype=np.uint32) != g.q).any():
        counts, _ = _tally(g, xs, np.dtype(f"u{lane_dtype(g.q).itemsize}").type)
    return counts


def counts_bruteforce_check(g: WireGadget, x: IntOrArray, counts: np.ndarray) -> bool:
    """Whether counts are g's preimage counts for secret(s) x, by enumeration.

    _tally takes 1 off uint8 counts in place for every mask, so counts
    that agree leave all zeros, modulo 256.  No enumerated count passes
    its runs, so with at most 255 runs a row a zero residue is agreement;
    with more, the counts agree unless an exact recount passes 255.
    Counts of another dtype or shape are compared whole with the recount
    and left as they are.
    """
    xs = _canonical(x, g.q)
    if counts.dtype != np.uint8 or counts.shape != xs.shape + (g.q,):
        return np.array_equal(counts_bruteforce_all(g, xs), counts)
    residue, runs = _tally(g, xs, np.uint8, into=counts)
    if np.count_nonzero(residue):
        return False
    return runs <= 255 or counts_bruteforce_all(g, xs).dtype == np.uint8


def _tally(
    g: WireGadget, xs: np.ndarray, dtype: type, into: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, int]:
    """(counts, runs) for secret(s) xs: counts in dtype, each modulo its range,
    of shape(xs) + (q,), and the most runs that any one row fell into.

    g.eval_vec gets one (col, masks) tile of _tiles at a time and returns
    a (B, n) array.  Each row is cut into runs of masks whose values fall
    by one, and each run adds 1 to one slice of its row's counts: exact
    for any wire.  A run's top and bottom bound it, so a value outside
    [0, q) raises WireValueError instead of landing in another row.  A run
    going on past a tile edge counts once: its pieces cover disjoint
    values.  A tile whose mean run is under RUN_BREAK_EVEN takes one
    np.add.at, checked by an unsigned max, and credits each row with the
    tile's runs less one a row besides, at most n: never fewer than its own.
    Given into, counts of that shape and dtype, each mask takes 1 off
    them in place instead, and they are returned.
    """
    q = g.q
    # Narrowest unsigned dtype: plus the values read unsigned, the index keeps their width.
    offsets = np.arange(0, xs.size * q, q, dtype=np.min_scalar_type(xs.size * q)).reshape(-1, 1)
    counts = np.zeros(xs.size * q, dtype=dtype) if into is None else into.reshape(-1)
    # ~0 is -1 in any integer dtype, modulo 256 in uint8.  A typed step keeps
    # ufunc.at on its fast path; a Python 1 does not.
    step = dtype(1) if into is None else ~dtype(0)
    runs = [0] * xs.size
    for lo, col, masks in _tiles(xs, q, lane_dtype(q)):
        vals = g.eval_vec(col, masks)
        n, flat = len(masks), vals.ravel()
        breaks = flat[1:] - flat[:-1] != -1
        breaks[n - 1 :: n] = True  # no run crosses into the next row
        cut = int(np.count_nonzero(breaks))  # Python ints keep runs, and the check's answer, plain
        if flat.size < RUN_BREAK_EVEN * (cut + 1):
            # Read unsigned, a negative value is huge, so one max bounds both ends.
            unsigned = vals.view(f"u{vals.itemsize}")
            if unsigned.max(initial=0) >= q:
                raise WireValueError(f"wire value outside [0, {q}) for modulus {q}")
            np.add.at(counts, (unsigned + offsets).ravel(), step)
            # Of the tile's cut + 1 runs, each other row holds one or more.
            runs = [k + min(n, cut + 2 - len(vals)) for k in runs]
        else:
            cuts = np.flatnonzero(breaks).tolist() if cut else []
            starts, ends = [0] + [c + 1 for c in cuts], cuts + [flat.size - 1]
            for start, top, bottom in zip(starts, flat[starts].tolist(), flat[ends].tolist()):
                if not 0 <= bottom <= top < q:
                    raise WireValueError(f"wire value outside [0, {q}) for modulus {q}")
                row = start // n  # a row's first run may go on from the tile before
                runs[row] += start % n > 0 or lo == 0 or top != last[row] - 1
                counts[row * q + bottom : row * q + top + 1] += step
        last = vals[:, -1].tolist()
    return counts.reshape(xs.shape + (q,)), max(runs, default=0)


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
        if hi > q:
            row[: hi - q] += 1
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
        name, count = "bruteforce", partial(counts_bruteforce_all, make_barrett_gadget(p))
    else:
        name, count = "closedform", partial(counts_closedform_all, p)
    checked = max_seen = 0
    counterexample = None
    for seen, peak, counterexample in scan(
        p.q, range(p.q) if secrets is None else secrets, count, _trichotomy_block
    ):
        checked += seen
        max_seen = max(max_seen, peak)
        if counterexample:
            break
    # The cx_* fields take the (secret, value, count) triple, or stay None.
    return TrichotomyReport(
        counterexample is None, checked, checked * p.q, max_seen, name, *(counterexample or ())
    )


def support_gap_predicted_paper(p: BarrettParams, x: IntOrArray) -> Any:
    """Published three-term gap predictor min(x+1, q-r, q-1-x).

    It lacks the r term of the derived four-term form (see the extended
    predictor), so it overshoots exactly when r < min(x+1, q-1-x, q-r);
    both are reported side by side so the data can speak.  An int x
    gives an int, a 1-D array of secrets a list of ints.
    """
    return _gap(p, x, p.q - p.r)


def support_gap_predicted_extended(p: BarrettParams, x: IntOrArray) -> Any:
    """Four-term gap predictor min(x+1, q-1-x, r, q-r), derived exactly.

    With D = [0, x], the direct masks m <= x hit each v in D once and the
    wrap masks m in [x+1, q-1] hit each v in D^c + r (mod q) once.  So
    count(v) = [v in D] + [v in D^c + r] lies in {0, 1, 2}, the counts sum
    to q, and zeros = twos = |D| - |D & (D + r)| = max(0, min(x+1, q-1-x,
    r, q-r)).  The test suite and the sweep still check it by enumeration.
    An int x gives an int, a 1-D array of secrets a list of ints.
    """
    return _gap(p, x, min(p.r, p.q - p.r))


def _gap(p: BarrettParams, x: IntOrArray, cap: int) -> Any:
    """max(0, min(x+1, q-1-x, cap)) for canonical secret(s) x: an int, or a list for a block.

    x + 1 >= 1, q - 1 - x >= 0 and cap >= 0, so the max never binds.  Plain
    ints cost less than numpy calls on a block of 5 to 19 secrets.
    """
    xs, q = _canonical(x, p.q), p.q
    gaps = [min(n + 1, q - 1 - n, cap) for n in xs.ravel().tolist()]
    return gaps if xs.ndim else gaps[0]


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


def _s_bit_line(p: BarrettParams) -> np.ndarray:
    """The s-bit form at every pair of residues: hw(x, m) = line[q - 1 - x + m].

    The form reads a pair only through d = x - m, so it runs once a d in
    q - 1 .. 1 - q, on secret max(d, 0) and mask max(-d, 0), in int64
    tiles of tile_len(INT64) differences written into one line in
    lane_dtype(q): the build holds the line and a few tile temporaries.
    """
    q, step = p.q, tile_len(INT64)
    line = np.empty(2 * q - 1, lane_dtype(q))
    for lo in range(0, 2 * q - 1, step):
        d = np.arange(q - 1 - lo, max(-q, q - 1 - lo - step), -1, dtype=np.int64)
        line[lo : lo + d.size] = barrett_nat_eval_vec(p, np.maximum(d, 0), np.maximum(-d, 0))
    return line


def _line_window(line: np.ndarray, q: int, before: int, shape: Tuple[int, int]) -> np.ndarray:
    """The (B, n) view of line that holds an exhaustive tile's s-bit values.

    The tile's secrets x0 + i and masks lo + j are consecutive, from
    before = x0 * q + lo, so pair (i, j) is line[q - 1 - x0 + lo - i + j].
    """
    x0, lo = divmod(before, q)
    k = line.itemsize
    return np.ndarray(shape, line.dtype, line, (q - 1 - x0 + lo) * k, (-k, k))


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

    sample = None checks all q^2 (x, m) pairs, in tiles in
    gadgets.lane_dtype(q), each against its window of one line of the
    hardware form (_s_bit_line) in that lane; otherwise
    `sample` int64 pairs are drawn tile by tile from one
    np.random.default_rng(seed), each tile's secrets and masks by one
    integers(0, q, size=(2, n)) call.
    Raises ScopeConditionError when q > 2^s — a usage error, distinct
    from a mismatch.
    """
    p.require_scope()
    q = p.q
    if sample is None:
        mode, total, tiles = "exhaustive", q * q, _exhaustive_pair_tiles(q, lane_dtype(q))
    else:
        mode, total, tiles = "sampled", sample, _sampled_pair_tiles(q, sample, seed)
    line = _s_bit_line(p) if sample is None else None
    for before, xs, masks in tiles:
        alg = barrett_algebraic_eval_vec(p, xs, masks)
        if line is None:
            hw = barrett_nat_eval_vec(p, xs, masks)
        else:
            hw = _line_window(line, q, before, (len(xs), len(masks)))
        if not np.array_equal(alg, hw):
            i = int(np.flatnonzero(alg != hw)[0])
            at = np.unravel_index(i, alg.shape)
            x = int(np.broadcast_to(xs, alg.shape)[at])
            m = int(masks[at[-1]])  # a range, or the pair masks
            return EquivalenceReport(
                False, before + i + 1, mode, x, m, int(alg[at]), int(hw[at])
            )
    return EquivalenceReport(True, total, mode)
