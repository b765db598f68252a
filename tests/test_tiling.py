"""The blocked, tiled scans: block and tile boundaries and the memory bound.

The scans in preimage take secrets in blocks of preimage.block_rows
rows, and enumeration and the equivalence scan walk the mask axis in
tiles of preimage.tile_len elements, both derived from
preimage.BLOCK_BYTES; the closed form fills whole rows and has no tiles.
Patching BLOCK_BYTES to 8 * tile gives int64 tiles of 2..9 elements
(int16 tiles, the lane of every q <= 2^14, of four times that), which
puts many tile boundaries inside rings of q <= 300; patching it to
rows * q * itemsize gives those rings blocks of 2..9 secrets with a
short last block, where the scalar reference in tests/reference.py can
check every count.  The memory
tests run at the real BLOCK_BYTES and read numpy's allocations from
tracemalloc.
"""

import tracemalloc
from contextlib import contextmanager, nullcontext
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import maskwire.cli as cli
import maskwire.preimage as preimage
import pytest

from maskwire.gadgets import (
    INT16,
    INT32,
    INT64,
    BarrettParams,
    WireGadget,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    lane_dtype,
    make_barrett_gadget,
    make_identity_gadget,
)
from maskwire.cli import _profile_pass, _sample_agrees
from maskwire.pipeline import _shared_wire, compose
from maskwire.preimage import (
    BLOCK_BYTES,
    MultiplicityProfile,
    block_rows,
    counts_bruteforce_all,
    counts_bruteforce_check,
    counts_closedform_all,
    equivalence_check,
    scan,
    tile_len,
    trichotomy_check,
)

from reference import ceil_log2, ref_counts, ref_stage, ref_wire_hw


@st.composite
def tiled_case(draw):
    """(tile, q, s, x) with tile in 2..9, q <= 300 and s >= ceil_log2(q)."""
    tile = draw(st.integers(2, 9))
    q = draw(st.integers(1, 300))
    s = draw(st.integers(ceil_log2(q), 70))
    x = draw(st.integers(0, q - 1))
    return tile, q, s, x


STAGES = st.sampled_from(["barrett", "identity"])


@contextmanager
def tiles_of(tile):
    """Patch the budget so that int64 tiles hold `tile` elements, int16 tiles 4 * tile."""
    with mock.patch.object(preimage, "BLOCK_BYTES", 8 * tile):
        yield


@contextmanager
def blocks_of(rows, q, dtype):
    """Patch the block budget so that block_rows(q, dtype) == rows."""
    with mock.patch.object(preimage, "BLOCK_BYTES", rows * q * np.dtype(dtype).itemsize):
        yield


ROWS = st.integers(2, 9)


def a_few_blocks(q, x, rows):
    """Secrets from x on: two whole blocks of `rows`, then a short one, as far as q allows."""
    return range(x, min(q, x + 3 * rows - 1))


@settings(max_examples=150, deadline=None)
@given(tiled_case())
def test_tiled_counts_match_scalar_enumeration(case):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)
    want = ref_counts(q, s, x)
    with tiles_of(tile):
        closed = counts_closedform_all(p, x)
        oracle = counts_bruteforce_all(make_barrett_gadget(p), x)
    assert closed.dtype == np.uint8 and closed.tolist() == want
    assert oracle.dtype == np.uint8 and oracle.tolist() == want


@settings(max_examples=60, deadline=None)
@given(tiled_case())
def test_tiled_exhaustive_equivalence_passes(case):
    tile, q, s, _ = case
    with tiles_of(tile):
        rep = equivalence_check(BarrettParams.create(q, s))
    assert rep.passed and rep.pairs_checked == q * q
    assert (rep.mm_secret, rep.mm_mask, rep.mm_algebraic, rep.mm_hw) == (None,) * 4


def off_by_one(kernel, q, bad):
    """A Barrett evaluator, off by one on the flat pairs x*q + m in bad."""

    def evaluate(p, x, m):
        out = kernel(p, x, m)
        hit = np.isin(np.asarray(x, dtype=np.int64) * q + m, bad)
        out[hit] += 1
        return out

    return evaluate


@settings(max_examples=100, deadline=None)
@given(tiled_case(), st.data())
def test_tiled_equivalence_reports_first_mismatch(case, data):
    # The exhaustive scan runs the two-branch form on every pair, and the
    # s-bit form once a difference x - m, so a pair's fault is planted in
    # the two-branch form there; the sampled path runs both on every pair.
    tile, q, s, _ = case
    p = BarrettParams.create(q, s)
    bad = data.draw(st.lists(st.integers(0, q * q - 1), min_size=1, max_size=4))
    bad_pairs = np.array(bad, dtype=np.int64)
    with tiles_of(tile):
        with mock.patch.object(
            preimage, "barrett_algebraic_eval_vec",
            off_by_one(barrett_algebraic_eval_vec, q, bad_pairs),
        ):
            exhaustive = equivalence_check(p)
        with mock.patch.object(
            preimage, "barrett_nat_eval_vec", off_by_one(barrett_nat_eval_vec, q, bad_pairs)
        ):
            sampled = equivalence_check(p, sample=3 * q, seed=q)
        n = tile_len(INT64) // 2

    first = min(bad)
    x, m = divmod(first, q)
    hw = barrett_nat_eval_vec(p, x, np.array([m]))[0]
    assert not exhaustive.passed
    assert exhaustive.pairs_checked == first + 1
    assert (exhaustive.mm_secret, exhaustive.mm_mask) == (x, m)
    assert (exhaustive.mm_algebraic, exhaustive.mm_hw) == (hw + 1, hw)

    # The sampled path draws each tile's secrets, then its masks, from
    # one seeded numpy generator, n pairs a draw.
    rng = np.random.default_rng(q)
    draws = [
        rng.integers(0, q, size=(2, min(n, 3 * q - lo)))
        for lo in range(0, 3 * q, n)
    ]
    xs, ms = np.concatenate(draws, axis=1).tolist()
    hits = [i for i, (a, b) in enumerate(zip(xs, ms)) if a * q + b in bad]
    if hits:
        i = hits[0]
        assert not sampled.passed
        assert sampled.pairs_checked == i + 1
        assert (sampled.mm_secret, sampled.mm_mask) == (xs[i], ms[i])
    else:
        assert sampled.passed and sampled.pairs_checked == 3 * q


@settings(max_examples=100, deadline=None)
@given(tiled_case(), STAGES, STAGES)
def test_tiled_shared_composition_matches_scalar_loop(case, first, second):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    stages = build(first), build(second)
    want = [0] * q
    for m in range(q):
        want[ref_stage(second, q, s, ref_stage(first, q, s, x, m), m)] += 1
    with tiles_of(tile):
        got = counts_bruteforce_all(_shared_wire(*stages), x)
    assert got.tolist() == want


def traced_peak(fn, *args):
    """Peak bytes traced while fn runs, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_scan_memory_is_one_result_array():
    # An untiled scan holds several q-length int64 temporaries at once.
    # Both routes return one uint8 row.  The closed form fills it in place
    # (measured q + 900 bytes); enumeration holds a few tiles beside it
    # (measured q + 4.3 blocks).  The int32 row it replaced read
    # 4q + 4.3 blocks, and an int64 row seeded by a bincount 8q + 5.0.
    q, s = 2**20 - 3, 40
    p = BarrettParams.create(q, s)
    x = q // 3
    closed, closed_peak = traced_peak(counts_closedform_all, p, x)
    oracle, oracle_peak = traced_peak(counts_bruteforce_all, make_barrett_gadget(p), x)
    assert closed.dtype == np.uint8 and closed.nbytes == q
    assert closed_peak < closed.nbytes + BLOCK_BYTES
    assert oracle.dtype == np.uint8 and oracle.nbytes == q
    assert oracle_peak < q + 6 * BLOCK_BYTES
    assert np.array_equal(closed, oracle)


def test_cross_checked_profile_holds_two_rows_at_most():
    # One secret profiled from the closed form, then checked by enumeration
    # taking each mask off that row in place: one uint8 row, beside
    # from_counts' slices and then beside enumeration's tiles (measured
    # q + 2.5 blocks).  Enumeration's own row compared slice by slice read
    # 2q + 4.3 blocks, and an int32 oracle row compared whole 2q + 32.3.
    q = 2**20 - 3
    p = BarrettParams.create(q, 40)
    g = make_barrett_gadget(p)
    profiled, peak = traced_peak(lambda: list(_profile_pass(p, [q // 3], g)))
    ((prof, agree),) = profiled
    assert agree and prof.conserved and prof.secret == q // 3
    assert peak < q + 8 * BLOCK_BYTES


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_profile_builds_no_row_length_array(dtype):
    # The twos, and the ones of a row with a value hit three times, are
    # counted BLOCK_BYTES values at a time: a q-length bool of counts == 2
    # alone would take q bytes (measured 1.0 block for either dtype).
    q = 2**20 - 3
    p = BarrettParams.create(q, 40)
    counts = counts_closedform_all(p, q // 3).astype(dtype)
    if dtype == np.int64:
        counts[:3] = (3, 0, 0)  # a value hit three times: the ones are counted too
    prof, peak = traced_peak(preimage.MultiplicityProfile.from_counts, q // 3, q, counts)
    assert (prof.zeros, prof.ones, prof.twos) == (
        q - np.count_nonzero(counts), np.count_nonzero(counts == 1), np.count_nonzero(counts == 2)
    )
    assert prof.conserved == (dtype == np.uint8)
    assert peak < 2 * BLOCK_BYTES


def test_sampled_equivalence_memory_does_not_grow_with_sample():
    # Pairs are drawn one tile at a time, so a million pairs hold no
    # million-element coordinate arrays.
    p = BarrettParams.create(40961, 32)
    rep, peak = traced_peak(equivalence_check, p, 10**6)
    assert rep.passed and rep.pairs_checked == 10**6
    assert peak < 4 * 2**20


# --- blocks of secrets ------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(tiled_case(), ROWS)
def test_blocked_counts_match_scalar_enumeration(case, rows):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)
    g = make_barrett_gadget(p)
    secrets = a_few_blocks(q, x, rows)
    want = [ref_counts(q, s, x) for x in secrets]
    for route in (partial(counts_closedform_all, p), partial(counts_bruteforce_all, g)):
        with tiles_of(tile), blocks_of(rows, q, lane_dtype(q)):
            scanned = list(scan(q, secrets, route, lambda xs, counts: (xs, counts)))
        blocks = [xs for xs, _ in scanned]
        got = [counts for _, counts in scanned]
        assert [len(xs) for xs in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= rows
        assert [c.shape for c in got] == [(len(xs), q) for xs in blocks]
        assert np.concatenate(got).tolist() == want


@settings(max_examples=60, deadline=None)
@given(tiled_case(), ROWS, STAGES, STAGES)
def test_blocked_shared_composition_matches_scalar_loop(case, rows, first, second):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    stages = build(first), build(second)
    secrets = a_few_blocks(q, x, rows)
    wire1, wire2 = [], []
    for x in secrets:
        h1, h2 = [0] * q, [0] * q
        for m in range(q):
            v = ref_stage(first, q, s, x, m)
            h1[v] += 1
            h2[ref_stage(second, q, s, v, m)] += 1
        wire1.append(h1)
        wire2.append(h2)
    with tiles_of(tile), blocks_of(rows, q, lane_dtype(q)):
        got = counts_bruteforce_all(_shared_wire(*stages), np.array(secrets))
        rep = compose(*stages, "shared", secrets=secrets)
    assert got.tolist() == wire2
    assert rep.secrets_checked == len(secrets)
    assert rep.wire1_max_mult == max(max(h) for h in wire1)
    assert rep.wire2_max_mult == max(max(h) for h in wire2)


@settings(max_examples=100, deadline=None)
@given(tiled_case(), ROWS, st.data())
def test_blocked_equivalence_reports_first_mismatch_in_a_later_row(case, rows, data):
    # blocks_of makes a tile rows * q long, so every block holds whole rows.
    _, q, s, _ = case
    q = max(q, 2)
    s = max(s, ceil_log2(q))
    p = BarrettParams.create(q, s)
    x = data.draw(st.integers(1, q - 1).filter(lambda v: v % rows != 0))
    m = data.draw(st.integers(0, q - 1))
    later = data.draw(st.lists(st.integers(x * q + m, q * q - 1), max_size=3))
    bad = np.array([x * q + m, *later], dtype=np.int64)
    faulty = off_by_one(barrett_algebraic_eval_vec, q, bad)
    sizes = []

    def evaluate(p, xs, masks):
        sizes.append(np.size(xs))
        return faulty(p, xs, masks)

    # The two-branch form is the one evaluated at every pair (see above),
    # on tiles in lane_dtype(q) whatever s is.
    with blocks_of(rows, q, lane_dtype(q)), mock.patch.object(
        preimage, "barrett_algebraic_eval_vec", evaluate
    ):
        rep = equivalence_check(p)
    assert not rep.passed
    assert rep.pairs_checked == x * q + m + 1
    assert (rep.mm_secret, rep.mm_mask) == (x, m)
    hw = ref_wire_hw(q, s, x, m)
    assert (rep.mm_algebraic, rep.mm_hw) == (hw + 1, hw)
    assert sizes[:-1] == [rows] * (len(sizes) - 1)
    assert sizes[-1] == min(rows, q - x // rows * rows)


@settings(max_examples=60, deadline=None)
@given(tiled_case(), ROWS, st.booleans(), st.data())
def test_s_bit_fault_at_one_difference_is_reported_at_its_first_pair(case, rows, blocked, data):
    # The s-bit form reads a pair through d = x - m alone, so a fault of it
    # at one d shows on every pair with that difference.  Scanned secret
    # by secret, the first such pair is (d, 0), or (0, -d) when d < 0.
    tile, q, s, _ = case
    p = BarrettParams.create(q, s)
    d = data.draw(st.integers(1 - q, q - 1))

    def off_at_d(p, x, m):
        out = barrett_nat_eval_vec(p, x, m)
        out[np.asarray(x) - np.asarray(m) == d] += 1
        return out

    with blocks_of(rows, q, lane_dtype(q)) if blocked else tiles_of(tile):
        with mock.patch.object(preimage, "barrett_nat_eval_vec", off_at_d):
            rep = equivalence_check(p)
    x, m = (d, 0) if d >= 0 else (0, -d)
    hw = ref_wire_hw(q, s, x, m)
    assert not rep.passed
    assert rep.pairs_checked == x * q + m + 1
    assert (rep.mm_secret, rep.mm_mask, rep.mm_algebraic, rep.mm_hw) == (x, m, hw, hw + 1)


# Shifts whose s-bit word fits int16, int32 and int64, and past int64 (Python ints).
SHIFT_BANDS = [(0, 15), (16, 31), (32, 62), (63, 70)]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 69), st.sampled_from(SHIFT_BANDS), st.integers(2, 9), ROWS,
    st.booleans(), st.data(),
)
def test_line_window_is_the_s_bit_form_on_every_exhaustive_tile(q, band, tile, rows, blocked, data):
    # The identity the exhaustive scan rests on: each tile's window of the
    # line, built once from 2q - 1 differences in int64 tiles, holds what
    # the s-bit form, in int64, gives on the tile's (col, masks), without a
    # copy.  Line and tiles are in lane_dtype(q) whatever s is.
    lo, hi = band
    p = BarrettParams.create(q, data.draw(st.integers(max(lo, ceil_log2(q)), hi)))
    dtype = lane_dtype(q)
    with blocks_of(rows, q, dtype) if blocked else tiles_of(tile):
        line = preimage._s_bit_line(p)
        tiles = list(preimage._exhaustive_pair_tiles(q, dtype))
    assert line.shape == (2 * q - 1,) and line.dtype == dtype
    assert sum(col.size * len(masks) for _, col, masks in tiles) == q * q
    for before, col, masks in tiles:
        want = barrett_nat_eval_vec(p, col, masks)
        window = preimage._line_window(line, q, before, want.shape)
        assert want.dtype == INT64
        assert window.dtype == dtype and np.shares_memory(window, line)
        assert np.array_equal(window, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.integers(20, 300), st.data())
def test_blocked_trichotomy_stops_at_a_middle_row(rows, q, data):
    # Secret c sits strictly inside its block, and secret c + 1, in the
    # same block, has a worse count that must go unseen.
    c = data.draw(st.integers(0, q - 2).filter(lambda v: 0 < v % rows < rows - 1))
    p = BarrettParams.create(q, ceil_log2(q) + 3)
    blocks = []

    def faulty(_p_or_gadget, xs):
        blocks.append(len(xs))
        counts = np.ones((len(xs), q), dtype=np.int8)
        counts[xs == c, :3] = (0, 3, 0)
        counts[xs == c + 1, :4] = (0, 0, 0, 4)
        return counts

    for route, oracle in (("counts_closedform_all", False), ("counts_bruteforce_all", True)):
        blocks.clear()
        with blocks_of(rows, q, lane_dtype(q)), mock.patch.object(preimage, route, faulty):
            rep = trichotomy_check(p, oracle=oracle)
        assert (rep.cx_secret, rep.cx_value, rep.cx_count) == (c, 1, 3)
        assert rep.secrets_checked == c + 1
        assert rep.pairs_checked == (c + 1) * q
        assert rep.max_count_seen == 3
        assert blocks == [min(rows, q - lo) for lo in range(0, c + 1, rows)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(63, 70), ROWS, st.data())
def test_blocked_scans_past_62_bits(q, s, rows, data):
    # s > 62 sends the hardware-faithful evaluator to its Python-int
    # fallback, which must broadcast a secret column like the int lanes.
    p = BarrettParams.create(q, s)
    x = data.draw(st.integers(0, q - 1))
    secrets = a_few_blocks(q, x, rows)
    xs = np.array(secrets)
    hw = barrett_nat_eval_vec(p, xs.reshape(-1, 1), np.arange(q))
    assert hw.tolist() == [[ref_wire_hw(q, s, x, m) for m in range(q)] for x in secrets]
    assert counts_closedform_all(p, xs).tolist() == [ref_counts(q, s, x) for x in secrets]
    with blocks_of(rows, q, INT64):
        rep = equivalence_check(p)
    assert rep.passed and rep.pairs_checked == q * q


@pytest.mark.parametrize("tile", [2, tile_len(INT64)])
@pytest.mark.parametrize("wrong", [7, 8, -1])
def test_wire_value_outside_the_ring_is_rejected(tile, wrong):
    # Without the check, value 7 of secret 2's row would be counted as
    # value 0 of secret 3's row.
    q = 7

    def eval_vec(x, m):
        m = np.asarray(m)  # a scan's masks are a range
        return np.where((x == 2) & (m == 3), wrong, (x - m) % q)

    g = WireGadget("out-of-range", q, 1, eval_vec)
    with tiles_of(tile):
        for secrets in (np.arange(q), 2):
            with pytest.raises(ValueError, match=r"outside \[0, 7\)"):
                counts_bruteforce_all(g, secrets)
        assert counts_bruteforce_all(g, np.array([0, 1, 3])).tolist() == [[1] * q] * 3


def test_empty_block_has_no_rows():
    p = BarrettParams.create(7, 3)
    empty = np.array([], dtype=np.int64)
    assert counts_closedform_all(p, empty).shape == (0, 7)
    assert counts_bruteforce_all(make_barrett_gadget(p), empty).shape == (0, 7)


@pytest.mark.parametrize(
    "q,dtype,rows",
    [(3329, INT32, 9), (4591, INT32, 7), (7681, INT32, 4), (12289, INT32, 2),
     (3329, INT64, 4), (16353, INT32, 1), (2**20, INT32, 1),
     (3329, INT16, 19), (4591, INT16, 14), (7681, INT16, 8), (12289, INT16, 5),
     (2**14, INT16, 3), (8176, INT16, 8)],
)
def test_block_rows_at_the_documented_moduli(q, dtype, rows):
    assert block_rows(q, dtype) == rows
    assert rows == 1 or rows * q * dtype.itemsize <= BLOCK_BYTES < 2**17


def test_block_scan_memory_stays_near_the_mmap_threshold():
    # One block scan holds a few block-sized arrays at once, each under
    # glibc's 128 KiB mmap threshold.  Both counting routes run on the
    # 19-row int16 block a scan hands them; the closed form fills its uint8
    # rows in place and holds no tile.  Measured peaks, in 128 KiB (numpy
    # 2.4.6): closed form 0.49 (its 63,251-byte rows and about 1,300 bytes),
    # enumeration 2.92, equivalence 2.14.  On 9-row int32 blocks they read
    # 0.24 / 2.31 / 2.18; with a budget twice as large, enumeration and
    # equivalence read 4.95 / 7.85 there, past their bounds.
    q, s = 3329, 24
    threshold = 2**17
    p = BarrettParams.create(q, s)
    rows = block_rows(q, lane_dtype(q))
    assert rows == 19
    closed, closed_peak = traced_peak(counts_closedform_all, p, np.arange(rows))
    oracle, oracle_peak = traced_peak(
        counts_bruteforce_all, make_barrett_gadget(p), np.arange(rows)
    )
    rep, equiv_peak = traced_peak(equivalence_check, p)
    assert np.array_equal(closed, oracle)
    assert rep.passed and rep.pairs_checked == q * q
    assert closed_peak < closed.nbytes + BLOCK_BYTES
    assert oracle_peak < 4 * threshold
    assert equiv_peak < 6 * threshold


def test_add_at_index_of_a_full_int16_block_stays_within_the_budget():
    # At q = 8176 an int16 block is 8 rows of 65,408 masks in all, the
    # whole budget, and its row offsets reach 57,232, past int16.  With
    # RUN_BREAK_EVEN past every run, the tile takes np.add.at, indexed by
    # the values read as uint16 plus uint16 offsets.  Measured peak 3.55 x
    # 128 KiB (numpy 2.4.6); an int32 index, twice the budget, read 4.55.
    q = 8176
    p = BarrettParams.create(q, 26)
    rows = block_rows(q, lane_dtype(q))
    assert rows * q == tile_len(INT16)
    with mock.patch.object(preimage, "RUN_BREAK_EVEN", 2**31):
        oracle, peak = traced_peak(counts_bruteforce_all, make_barrett_gadget(p), np.arange(rows))
    assert np.array_equal(oracle, counts_closedform_all(p, np.arange(rows)))
    assert peak < 4 * 2**17


@pytest.mark.parametrize("s", [31, 40])
def test_s_bit_line_is_built_in_tiles_into_one_array(s):
    # The line is 2q - 1 values in lane_dtype(q), int32 here, of 8.39 MB.
    # Each int64 tile of differences d is the s-bit form on secrets
    # max(d, 0) and masks max(-d, 0), written into the line, so the build
    # holds a few tile-sized temporaries beside it.  Built in two halves,
    # each three q-length arrays in the form's lane, it read 21.0 and
    # 33.6 MB at s = 31 and 40 (numpy 2.4.6); from one array of the 2q - 1
    # differences, 41.9 and 75.5 MB.
    q = 2**20 - 3
    p = BarrettParams.create(q, s)
    line, peak = traced_peak(preimage._s_bit_line, p)
    assert line.dtype == lane_dtype(q) and line.shape == (2 * q - 1,)
    assert peak < line.nbytes + 8 * BLOCK_BYTES
    for d in (q - 1, q // 2, 1, 0, -1, -(q // 3), 1 - q):
        x, m = max(d, 0), max(-d, 0)
        assert line[q - 1 - d] == ref_wire_hw(q, s, x, m)


@pytest.mark.parametrize("q", [1, 2, 7])
def test_s_bit_line_walks_a_budget_under_one_int64(q):
    # blocks_of can leave BLOCK_BYTES under 8 on tiny rings, so that no
    # whole int64 fits it: the line's tiles then hold one difference each.
    p = BarrettParams.create(q, 5)
    with mock.patch.object(preimage, "BLOCK_BYTES", 4):
        assert tile_len(INT64) == 1
        line = preimage._s_bit_line(p)
    want = [ref_wire_hw(q, 5, max(d, 0), max(-d, 0)) for d in range(q - 1, -q, -1)]
    assert line.tolist() == want


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.integers(0, 70))
def test_exhaustive_scan_runs_the_s_bit_form_on_2q_minus_1_values(q, s):
    # The bench's gate at q = 3329: barrett_nat_eval_vec returns 6,657 items.
    p = BarrettParams.create(q, max(s, ceil_log2(q)))
    items = []

    def counted(p, x, m):
        out = barrett_nat_eval_vec(p, x, m)
        items.append(np.size(out))
        return out

    with mock.patch.object(preimage, "barrett_nat_eval_vec", counted):
        assert equivalence_check(p).passed
    assert sum(items) == 2 * q - 1


def test_tile_len_is_the_block_budget_in_elements():
    assert tile_len(INT32) == 32704
    assert tile_len(INT64) == 16352


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 9), st.integers(1, 300), st.integers(1, 9), st.sampled_from([INT32, INT64])
)
def test_tiles_walk_the_axis_in_order_one_tile_at_a_time(tile, q, rows, dtype):
    xs = np.arange(rows, dtype=np.int64) % q
    with tiles_of(tile):
        step = tile_len(dtype)
        walked = list(preimage._tiles(xs, q, dtype))
    assert [lo for lo, _, _ in walked] == list(range(0, q, step))
    for lo, col, row in walked:
        assert col.shape == (rows, 1) and col.dtype == dtype
        assert col.ravel().tolist() == xs.tolist()
        assert isinstance(row, range) and 1 <= len(row) <= step and row[0] == lo
    assert [m for _, _, row in walked for m in row] == list(range(q))


def test_tile_walk_holds_no_list_of_tiles():
    # Walking q = 2^20 - 3 in int64 passes 65 tiles; held as a list they
    # would take 8 MB.
    q = 2**20 - 3

    def walk():
        return sum(len(row) for _, _, row in preimage._tiles(np.array([7]), q, INT64))

    walked, peak = traced_peak(walk)
    assert walked == q
    assert peak < 3 * BLOCK_BYTES


@pytest.mark.parametrize(
    "q,route,rows",
    [(3329, "closed", 19), (4591, "closed", 14), (7681, "closed", 8), (12289, "closed", 5),
     (3329, "enumerate", 19), (16411, "closed", 1), (16411, "enumerate", 1)],
)
def test_secret_blocks_are_sized_in_the_lane_of_the_route(q, route, rows):
    # Both routes count in lane_dtype(q), so q alone sizes the blocks: int16
    # up to q = 2^14, and int32 above, where one row fills a block.
    p = BarrettParams.create(q, 2 * ceil_log2(q))
    if route == "closed":
        count = partial(counts_closedform_all, p)
    else:
        count = partial(counts_bruteforce_all, make_barrett_gadget(p))
    lengths = list(scan(q, range(q), count, lambda xs, counts: len(counts)))
    assert lengths[:-1] == [rows] * (len(lengths) - 1)
    assert 1 <= lengths[-1] <= rows and sum(lengths) == q


@pytest.mark.parametrize("q", [40961, 65537])
def test_lone_secret_scan_memory_stays_within_a_few_tiles(q):
    # Enumeration runs a lone secret as a (1, 1) column in tiles of
    # BLOCK_BYTES: a few tile-sized temporaries beside its result array
    # (measured 4.3 x 128 KiB beside a uint8 row, 5.0 beside an int32
    # one; doubling the budget reads 6.5 at q = 65537).  The closed form
    # fills its row in place (0.02).
    threshold = 2**17
    p = BarrettParams.create(q, 40)
    assert block_rows(q, lane_dtype(q)) == block_rows(q, INT64) == 1
    closed, closed_peak = traced_peak(counts_closedform_all, p, q // 3)
    oracle, oracle_peak = traced_peak(counts_bruteforce_all, make_barrett_gadget(p), q // 3)
    assert np.array_equal(closed, oracle)
    assert closed_peak - closed.nbytes < 3 * threshold
    assert oracle_peak - oracle.nbytes < 5.5 * threshold


def test_constant_wire_counts_every_mask_at_one_value():
    # Every mask hits value 0, so its count is q = 65537 in every row: past
    # int16 and uint16, summed over the 5 tiles of each row into the uint32
    # twin of the int32 lane.
    q = 65537

    def zeros(x, m):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(m)), dtype=x.dtype)

    g = WireGadget("constant", q, q, zeros)
    with tiles_of(2**13):
        assert -(-q // tile_len(INT32)) == 5
        counts = counts_bruteforce_all(g, np.array([0, 1, q - 1]))
    assert counts.dtype == np.uint32
    assert counts[:, 0].tolist() == [q] * 3 and not counts[:, 1:].any()


# --- tallying run by run ----------------------------------------------


@st.composite
def tallied_wire(draw):
    """(q, table, kind): a wire as its (q, q) table of values, row x for secret x.

    A lookup table draws every value; a constant wire sends every mask
    to one value (runs of length 1); a stepped wire is (x + shift -
    step * m) mod q, which falls by one per mask at step 1 and wraps
    past 0, rises at step -1 and falls by two at step 2, as the shared
    barrett-barrett wire does.
    """
    kind = draw(st.sampled_from(["table", "constant", "step"]))
    q = draw(st.integers(1, 24 if kind == "table" else 120))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    if kind == "table":
        return q, draw(hnp.arrays(dtype, (q, q), elements=st.integers(0, q - 1))), kind
    if kind == "constant":
        return q, np.full((q, q), draw(st.integers(0, q - 1)), dtype=dtype), kind
    step = draw(st.integers(-2, 2))
    x, m = np.arange(q).reshape(-1, 1), np.arange(q)
    return q, ((x + draw(st.integers(0, q - 1)) - step * m) % q).astype(dtype), kind


def per_mask_tally(q, table, secrets):
    """Pure-int counts: one increment per (secret, mask) pair."""
    rows = []
    for x in secrets:
        counts = [0] * q
        for m in range(q):
            counts[int(table[x][m])] += 1
        rows.append(counts)
    return rows


class _NumpyWithoutAddAt:
    """numpy for preimage, except that np.add.at raises."""

    class add:
        @staticmethod
        def at(*args):
            raise AssertionError("np.add.at called on the run path")

    def __getattr__(self, name):
        return getattr(np, name)


@contextmanager
def runs_only():
    """Make every tile's tally take the run path: np.add.at raises."""
    with mock.patch.object(preimage, "np", _NumpyWithoutAddAt()):
        yield


@settings(max_examples=150, deadline=None)
@given(
    tallied_wire(),
    st.integers(2, 9),
    st.sampled_from([1, 2, 5, preimage.RUN_BREAK_EVEN]),
    st.data(),
)
def test_tally_matches_a_per_mask_count(wire, tile, break_even, data):
    # Break-even 1 sends every tile down the run path, with np.add.at
    # barred; tiles of 8..36 int16 masks put run ends on tile edges; the
    # secrets are one block, several rows or none, or a lone 0-d secret.
    q, table, kind = wire
    secrets = data.draw(st.lists(st.integers(0, q - 1), max_size=5))
    g = WireGadget(kind, q, q, lambda x, m: table[x, m])
    want = per_mask_tally(q, table, secrets)
    calls = [np.array(secrets, dtype=np.int64)]
    if len(secrets) == 1:
        calls.append(secrets[0])
    # An empty block's tiles are empty, and go to np.add.at at any break-even.
    barred = break_even == 1 and secrets
    for xs in calls:
        with tiles_of(tile), mock.patch.object(preimage, "RUN_BREAK_EVEN", break_even):
            with runs_only() if barred else nullcontext():
                got = counts_bruteforce_all(g, xs)
        # Every count here is at most q <= 120, so the guard keeps uint8.
        assert got.dtype == np.uint8 and got.shape == np.shape(xs) + (q,)
        assert got.reshape(-1, q).tolist() == want


GUARD_Q = 521  # past 512, so one value can take 512 of a row's masks


def piled_table(q, hits):
    """Row i: the first hits[i] masks go to value 0, the rest fall by one from q - 1.

    Value 0 gets hits[i] preimages and values hits[i]..q - 1 one each: a
    stretch of one-mask runs, then one long run.
    """
    return np.array([[0] * k + list(range(q - 1, k - 1, -1)) for k in hits], dtype=np.int32)


@pytest.mark.parametrize("hits", [255, 256, 257, 511, 512])
@pytest.mark.parametrize("break_even", [1, preimage.RUN_BREAK_EVEN])
def test_uint8_tally_wraps_only_into_an_int32_recount(hits, break_even):
    # A uint8 count of 256 or 512 reads 0, and 257 reads 1, so only the
    # row's mass (q - 256 * (hits // 256)) gives the wrap away, and the
    # block is counted again in uint16, the int16 lane's unsigned twin.
    # Tiles of 28 int16 masks cut both kinds of run; break-even 1 bars
    # np.add.at.
    q = GUARD_Q
    table = piled_table(q, [1, hits])
    g = WireGadget("piled", q, q, lambda x, m: table[x, m])
    for secrets in ([1], [0, 1, 0], [0]):
        xs = np.array(secrets) if len(secrets) > 1 else secrets[0]
        with tiles_of(7), mock.patch.object(preimage, "RUN_BREAK_EVEN", break_even):
            with runs_only() if break_even == 1 else nullcontext():
                got = counts_bruteforce_all(g, xs)
        assert got.reshape(-1, q).tolist() == per_mask_tally(q, table, secrets)
        assert got.dtype == (np.uint16 if hits > 255 and 1 in secrets else np.uint8)


@pytest.mark.parametrize("cover", [255, 256])
def test_runs_bound_every_count_so_255_runs_need_no_mass_guard(cover):
    # One run falls from q - cover to 0, then cover - 1 one-mask runs hit
    # 0 again: value 0 is covered by all `cover` runs of the row.  Tiles
    # of 28 masks cut the long run into pieces, which count as one run.
    # 255 runs bound every count, so the uint8 tally stands unsummed; 256
    # can wrap (256 reads 0), so the mass guard recounts in uint16.
    q = GUARD_Q
    table = np.array([list(range(q - cover, -1, -1)) + [0] * (cover - 1)], dtype=np.int32)
    g = WireGadget("covered", q, q, lambda x, m: table[x, m])
    with tiles_of(7), mock.patch.object(preimage, "RUN_BREAK_EVEN", 1), runs_only():
        counts, runs = preimage._tally(g, np.array([0]), np.uint8)
        got = counts_bruteforce_all(g, 0)
    assert runs == cover
    assert counts[0, 0] == cover % 256
    assert got.tolist() == per_mask_tally(q, table, [0])[0]
    assert got.dtype == (np.uint8 if cover == 255 else np.uint16)


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("break_even", [1, preimage.RUN_BREAK_EVEN])
def test_negative_value_in_a_later_row_is_rejected(break_even, at):
    # Block row 1 (secret 2) reads -1 at mask `at`: plus its row offset q,
    # that is q - 1, inside row 0's band.  Each run is checked against its
    # own row, and np.add.at's check reads the values before the offsets.
    q = 7
    table = (np.arange(q).reshape(-1, 1) - np.arange(q)) % q
    table[2, at] = -1
    g = WireGadget("negative", q, 1, lambda x, m: table[x, m])
    with mock.patch.object(preimage, "RUN_BREAK_EVEN", break_even):
        with runs_only() if break_even == 1 else nullcontext():
            with pytest.raises(ValueError, match=r"outside \[0, 7\)"):
                counts_bruteforce_all(g, np.array([1, 2]))


def test_a_run_never_crosses_a_row_edge():
    # Secret 3 ends its row at value 4 and starts it at 3, so two rows of
    # secret 3 fall by one across the row edge.  Counted as one run, the
    # second row's values would land in the first row's counts.
    q = 7
    g = make_identity_gadget(q)
    with mock.patch.object(preimage, "RUN_BREAK_EVEN", 1), runs_only():
        counts, runs = preimage._tally(g, np.array([3, 3]), np.uint8)
    assert counts.tolist() == [[1] * q] * 2
    assert runs == 2


def stub_route(shape, flip=None, dtype=np.uint8):
    """A route whose counts are ones of `shape` in dtype, with a 0 at flat index flip."""

    def count(xs):
        counts = np.ones(shape, dtype=dtype)
        if flip is not None:
            counts.reshape(-1)[flip] = 0
        return counts

    return count


def profiled_block(monkeypatch, route, g, xs):
    """_profile_pass over the secrets xs as one block, route as its closed form, checked by g."""
    q = g.q
    monkeypatch.setattr(cli, "counts_closedform_all", lambda _p, block: route(block))
    with blocks_of(len(xs), q, lane_dtype(q)):
        return list(_profile_pass(BarrettParams.create(q, 2 * ceil_log2(q)), xs, g))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32])
def test_scan_block_finds_one_differing_count_in_any_slice(monkeypatch, dtype):
    # The identity wire hits every value once.  Two rows of
    # q = BLOCK_BYTES + 7 span three slices of BLOCK_BYTES values, the
    # last one 14 long; a 0 at either end of any slice is found, by the
    # uint8 residue or by the int32 compare.  The profile pass then
    # profiles enumeration's counts, which hold no zero.
    q = BLOCK_BYTES + 7
    xs, shape, size = np.arange(2), (2, q), 2 * q
    g = make_identity_gadget(q)
    for flip in (0, BLOCK_BYTES - 1, BLOCK_BYTES, 2 * BLOCK_BYTES, size - 1):
        ((prof, agree),) = profiled_block(monkeypatch, stub_route(shape, flip, dtype), g, xs)
        assert not agree and prof.zeros.tolist() == [0, 0] and prof.ones.tolist() == [q, q]
    ((prof, agree),) = profiled_block(monkeypatch, stub_route(shape, dtype=dtype), g, xs)
    assert agree and prof.zeros.tolist() == [0, 0] and prof.ones.tolist() == [q, q]


def test_scan_block_reads_a_shape_mismatch_as_disagreement():
    # Same values and size in another shape: taken off in place, every
    # count would leave 0; the shapes do not agree, and the counts are
    # compared whole, not cancelled.
    q = 61
    check = partial(counts_bruteforce_check, make_identity_gadget(q))
    counts = stub_route((q, 2))(None)
    assert list(scan(q, range(2), lambda xs: counts, check)) == [False]
    assert (counts == 1).all()


def test_counts_equal_modulo_256_read_as_disagreement(monkeypatch):
    # Masks 0..255 of every secret send the wire to 0, the rest to 1, 2, ...:
    # value 0 has 256 preimages, each mask a run of its own.  Counts of 0
    # there leave a zero uint8 residue, which past 255 runs a row settles
    # nothing: the exact recount passes 255, so the counts disagree, and
    # the profile pass profiles that recount.
    q = 300
    values = np.concatenate([np.zeros(256, np.int64), np.arange(1, q - 255)])
    g = WireGadget("piled", q, 256, lambda x, m: np.tile(values[np.asarray(m)], (len(x), 1)))
    xs = np.arange(2)
    exact = counts_bruteforce_all(g, xs)
    assert exact.dtype == np.uint16 and exact[:, 0].tolist() == [256, 256]
    counts = exact.astype(np.uint8)
    assert counts[:, 0].tolist() == [0, 0]
    ((prof, agree),) = profiled_block(monkeypatch, lambda _: counts.copy(), g, xs)
    assert not agree and prof == MultiplicityProfile.from_counts(xs, q, exact)
    assert prof.max_count.tolist() == [256, 256]
    assert counts_bruteforce_check(g, xs, counts) is False
    assert not counts.any()  # the residue, in place
    # Past 255 runs a row too, counts that agree read as agreement.
    ramp = WireGadget("ramp", q, 1, lambda x, m: np.tile(np.asarray(m), (len(x), 1)))
    assert counts_bruteforce_check(ramp, xs, np.ones((2, q), np.uint8)) is True


def spy_on_tally(monkeypatch):
    """The dtype of every _tally call from here on, in call order."""
    dtypes, tally = [], preimage._tally

    def spied(g, xs, dtype, **kw):
        dtypes.append(dtype)
        return tally(g, xs, dtype, **kw)

    monkeypatch.setattr(preimage, "_tally", spied)
    return dtypes


@pytest.mark.parametrize("q,s", [(257, 9), (1021, 10)])
def test_sample_check_enumerates_once_on_np_add_at_tiles(monkeypatch, q, s):
    # A Barrett row of a few hundred masks falls into at most three runs
    # averaging under RUN_BREAK_EVEN, so its tile takes np.add.at.  The
    # tile's runs still bound each row's, at most 255 here, so the zero
    # residue stands and the 16 secrets are enumerated once, with no recount.
    dtypes = spy_on_tally(monkeypatch)
    assert _sample_agrees(BarrettParams.create(q, s), 0)
    assert dtypes == [np.uint8]


def test_constant_wire_check_still_recounts_in_int32(monkeypatch):
    # Every mask goes to value 0, a count of q = 300 that reads 44 in uint8,
    # and taking 300 masks off 44 leaves a zero residue.  Each mask is a run
    # of its own, past 255 a row, so the check recounts: the uint8 pass's
    # mass is off, the recount in uint16, the int16 lane's unsigned twin,
    # reads 300, and the counts disagree.
    q = 300
    g = WireGadget("constant", q, q, lambda x, m: np.zeros((len(x), len(m)), np.int32))
    counts = np.zeros((2, q), dtype=np.uint8)
    counts[:, 0] = q % 256
    dtypes = spy_on_tally(monkeypatch)
    assert counts_bruteforce_check(g, np.arange(2), counts) is False
    assert not counts.any()  # the zero residue, in place, that the recount overrules
    assert dtypes == [np.uint8, np.uint8, np.uint16]
    assert counts_bruteforce_all(g, np.arange(2))[:, 0].tolist() == [q, q]


def test_constant_wire_recount_block_stays_within_the_budget():
    # A constant wire fails the uint8 mass guard on every row, so a full
    # 19-row int16 block at q = 3329 is counted again in uint16, the lane's
    # unsigned twin: 126,502 bytes, within BLOCK_BYTES, beside the uint8
    # pass's 63,251.  Measured peak 4.42 x 128 KiB (numpy 2.4.6); an int32
    # recount of 253,004 bytes read 5.39.
    q = 3329
    rows = block_rows(q, lane_dtype(q))
    g = WireGadget("constant", q, q, lambda x, m: np.zeros((len(x), len(m)), x.dtype))
    counts, peak = traced_peak(counts_bruteforce_all, g, np.arange(rows))
    assert counts[:, 0].tolist() == [q] * rows and not counts[:, 1:].any()
    assert counts.nbytes <= BLOCK_BYTES
    assert peak < 5 * 2**17


def test_counts_of_another_dtype_are_compared_whole(monkeypatch):
    # int64 counts take no residue: they are compared with enumeration's
    # and left as they are, so a count off by 256 is seen too, and the
    # profile pass profiles enumeration's counts instead.
    q = 61
    p = BarrettParams.create(q, 6)
    g, xs = make_barrett_gadget(p), np.arange(3)
    want = counts_closedform_all(p, xs)
    counts = want.astype(np.int64)
    assert counts_bruteforce_check(g, xs, counts) is True
    counts[1, 5] += 256
    assert counts_bruteforce_check(g, xs, counts) is False
    assert counts[1, 5] == int(want[1, 5]) + 256
    ((prof, agree),) = profiled_block(monkeypatch, lambda _: counts, g, xs)
    assert not agree and prof == MultiplicityProfile.from_counts(xs, q, want)


def test_check_answers_a_plain_bool_on_every_branch():
    # Agreement by a zero residue, a nonzero residue, a zero residue past
    # 255 runs settled by the recount, and counts of another dtype: each
    # answer is a bool, never a numpy one, so it renders as a plain value.
    q = 300
    p = BarrettParams.create(q, 18)
    barrett, xs = make_barrett_gadget(p), np.arange(2)
    ramp = WireGadget("ramp", q, 1, lambda x, m: np.tile(np.asarray(m), (len(x), 1)))
    closed = counts_closedform_all(p, xs)
    off = closed.copy()
    off[1, 7] += 1
    for g, counts, want in [
        (barrett, closed.copy(), True),
        (barrett, off, False),
        (ramp, np.ones((2, q), np.uint8), True),
        (barrett, closed.astype(np.int64), True),
        (barrett, off.astype(np.int64), False),
    ]:
        answer = counts_bruteforce_check(g, xs, counts)
        assert type(answer) is bool and answer is want


MILLION = 2**20 - 3  # 32 tiles of 32,704 int32 masks and one of 2,045


@pytest.mark.parametrize("x", [0, 1, MILLION // 3, MILLION - 2, MILLION - 1])
def test_enumerated_barrett_rows_at_a_million_match_the_closed_form(x):
    # x = q - 2 switches branch in the last tile, whose two runs then
    # average under RUN_BREAK_EVEN and keep np.add.at; x = q - 1 is one run.
    p = BarrettParams.create(MILLION, 40)
    oracle = counts_bruteforce_all(make_barrett_gadget(p), x)
    assert np.array_equal(oracle, counts_closedform_all(p, x))


def test_barrett_row_at_a_million_takes_the_run_path():
    # At x = q // 3 (r = 9) one tile holds both breaks and three runs, every
    # other tile one run, so all are tallied by slices at the real
    # break-even; np.add.at raises if any tile falls back to it.
    p = BarrettParams.create(MILLION, 40)
    with runs_only():
        oracle = counts_bruteforce_all(make_barrett_gadget(p), MILLION // 3)
    assert np.array_equal(oracle, counts_closedform_all(p, MILLION // 3))


# --- the scan driver --------------------------------------------------


@pytest.mark.parametrize("oracle", [False, True])
def test_trichotomy_holds_one_block_of_counts_at_a_time(oracle):
    # Three lone secrets are three one-row blocks of q uint8 counts.  The
    # closed form peaks at one row; enumeration adds its tiles, q + 4.3
    # BLOCK_BYTES in all.  A second live block of q bytes breaks either bound.
    q = 2**20 - 3
    p = BarrettParams.create(q, 40)
    rep, peak = traced_peak(trichotomy_check, p, [1, q // 3, q - 2], oracle)
    assert rep.passed and rep.secrets_checked == 3
    assert peak < (q + 6 * BLOCK_BYTES if oracle else 1.5 * q)


def off_by_one_on(secrets, count):
    """count, with value 0 of every secret in `secrets` hit once more."""

    def counted(xs):
        counts = count(xs)
        counts[np.isin(xs, secrets), 0] += 1
        return counts

    return counted


def compared(count):
    """A check that counts a second way and compares the two arrays whole."""

    def check(xs, counts):
        return np.array_equal(count(xs), counts)

    return check


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("enumerate_first", [False, True])
def test_scan_cross_check_flags_only_the_disagreeing_block(monkeypatch, rows, enumerate_first):
    # The middle block's counts are off; the other route, as scan's reduce,
    # flags that block alone.  Taking the route's place, the profile pass
    # flags the same block and profiles enumeration's counts of it instead.
    q, s = 61, 6
    p = BarrettParams.create(q, s)
    g = make_barrett_gadget(p)
    closed = partial(counts_closedform_all, p)
    enumerated = partial(counts_bruteforce_all, g)
    if enumerate_first:
        route, check = enumerated, compared(closed)
    else:
        route, check = closed, partial(counts_bruteforce_check, g)
    route = off_by_one_on(range(rows, 2 * rows), route)
    monkeypatch.setattr(cli, "counts_closedform_all", lambda _p, xs: route(xs))
    with blocks_of(rows, q, lane_dtype(q)):
        # Both routes share one lane, so both ask for `rows`.
        assert block_rows(q, lane_dtype(q)) == rows
        flags = list(scan(q, range(3 * rows), route, check))
        profiled = list(_profile_pass(p, range(3 * rows), g))
    assert flags == [True, False, True]
    assert [agree for _, agree in profiled] == [True, False, True]
    for prof, _ in profiled:
        assert len(prof.secret) == rows
        want = np.array([ref_counts(q, s, x) for x in prof.secret.tolist()], dtype=np.uint8)
        assert prof == MultiplicityProfile.from_counts(prof.secret, q, want)


def test_trichotomy_counts_no_block_after_the_counterexample():
    q = 61
    p = BarrettParams.create(q, 6)
    calls = []

    def three_hit_at_secret_5(_p, xs):
        calls.append(xs.tolist())
        counts = np.ones((len(xs), q), dtype=np.int8)
        counts[xs == 5, :3] = (0, 3, 0)
        return counts

    with blocks_of(2, q, lane_dtype(q)), mock.patch.object(
        preimage, "counts_closedform_all", three_hit_at_secret_5
    ):
        rep = trichotomy_check(p)
    assert calls == [[0, 1], [2, 3], [4, 5]]
    assert (rep.cx_secret, rep.cx_value, rep.cx_count) == (5, 1, 3)
    assert rep.secrets_checked == 6


@pytest.mark.parametrize(
    "first,second",
    [("identity", "identity"), ("identity", "barrett"), ("barrett", "identity"),
     ("barrett", "barrett")],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_wire_eval_vec_matches_its_scalar_eval(first, second, data):
    q, s = data.draw(st.integers(1, 300)), data.draw(st.integers(0, 70))
    p = BarrettParams.create(q, s)

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    stage1, stage2 = build(first), build(second)
    wire = _shared_wire(stage1, stage2)
    xs = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    got = wire.eval_vec(np.array(xs).reshape(-1, 1), np.arange(q))
    want = [[ref_stage(second, q, s, ref_stage(first, q, s, x, m), m) for m in range(q)]
            for x in xs]
    assert got.tolist() == want
    # A column call equals the 0-d-secret calls stacked.
    assert got.tolist() == [wire.eval_vec(x, np.arange(q)).tolist() for x in xs]
    assert wire.claimed_max_mult == stage1.claimed_max_mult * stage2.claimed_max_mult
