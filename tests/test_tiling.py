"""The blocked, tiled scans: block and tile boundaries and the memory bound.

The scans in preimage take secrets in blocks of preimage.block_rows
rows and walk the mask (or value) axis in tiles of preimage.tile_len
elements, both derived from preimage.BLOCK_BYTES.  Patching BLOCK_BYTES
to 8 * tile gives int64 tiles of 2..9 elements (int32 tiles of twice
that), which puts many tile boundaries inside rings of q <= 300; patching
it to rows * q * itemsize gives those rings blocks of 2..9 secrets with
a short last block, where the scalar reference in tests/reference.py can
check every count.  The memory tests run at the real BLOCK_BYTES and
read numpy's allocations from tracemalloc.
"""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import maskwire.preimage as preimage
import pytest

from maskwire.gadgets import (
    INT32,
    INT64,
    BarrettParams,
    WireGadget,
    barrett_nat_eval_vec,
    lane_dtype,
    make_barrett_gadget,
    make_identity_gadget,
)
from maskwire.modring import Modulus, ZqElem
from maskwire.pipeline import PipelineSpec, _shared_wire, compose
from maskwire.preimage import (
    BLOCK_BYTES,
    block_rows,
    counts_bruteforce_all,
    counts_closedform_all,
    equivalence_check,
    scan,
    tile_len,
    trichotomy_check,
)

from reference import ceil_log2, ref_counts, ref_wire_hw


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
    """Patch the budget so that int64 tiles hold `tile` elements, int32 tiles 2 * tile."""
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
    assert closed.dtype == np.int8 and closed.tolist() == want
    assert oracle.dtype == np.int64 and oracle.tolist() == want


@settings(max_examples=60, deadline=None)
@given(tiled_case())
def test_tiled_exhaustive_equivalence_passes(case):
    tile, q, s, _ = case
    with tiles_of(tile):
        rep = equivalence_check(BarrettParams.create(q, s))
    assert rep.passed and rep.pairs_checked == q * q and rep.first_mismatch is None


def faulty_hw(q, bad):
    """The hardware-faithful evaluator, off by one on the flat pairs x*q + m in bad."""

    def evaluate(p, x, m):
        out = barrett_nat_eval_vec(p, x, m)
        hit = np.isin(np.asarray(x) * q + m, bad)
        out[hit] += 1
        return out

    return evaluate


@settings(max_examples=100, deadline=None)
@given(tiled_case(), st.data())
def test_tiled_equivalence_reports_first_mismatch(case, data):
    tile, q, s, _ = case
    p = BarrettParams.create(q, s)
    bad = data.draw(st.lists(st.integers(0, q * q - 1), min_size=1, max_size=4))
    evaluate = faulty_hw(q, np.array(bad, dtype=np.int64))
    with tiles_of(tile), mock.patch.object(preimage, "barrett_nat_eval_vec", evaluate):
        exhaustive = equivalence_check(p)
        sampled = equivalence_check(p, sample=3 * q, seed=q)
        n = tile_len(INT64) // 2

    first = min(bad)
    x, m = divmod(first, q)
    hw = barrett_nat_eval_vec(p, x, np.array([m]))[0]
    assert not exhaustive.passed
    assert exhaustive.pairs_checked == first + 1
    assert exhaustive.first_mismatch[:2] == (x, m)
    assert exhaustive.first_mismatch[3] == hw + 1

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
        assert sampled.first_mismatch[:2] == (xs[i], ms[i])
    else:
        assert sampled.passed and sampled.pairs_checked == 3 * q


@settings(max_examples=100, deadline=None)
@given(tiled_case(), STAGES, STAGES)
def test_tiled_shared_composition_matches_scalar_loop(case, first, second):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    spec = PipelineSpec(build(first), build(second), "shared")
    want = [0] * q
    xe = ZqElem(x, p.q)
    for m in range(q):
        me = ZqElem(m, p.q)
        want[spec.stage2.eval(spec.stage1.eval(xe, me), me).val] += 1
    with tiles_of(tile):
        got = counts_bruteforce_all(_shared_wire(spec), x)
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
    q, s = 2**20 - 3, 40
    p = BarrettParams.create(q, s)
    x = q // 3
    closed, closed_peak = traced_peak(counts_closedform_all, p, x)
    oracle, oracle_peak = traced_peak(counts_bruteforce_all, make_barrett_gadget(p), x)
    assert closed_peak < 2 * q
    assert oracle_peak < 9 * q
    assert np.array_equal(closed, oracle)


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
    routes = (
        (lane_dtype(q), (p, counts_closedform_all)),
        (INT64, (g, counts_bruteforce_all)),
    )
    for dtype, route in routes:
        with tiles_of(tile), blocks_of(rows, q, dtype):
            scanned = [pair for pair, _ in scan(secrets, route, lambda xs, counts: (xs, counts))]
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

    spec = PipelineSpec(build(first), build(second), "shared")
    secrets = a_few_blocks(q, x, rows)
    wire1, wire2 = [], []
    for x in secrets:
        xe = ZqElem(x, p.q)
        h1, h2 = [0] * q, [0] * q
        for m in range(q):
            me = ZqElem(m, p.q)
            v = spec.stage1.eval(xe, me)
            h1[v.val] += 1
            h2[spec.stage2.eval(v, me).val] += 1
        wire1.append(h1)
        wire2.append(h2)
    with tiles_of(tile), blocks_of(rows, q, INT64):
        got = counts_bruteforce_all(_shared_wire(spec), np.array(secrets))
        rep = compose(spec, secrets=secrets)
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
    faulty = faulty_hw(q, bad)
    sizes = []

    def evaluate(p, xs, masks):
        sizes.append(np.size(xs))
        return faulty(p, xs, masks)

    with blocks_of(rows, q, lane_dtype(q, s)), mock.patch.object(
        preimage, "barrett_nat_eval_vec", evaluate
    ):
        rep = equivalence_check(p)
    assert not rep.passed
    assert rep.pairs_checked == x * q + m + 1
    assert rep.first_mismatch[:2] == (x, m)
    assert rep.first_mismatch[3] == ref_wire_hw(q, s, x, m) + 1
    assert sizes[:-1] == [rows] * (len(sizes) - 1)
    assert sizes[-1] == min(rows, q - x // rows * rows)


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

    routes = (
        ("counts_closedform_all", False, lane_dtype(q)),
        ("counts_bruteforce_all", True, INT64),
    )
    for route, oracle, dtype in routes:
        blocks.clear()
        with blocks_of(rows, q, dtype), mock.patch.object(preimage, route, faulty):
            rep = trichotomy_check(p, oracle=oracle)
        assert rep.counterexample == (c, 1, 3)
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
        return np.where((x == 2) & (m == 3), wrong, (x - m) % q)

    g = WireGadget("out-of-range", Modulus(q), lambda x, m: x - m, 1, eval_vec)
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
     (3329, INT64, 4), (16353, INT32, 1), (2**20, INT32, 1)],
)
def test_block_rows_at_the_documented_moduli(q, dtype, rows):
    assert block_rows(q, dtype) == rows
    assert rows == 1 or rows * q * dtype.itemsize <= BLOCK_BYTES < 2**17


def test_block_scan_memory_stays_near_the_mmap_threshold():
    # One block scan holds a few block-sized arrays at once, each under
    # glibc's 128 KiB mmap threshold.  A budget twice as large pushes
    # every peak here past its bound (measured 3.6 / 5.7 / 9.8 x 128 KiB).
    q, s = 3329, 24
    threshold = 2**17
    p = BarrettParams.create(q, s)
    closed_rows, oracle_rows = block_rows(q, lane_dtype(q)), block_rows(q, INT64)
    assert closed_rows > 1 and oracle_rows > 1
    closed, closed_peak = traced_peak(counts_closedform_all, p, np.arange(closed_rows))
    oracle, oracle_peak = traced_peak(
        counts_bruteforce_all, make_barrett_gadget(p), np.arange(oracle_rows)
    )
    rep, equiv_peak = traced_peak(equivalence_check, p)
    assert np.array_equal(closed[:oracle_rows], oracle)
    assert rep.passed and rep.pairs_checked == q * q
    assert closed_peak < 2.5 * threshold
    assert oracle_peak < 3.5 * threshold
    assert equiv_peak < 6 * threshold


def test_tile_len_is_the_block_budget_in_elements():
    assert tile_len(INT32) == 32704
    assert tile_len(INT64) == 16352


@pytest.mark.parametrize(
    "q,route,rows",
    [(3329, "closed", 9), (4591, "closed", 7), (7681, "closed", 4), (12289, "closed", 2),
     (3329, "enumerate", 4)],
)
def test_secret_blocks_are_sized_in_the_lane_of_the_route(q, route, rows):
    # The closed form counts in lane_dtype(q), int32 here; enumeration in int64.
    p = BarrettParams.create(q, 2 * ceil_log2(q))
    handed = p if route == "closed" else make_barrett_gadget(p)
    # A stub count: only the type of the route's argument sizes the blocks.
    stub = (handed, lambda _, xs: xs)
    lengths = [n for n, _ in scan(range(q), stub, lambda xs, counts: len(xs))]
    assert lengths[:-1] == [rows] * (len(lengths) - 1)
    assert 1 <= lengths[-1] <= rows and sum(lengths) == q


@pytest.mark.parametrize("q", [40961, 65537])
def test_lone_secret_scan_memory_stays_within_a_few_tiles(q):
    # A lone secret runs as a (1, 1) column in tiles of BLOCK_BYTES: a few
    # tile-sized temporaries beside its result array (measured 2.0 and
    # 5.0 x 128 KiB).  Doubling the budget reads 4.0 and 10.0 at q = 65537.
    threshold = 2**17
    p = BarrettParams.create(q, 40)
    assert block_rows(q, lane_dtype(q)) == block_rows(q, INT64) == 1
    closed, closed_peak = traced_peak(counts_closedform_all, p, q // 3)
    oracle, oracle_peak = traced_peak(counts_bruteforce_all, make_barrett_gadget(p), q // 3)
    assert np.array_equal(closed, oracle)
    assert closed_peak - closed.nbytes < 3 * threshold
    assert oracle_peak - oracle.nbytes < 6 * threshold


# --- the scan driver --------------------------------------------------


@pytest.mark.parametrize("oracle,itemsize", [(False, 1), (True, 8)])
def test_trichotomy_holds_one_block_of_counts_at_a_time(oracle, itemsize):
    # Three lone secrets are three one-row blocks.  Keeping a block's
    # counts alive while the next is counted read 2.25 and 2.08 result rows.
    q = 2**20 - 3
    p = BarrettParams.create(q, 40)
    rep, peak = traced_peak(trichotomy_check, p, [1, q // 3, q - 2], oracle)
    assert rep.passed and rep.secrets_checked == 3
    assert peak < 1.5 * itemsize * q


def off_by_one_on(secrets, count):
    """count, with value 0 of every secret in `secrets` hit once more."""

    def counted(arg, xs):
        counts = count(arg, xs).astype(np.int64)
        counts[np.isin(xs, secrets), 0] += 1
        return counts

    return counted


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("enumerate_first", [False, True])
def test_scan_cross_check_flags_only_the_disagreeing_block(rows, enumerate_first):
    q, s = 61, 6
    p = BarrettParams.create(q, s)
    closed = (p, counts_closedform_all)
    enumerated = (make_barrett_gadget(p), counts_bruteforce_all)
    route, (arg, count) = (enumerated, closed) if enumerate_first else (closed, enumerated)
    middle = range(rows, 2 * rows)
    check = (arg, off_by_one_on(middle, count))
    with blocks_of(rows, q, INT64):
        # int64 rows are half as many as int32 rows: the smaller one wins.
        assert min(block_rows(q, INT32), block_rows(q, INT64)) == rows
        out = list(scan(range(3 * rows), route, lambda xs, c: (xs.tolist(), c.tolist()), check))
    assert [len(xs) for (xs, _), _ in out] == [rows] * 3
    assert [agree for _, agree in out] == [True, False, True]
    for (xs, counts), agree in out:
        want = [ref_counts(q, s, x) for x in xs]
        if not agree:
            want = [[c[0] + 1, *c[1:]] for c in want]
        assert counts == want


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
    assert rep.counterexample == (5, 1, 3) and rep.secrets_checked == 6


@pytest.mark.parametrize(
    "first,second",
    [("identity", "identity"), ("identity", "barrett"), ("barrett", "identity"),
     ("barrett", "barrett")],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_wire_eval_vec_matches_its_scalar_eval(first, second, data):
    q = data.draw(st.integers(1, 300))
    p = BarrettParams.create(q, data.draw(st.integers(0, 70)))

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    spec = PipelineSpec(build(first), build(second), "shared")
    wire = _shared_wire(spec)
    xs = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    got = wire.eval_vec(np.array(xs).reshape(-1, 1), np.arange(q))
    want = [[wire.eval(ZqElem(x, p.q), ZqElem(m, p.q)).val for m in range(q)] for x in xs]
    assert got.tolist() == want
    assert wire.claimed_max_mult == spec.stage1.claimed_max_mult * spec.stage2.claimed_max_mult
