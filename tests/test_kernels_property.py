"""Property tests: the in-place kernels against independent forms.

q ranges over [1, 2^16] and s from ceil_log2(q) to 80, with s = 61..64
and 200 always tried, so both sides of the s > 62 Python-int fallback of
the hardware-faithful evaluator are covered, on 0-d operands too.  The
evaluators are checked on arbitrary int64 inputs, negative and
non-canonical ones included, and on the same reduced to canonical
residues with int32 masks, which every evaluator runs in int64: only a
range of masks against secrets in lane_dtype(q) runs in the lane.  The
closed-form counter only promises exact counts for a canonical secret.
Scans pass a (B, 1) column of secrets against a row of masks, and each
evaluator must then give the scalar-secret rows stacked, in both lanes.
On a scan's tiles, a column against a range of masks, the two-branch and
identity kernels take their slice form; it must equal their general form
on the same range, in the same lane, and the reference, on every tile.
"""

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import maskwire.gadgets as gadgets
import maskwire.preimage as preimage
from maskwire.gadgets import (
    INT32,
    BarrettParams,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    identity_mask_eval_vec,
    lane_dtype,
    make_barrett_gadget,
    make_identity_gadget,
)
from maskwire.preimage import counts_bruteforce_all, counts_closedform_all

from reference import ceil_log2, ref_counts, ref_wire, ref_wire_hw

WIDE_S = (61, 62, 63, 64, 200)
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def params(draw):
    q = draw(st.integers(1, 2**16))
    lo = ceil_log2(q)
    s = draw(st.one_of(st.sampled_from(WIDE_S), st.integers(lo, 80)))
    return q, s


@st.composite
def operands(draw):
    """(x, m): m a 0-d or 1-D int64 array, x a scalar or an array of m's shape."""
    shapes = hnp.array_shapes(min_dims=0, max_dims=1, min_side=0, max_side=48)
    m = draw(hnp.arrays(np.int64, shapes, elements=INT64))
    x = draw(st.one_of(INT64, hnp.arrays(np.int64, m.shape, elements=INT64)))
    return x, m


def remainder_form(q, r, x, m):
    return np.where(m <= x, (x - m) % q, (x - m + r) % q)


@settings(max_examples=200, deadline=None)
@given(params(), operands())
@example((3329, 61), (-1, np.array([2**63 - 1, -(2**63), 0, 5], dtype=np.int64)))
@example((3329, 62), (2**63 - 1, np.array([-(2**63), -1, 7], dtype=np.int64)))
@example((12289, 63), (0, np.array([12288, 1], dtype=np.int64)))
@example((65536, 64), (np.array([-(2**63)], dtype=np.int64), np.array([2**63 - 1])))
@example((61, 63), (7, np.array([60], dtype=np.int64)))
@example((61, 64), (np.array([-(2**63)], dtype=np.int64), np.array([2**63 - 1])))
@example((3329, 200), (-1, np.array([2**63 - 1, -(2**63), 0, 5], dtype=np.int64)))
@example((65498, 16), (-9223372036854715749, np.array(0)))
@example((3329, 24), (np.array(-(2**63)), np.array(1)))
@example((3329, 70), (np.array(5), np.array(7)))
def test_evaluators_match_independent_forms(qs, xm):
    q, s = qs
    p = BarrettParams.create(q, s)
    x, m = xm
    # The arbitrary int64 operands, then the same reduced to canonical
    # residues with int32 masks: an array of masks is never trusted to be
    # canonical, so every form takes both into int64.
    for x, m in ((x, m), (x % q, np.asarray(m % q, dtype=np.int32))):
        xa = np.asarray(x, dtype=np.int64)
        shape = np.broadcast(xa, m).shape
        # The forms below run on 1-D copies: 0-d int64 arithmetic would
        # warn on the intended wrap.
        xs = np.broadcast_to(xa, shape).ravel()
        ms = np.broadcast_to(m, shape).ravel().astype(np.int64)

        alg = barrett_algebraic_eval_vec(p, x, m)
        assert alg.dtype == np.int64 and alg.shape == shape
        np.testing.assert_array_equal(alg.ravel(), remainder_form(q, p.r, xs, ms))

        ident = identity_mask_eval_vec(q, x, m)
        assert ident.dtype == alg.dtype and ident.shape == shape
        np.testing.assert_array_equal(ident.ravel(), (xs - ms) % q)

        hw = barrett_nat_eval_vec(p, x, m)
        assert hw.dtype == np.int64 and hw.shape == shape
        want_hw = [ref_wire_hw(q, s, int(a), int(b)) for a, b in zip(xs, ms)]
        assert hw.ravel().tolist() == want_hw
        if m.size:
            # A numpy-scalar secret against a 0-d mask, where the s > 62
            # fallback's arithmetic gives a bare int.
            point = barrett_nat_eval_vec(p, xs[0], m.ravel()[0, ...])
            assert point.shape == () and point.dtype == np.int64 and point == want_hw[0]


@st.composite
def params_and_secret(draw):
    q, s = draw(params())
    return q, s, draw(st.integers(0, q - 1))


@settings(max_examples=40, deadline=None)
@given(params_and_secret())
@example((1, 0, 0))
@example((65536, 64, 65535))
@example((3329, 24, 0))
def test_closedform_counts_match_enumeration(qsx):
    q, s, x = qsx
    counts = counts_closedform_all(BarrettParams.create(q, s), x)
    assert counts.dtype == np.uint8
    assert counts.tolist() == ref_counts(q, s, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 199), st.integers(0, 11))
@example(1, 0)
@example(128, 7)
@example(199, 11)
def test_closedform_rows_match_enumeration_over_the_whole_ring(q, s):
    # One call per route over every secret, so each runs its block path;
    # the two routes share no code.
    p = BarrettParams.create(q, s)
    xs = np.arange(q)
    closed = counts_closedform_all(p, xs)
    oracle = counts_bruteforce_all(make_barrett_gadget(p), xs)
    assert closed.shape == oracle.shape == (q, q)
    assert np.array_equal(closed, oracle)


@st.composite
def column_case(draw):
    """(q, s, xs, masks, dtype): canonical secrets and masks in one lane."""
    q, s = draw(params())
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    canonical = st.integers(0, q - 1)
    xs = draw(st.lists(canonical, min_size=1, max_size=9))
    masks = draw(st.lists(canonical, min_size=0, max_size=24))
    return q, s, xs, np.array(masks, dtype=dtype), dtype


@settings(max_examples=200, deadline=None)
@given(column_case())
@example((5, 70, [0, 3, 4], np.arange(5, dtype=np.int64), np.int64))
@example((3329, 24, [0, 1, 3328], np.arange(3320, 3329, dtype=np.int32), np.int32))
def test_column_call_equals_stacked_scalar_calls(case):
    # Scans pass a (B, 1) column of secrets, in the masks' dtype, against
    # one row of masks; row i must be what secret i alone gets.
    q, s, xs, masks, dtype = case
    p = BarrettParams.create(q, s)
    col = np.array(xs, dtype=dtype).reshape(-1, 1)
    evaluators = [
        lambda x, m: barrett_algebraic_eval_vec(p, x, m),
        make_barrett_gadget(p).eval_vec,
        make_identity_gadget(p.q).eval_vec,
    ]
    if p.scope_ok():
        evaluators.append(lambda x, m: barrett_nat_eval_vec(p, x, m))
    for evaluate in evaluators:
        got = evaluate(col, masks)
        want = np.stack([evaluate(x, masks) for x in xs])
        assert got.shape == (len(xs), len(masks))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def slice_and_general_forms(p, col, masks):
    """(sliced, general) for both sliceable kernels on the range, the general
    form with SLICE_MIN_ROW past the range's length."""
    kernels = (partial(barrett_algebraic_eval_vec, p), partial(identity_mask_eval_vec, p.q))
    sliced = [kernel(col, masks) for kernel in kernels]
    with mock.patch.object(gadgets, "SLICE_MIN_ROW", len(masks) + 1):
        return list(zip(sliced, [kernel(col, masks) for kernel in kernels]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 79),
    st.integers(0, 9),
    st.integers(1, 40),
    st.lists(st.integers(0, 78), min_size=1, max_size=4),
)
@example(61, 6, 8, [7])  # r = 3: x + 1 = 8 starts the second tile
@example(61, 6, 8, [4])  # x + 1 + r = 8 starts the second tile
@example(61, 6, 8, [6, 3, 3])  # x + 1 = 7 and x + 1 + r = 10 straddle an edge, 3 rows
@example(64, 6, 8, [7, 63, 0])  # r = 0: one bound, x + 1
@example(79, 9, 40, [78, 0, 39])  # whole rows in one tile, then a short one
def test_slice_form_equals_general_form_and_reference_on_every_tile(q, s, tile, secrets):
    # Tiles of `tile` masks in the lane, and SLICE_MIN_ROW 1, so every tile
    # of a few rows takes the slice form; lo > 0 past the first tile.
    p, lane = BarrettParams.create(q, s), lane_dtype(q)
    xs = np.array([x % q for x in secrets])
    want = {
        "barrett": [[ref_wire(q, s, x, m) for m in range(q)] for x in xs.tolist()],
        "identity": [[(x - m) % q for m in range(q)] for x in xs.tolist()],
    }
    with mock.patch.object(preimage, "BLOCK_BYTES", lane.itemsize * tile), mock.patch.object(
        gadgets, "SLICE_MIN_ROW", 1
    ):
        tiles = list(preimage._tiles(xs, q, lane))
        assert [len(masks) for _, _, masks in tiles][:-1] == [tile] * (len(tiles) - 1)
        for lo, col, masks in tiles:
            for name, (sliced, general) in zip(want, slice_and_general_forms(p, col, masks)):
                assert sliced.dtype == general.dtype == lane
                assert sliced.shape == general.shape == (len(xs), len(masks))
                ref = [row[lo : lo + len(masks)] for row in want[name]]
                assert sliced.tolist() == general.tolist() == ref


MLDSA = BarrettParams.create(8380417, 48)
MLDSA_TILE = 32704  # int32 masks a tile at the real BLOCK_BYTES


@pytest.mark.parametrize(
    "x",
    [
        5 * MLDSA_TILE - 1,  # x + 1 starts tile 5
        8 * MLDSA_TILE - 1 - MLDSA.r,  # x + 1 + r starts tile 8
        256 * MLDSA_TILE - 1,  # x + 1 starts the short last tile; x + 1 + r > q
    ],
)
def test_slice_form_at_mldsa_bounds_on_tile_edges(x):
    q, r = MLDSA.q, MLDSA.r
    assert preimage.tile_len(INT32) == MLDSA_TILE
    bounds = [b for b in (x + 1, x + 1 + r) if b < q]
    assert any(b % MLDSA_TILE == 0 for b in bounds)
    for lo, col, masks in preimage._tiles(np.array([x]), q, INT32):
        for sliced, general in slice_and_general_forms(MLDSA, col, masks):
            assert np.array_equal(sliced, general)
        for b in bounds:
            # Two masks either side of each bound, against the reference.
            for m in range(max(b - 2, lo), min(b + 2, masks.stop)):
                got = barrett_algebraic_eval_vec(MLDSA, col, masks)[0, m - lo]
                assert got == ref_wire(q, MLDSA.s, x, m)
    g = make_barrett_gadget(MLDSA)
    assert np.array_equal(counts_bruteforce_all(g, x), counts_closedform_all(MLDSA, x))
