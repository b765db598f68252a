"""The int16 and int32 lanes of the wire evaluators.

gadgets.lane_dtype(q) picks int16 for q <= 2^14, int32 for q <= 2^30,
else int64, whatever s is.  The two-branch and translation evaluators
wrap at no s-bit word and run in lane_dtype(q) on what a scan passes
them, a range of masks against secrets already in that lane, and in
int64 on anything else; the hardware-faithful evaluator, which wraps
at an s-bit word, takes masks of any lane into int64.  These tests sit
on both sides of each bound: q around 2^30 and at 2^31 - 1 with s = 30,
31 and 32, and q around 2^14 with s = 14, 15 and 16.  They check the
rule against the bound of the two-branch form's largest intermediate,
the s-bit form's int64 result on lane masks at every shift, and the
narrow results against the int64 path and the pure-int reference, on
short ranges of canonical masks near 0 and q - 1.  Only the tests at
the int16 bound build q-length arrays: a scan's blocks there, against
the reference and the closed form.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskwire import preimage
from maskwire.gadgets import (
    BarrettParams,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    identity_mask_eval_vec,
    lane_dtype,
    make_barrett_gadget,
    make_identity_gadget,
)
from maskwire.preimage import block_rows, counts_bruteforce_all, counts_closedform_all

from reference import ref_wire, ref_wire_hw

INT16_MAX = int(np.iinfo(np.int16).max)
INT32_MAX = int(np.iinfo(np.int32).max)
BOUNDARY_Q = (2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1)
BOUNDARY_S = (30, 31, 32)
# 2^45 mod q = q - 1 here, so the two-branch form's x - m + r reaches 2q - 2,
# within 2^16 of the int32 limit.
NEAR_LIMIT = (1073709057, 45)
WINDOW = 16
# q = 2^14 is the last modulus whose 2q - 2 = 32,766 fits int16.
INT16_Q = (2**14 - 1, 2**14, 2**14 + 1)
INT16_S = (14, 15, 16)
# 2^21 mod q = q - 1: the two-branch form's r at its largest below 2^14.
NEAR_INT16_LIMIT = (16257, 21)


@st.composite
def near_edges(draw, q):
    """A canonical residue within 2^10 of 0 or of q - 1."""
    offset = draw(st.integers(0, min(q - 1, 2**10)))
    return draw(st.sampled_from((offset, q - 1 - offset)))


@st.composite
def lane_case(draw, qs=BOUNDARY_Q, ss=BOUNDARY_S):
    """(q, s, x, masks) on a boundary grid: x near 0 or q - 1, masks a range
    of up to WINDOW canonical residues from near 0 or q - 1."""
    q = draw(st.sampled_from(qs))
    s = draw(st.sampled_from(ss))
    x = draw(near_edges(q))
    lo = draw(near_edges(q))
    return q, s, x, range(lo, min(q, lo + draw(st.integers(1, WINDOW))))


def assert_s_bit_form_widens_lane_masks(q, s):
    """The s-bit form takes lane_dtype(q) masks into int64, exact at the ring's edges."""
    p = BarrettParams.create(q, s)
    if p.scope_ok():
        masks = np.array([0, 1, q - 1], dtype=lane_dtype(q))
        hw = barrett_nat_eval_vec(p, q - 1, masks)
        assert hw.dtype == np.int64
        assert hw.tolist() == [ref_wire_hw(q, s, q - 1, int(m)) for m in masks]


@pytest.mark.parametrize("q", BOUNDARY_Q + (NEAR_LIMIT[0],))
@pytest.mark.parametrize("s", (0,) + BOUNDARY_S + (NEAR_LIMIT[1],))
def test_lane_rule_picks_int32_exactly_where_safe(q, s):
    # The largest intermediate on canonical inputs in the lane is the
    # two-branch form's x - m + r <= 2q - 2, whatever s is: the
    # hardware-faithful form's (x - m) & (2^s - 1) is computed in int64.
    safe = 2 * q - 2 <= INT32_MAX
    assert lane_dtype(q) == (np.int32 if safe else np.int64)
    assert_s_bit_form_widens_lane_masks(q, s)


@pytest.mark.parametrize("q,s", [(40961, 32), (2**30 + 1, 31), (2**30 + 1, 32)])
def test_int32_inputs_widen_where_the_rule_says_int64(q, s):
    # The hardware-faithful form widens int32 secrets to int64 at any s; the
    # two-branch form wraps at no s-bit word and stays int32 while q <= 2^30,
    # where int32 is the lane.
    p = BarrettParams.create(q, s)
    assert lane_dtype(q) == (np.int32 if q <= 2**30 else np.int64)
    for x in np.array([0, 5, q - 1], dtype=np.int32):
        for masks in (range(10), range(q - 10, q)):
            alg = barrett_algebraic_eval_vec(p, x, masks)
            hw = barrett_nat_eval_vec(p, x, masks)
            assert alg.dtype == lane_dtype(q) and hw.dtype == np.int64
            assert alg.tolist() == [ref_wire(q, s, int(x), m) for m in masks]
            assert hw.tolist() == [ref_wire_hw(q, s, int(x), m) for m in masks]


@settings(max_examples=120, deadline=None)
@given(lane_case())
@example((2**30, 31, 0, range(0, 2)))
@example((2**30, 31, 0, range(2**30 - 1, 2**30)))
@example((2**30 + 1, 31, 2**30, range(0, 1)))
@example((2**30 + 1, 31, 2**30, range(2**30 - 1, 2**30 + 1)))
def test_int32_lane_evaluators_match_int64_and_reference(case):
    # A (1, 1) secret column in the lane against a range of masks, as a scan passes them.
    q, s, x, ms = case
    p = BarrettParams.create(q, s)
    col = np.array([[x]], dtype=lane_dtype(q))
    m64 = np.arange(ms.start, ms.stop)

    alg = barrett_algebraic_eval_vec(p, col, ms)
    assert alg.dtype == lane_dtype(q)
    assert alg.tolist() == barrett_algebraic_eval_vec(p, x, m64).reshape(1, -1).tolist()
    assert alg.tolist() == [[ref_wire(q, s, x, m) for m in ms]]
    ident = identity_mask_eval_vec(p.q, col, ms)
    assert ident.dtype == lane_dtype(q)
    assert ident.tolist() == identity_mask_eval_vec(p.q, x, m64).reshape(1, -1).tolist()
    assert ident.tolist() == [[(x - m) % q for m in ms]]
    if p.scope_ok():
        hw = barrett_nat_eval_vec(p, col, ms)
        assert hw.dtype == np.int64
        assert hw.tolist() == barrett_nat_eval_vec(p, x, m64).reshape(1, -1).tolist()
        assert hw.tolist() == [[ref_wire_hw(q, s, x, m) for m in ms]]


@pytest.mark.parametrize("q", INT16_Q + (NEAR_INT16_LIMIT[0], 3329, 12289))
@pytest.mark.parametrize("s", (0,) + INT16_S + (NEAR_INT16_LIMIT[1],))
def test_lane_rule_picks_int16_exactly_where_safe(q, s):
    # The same intermediate as for int32, against the int16 limit.
    safe = 2 * q - 2 <= INT16_MAX
    assert lane_dtype(q) == (np.int16 if safe else np.int32)
    assert_s_bit_form_widens_lane_masks(q, s)


@settings(max_examples=120, deadline=None)
@given(lane_case(INT16_Q + (NEAR_INT16_LIMIT[0],), INT16_S), st.sampled_from([np.int16, np.int32]))
@example((2**14, 14, 2**14 - 1, range(0, 2)), np.int16)
@example((2**14, 14, 2**14 - 1, range(2**14 - 1, 2**14)), np.int16)
@example((2**14 + 1, 15, 2**14, range(0, 1)), np.int16)
@example((2**14 + 1, 15, 2**14, range(2**14, 2**14 + 1)), np.int32)
@example((16257, 15, 16256, range(0, 1)), np.int32)
@example((16257, 15, 16256, range(16256, 16257)), np.int16)
def test_int16_lane_evaluators_match_int64_and_reference(case, dtype):
    # Secrets in lane_dtype(q), int16 up to q = 2^14 and int32 above, run
    # in the lane against a range of masks; secrets in the other dtype in int64.
    q, s, x, ms = case
    p = BarrettParams.create(q, s)
    lane = lane_dtype(q)
    assert lane == (np.int16 if q <= 2**14 else np.int32)
    col = np.array([[x]], dtype=dtype)
    m64 = np.arange(ms.start, ms.stop)

    alg = barrett_algebraic_eval_vec(p, col, ms)
    assert alg.dtype == (lane if dtype == lane else np.int64)
    assert alg.tolist() == barrett_algebraic_eval_vec(p, x, m64).reshape(1, -1).tolist()
    assert alg.tolist() == [[ref_wire(q, s, x, m) for m in ms]]
    ident = identity_mask_eval_vec(p.q, col, ms)
    assert ident.dtype == alg.dtype
    assert ident.tolist() == [[(x - m) % q for m in ms]]
    if p.scope_ok():
        hw = barrett_nat_eval_vec(p, col, ms)
        assert hw.dtype == np.int64
        assert hw.tolist() == barrett_nat_eval_vec(p, x, m64).reshape(1, -1).tolist()
        assert hw.tolist() == [[ref_wire_hw(q, s, x, m) for m in ms]]


def edge_secrets(p):
    """Secrets at the edges of the ring and of the wrap set, ascending."""
    q, r = p.q, p.r
    return sorted({0, 1, max(r - 1, 0), q - 1 - r, q // 2, q - 2, q - 1})


@pytest.mark.parametrize(
    "q,s", [(2**14, 14), (2**14, 15), (2**14 - 1, 16), (2**14 + 1, 15), (2**14 + 1, 16),
            NEAR_INT16_LIMIT],
)
def test_scan_blocks_at_the_int16_bound_match_int64_and_reference(q, s):
    # A scan's blocks in lane_dtype(q): rows of int16 masks, 65,408 in all,
    # up to q = 2^14 (3 rows there), and one int32 row above.  On each
    # tile the slice forms, the general forms on int64 masks and the s-bit
    # form, in int64, agree with the reference on every mask, and
    # enumeration agrees with the closed form.
    p = BarrettParams.create(q, s)
    lane = lane_dtype(q)
    assert (lane, block_rows(q, lane)) == ((np.int16, 65408 // q) if q <= 2**14 else (np.int32, 1))
    for xs in preimage._blocks(edge_secrets(p), block_rows(q, lane)):
        for lo, col, masks in preimage._tiles(xs, q, lane):
            array = np.arange(masks.start, masks.stop)
            want = [[ref_wire(q, s, x, m) for m in masks] for x in xs.tolist()]
            sliced = barrett_algebraic_eval_vec(p, col, masks)
            assert sliced.dtype == lane and sliced.tolist() == want
            assert barrett_algebraic_eval_vec(p, col, array).tolist() == want
            ident = identity_mask_eval_vec(q, col, masks)
            assert ident.dtype == lane
            assert ident.tolist() == [[(x - m) % q for m in masks] for x in xs.tolist()]
            if p.scope_ok():
                hw = barrett_nat_eval_vec(p, col, masks)
                assert hw.dtype == np.int64
                assert hw.tolist() == barrett_nat_eval_vec(p, col, array).tolist()
                assert hw.tolist() == want
        barrett = counts_bruteforce_all(make_barrett_gadget(p), xs)
        assert np.array_equal(barrett, counts_closedform_all(p, xs))
        identity = counts_bruteforce_all(make_identity_gadget(q), xs)
        assert identity.shape == (len(xs), q) and (identity == 1).all()


def test_narrow_arrays_off_the_scan_run_in_int64():
    # At q = 3329 the int16 lane trusts its operands to be canonical.  An
    # int32 mask array, or a range against int64 secrets, is not what a scan
    # passes, so a non-canonical value there runs in int64 and stays exact
    # (the lane read 1255, [[1135, 1134, 1133]] and 2199).
    q, s = 3329, 24
    p = BarrettParams.create(q, s)
    far = np.array([70000], np.int32)
    assert barrett_algebraic_eval_vec(p, 5, far).tolist() == [ref_wire(q, s, 5, 70000)] == [2299]
    got = barrett_algebraic_eval_vec(p, np.array([[70000]]), range(0, 3)).tolist()
    assert got == [[ref_wire(q, s, 70000, m) for m in range(3)]] == [[91, 90, 89]]
    assert identity_mask_eval_vec(q, 5, far).tolist() == [(5 - 70000) % q] == [3243]
