"""The int32 lanes of the wire evaluators.

gadgets.lane_dtype(q, s) picks int32 for q <= 2^30 and s <= 31.  The
hardware-faithful evaluator takes lane_dtype(q, s); the two-branch and
translation evaluators wrap at no s-bit word and take lane_dtype(q).
These tests sit on both sides of that rule: q around 2^30 and at 2^31 - 1,
s = 30, 31 and 32.  They check the rule against the int32 bounds of each
form's largest intermediate, and the int32 results against the int64
path and the pure-int reference, on short windows of canonical values
near 0, x and q - 1.  No test here builds a q-length array.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskwire.gadgets import (
    BarrettParams,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    identity_mask_eval_vec,
    lane_dtype,
)

from reference import ref_wire, ref_wire_hw

INT32_MAX = int(np.iinfo(np.int32).max)
BOUNDARY_Q = (2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1)
BOUNDARY_S = (30, 31, 32)
# 2^45 mod q = q - 1 here, so the two-branch form's x - m + r reaches 2q - 2,
# within 2^16 of the int32 limit.
NEAR_LIMIT = (1073709057, 45)
WINDOW = 16


@st.composite
def near_edges(draw, q):
    """A canonical residue within 2^10 of 0 or of q - 1."""
    offset = draw(st.integers(0, min(q - 1, 2**10)))
    return draw(st.sampled_from((offset, q - 1 - offset)))


@st.composite
def lane_case(draw):
    """(q, s, x, masks) on the boundary grid, x and masks near 0 or q - 1."""
    q = draw(st.sampled_from(BOUNDARY_Q))
    s = draw(st.sampled_from(BOUNDARY_S))
    x = draw(near_edges(q))
    masks = draw(st.lists(near_edges(q), min_size=1, max_size=WINDOW))
    return q, s, x, masks


@pytest.mark.parametrize("q", BOUNDARY_Q + (NEAR_LIMIT[0],))
@pytest.mark.parametrize("s", (0,) + BOUNDARY_S + (NEAR_LIMIT[1],))
def test_lane_rule_picks_int32_exactly_where_safe(q, s):
    # Largest intermediates on canonical inputs: x - m + r <= 2q - 2 for the
    # two-branch form, (x - m) & (2^s - 1) <= 2^s - 1 for the
    # hardware-faithful form.
    safe = 2 * q - 2 <= INT32_MAX and 2**s - 1 <= INT32_MAX
    assert lane_dtype(q, s) == (np.int32 if safe else np.int64)


@pytest.mark.parametrize("q,s", [(40961, 32), (2**30 + 1, 31), (2**30 + 1, 32)])
def test_int32_inputs_widen_where_the_rule_says_int64(q, s):
    # Past s = 31 the hardware-faithful form widens; the two-branch form
    # wraps at no s-bit word and stays int32 while q <= 2^30.
    p = BarrettParams.create(q, s)
    assert lane_dtype(q, s) == np.int64
    masks = np.concatenate([np.arange(10), np.arange(q - 10, q)]).astype(np.int32)
    for x in (0, 5, q - 1):
        alg = barrett_algebraic_eval_vec(p, x, masks)
        hw = barrett_nat_eval_vec(p, x, masks)
        assert alg.dtype == lane_dtype(q) and hw.dtype == np.int64
        assert alg.tolist() == [ref_wire(q, s, x, int(m)) for m in masks]
        assert hw.tolist() == [ref_wire_hw(q, s, x, int(m)) for m in masks]


@settings(max_examples=120, deadline=None)
@given(lane_case())
@example((2**30, 31, 0, [1, 2**30 - 1]))
@example((2**30 + 1, 31, 2**30, [0, 2**30]))
def test_int32_lane_evaluators_match_int64_and_reference(case):
    q, s, x, ms = case
    p = BarrettParams.create(q, s)
    m32 = np.array(ms, dtype=np.int32)
    m64 = np.array(ms, dtype=np.int64)

    alg = barrett_algebraic_eval_vec(p, x, m32)
    assert alg.dtype == lane_dtype(q)
    assert alg.tolist() == barrett_algebraic_eval_vec(p, x, m64).tolist()
    assert alg.tolist() == [ref_wire(q, s, x, m) for m in ms]
    ident = identity_mask_eval_vec(p.q, x, m32)
    assert ident.dtype == lane_dtype(q)
    assert ident.tolist() == identity_mask_eval_vec(p.q, x, m64).tolist()
    assert ident.tolist() == [(x - m) % q for m in ms]
    if p.scope_ok():
        hw = barrett_nat_eval_vec(p, x, m32)
        assert hw.dtype == lane_dtype(q, s)
        assert hw.tolist() == barrett_nat_eval_vec(p, x, m64).tolist()
        assert hw.tolist() == [ref_wire_hw(q, s, x, m) for m in ms]
