"""Wire map evaluators against a pure-int reference implementation.

Single wire values come from the kernels on 0-d operands.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskwire.gadgets import (
    BarrettParams,
    ScopeConditionError,
    WireGadget,
    barrett_algebraic_eval_vec,
    barrett_nat_eval_vec,
    identity_mask_eval_vec,
    make_barrett_gadget,
    make_identity_gadget,
)

from reference import ceil_log2, ref_wire, ref_wire_hw


def alg(p, x, m, dtype=np.int64):
    """The two-branch wire value of one (x, m) pair, from 0-d operands."""
    return int(barrett_algebraic_eval_vec(p, dtype(x), dtype(m)))


def hw(p, x, m):
    """The hardware-faithful wire value of one (x, m) pair, from 0-d int64 operands."""
    return int(barrett_nat_eval_vec(p, np.int64(x), np.int64(m)))


def test_params_construction():
    p = BarrettParams.create(3329, 24)
    assert (p.q, p.s, p.r) == (3329, 24, 2385)
    assert [type(v) for v in (p.q, p.s, p.r)] == [int, int, int]
    assert BarrettParams(3329, 24) == p
    assert p.scope_ok()
    p.require_scope()


def test_negative_shift_rejected():
    with pytest.raises(ValueError, match="shift exponent must be >= 0"):
        BarrettParams.create(7, -1)


@pytest.mark.parametrize("s", [True, False, 2.0, "3", None])
def test_shift_must_be_a_plain_int(s):
    # A bool would pass as s = 1 or 0, a float would reach pow as a TypeError.
    with pytest.raises(ValueError, match="shift exponent must be >= 0"):
        BarrettParams(7, s)


def test_scope_condition():
    # 2^s below q: the width-s wrap can strand values, so the hw form refuses.
    p = BarrettParams.create(5, 2)
    assert not p.scope_ok()
    with pytest.raises(ScopeConditionError):
        p.require_scope()
    with pytest.raises(ScopeConditionError):
        hw(p, 3, 1)
    with pytest.raises(ScopeConditionError):
        barrett_nat_eval_vec(p, 3, np.arange(5, dtype=np.int64))
    # The algebraic form has no width and stays defined.
    assert alg(p, 3, 1) == ref_wire(5, 2, 3, 1)


@pytest.mark.parametrize("k", [1, 2, 12, 30])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("ds", [-1, 0, 1])
def test_scope_check_at_powers_of_two(k, extra, ds):
    q, s = 2**k + extra, k + ds
    assert BarrettParams.create(q, s).scope_ok() is (q <= 2**s)


def test_scope_check_at_huge_shift():
    assert BarrettParams.create(2**31 - 1, 10**8).scope_ok()
    assert BarrettParams.create(1, 0).scope_ok()


def test_branch_examples():
    p = BarrettParams.create(7, 3)  # r = 1
    for dtype in (np.int32, np.int64):
        assert alg(p, 3, 2, dtype) == 1
        assert alg(p, 3, 3, dtype) == 0
        assert alg(p, 3, 5, dtype) == 6
        assert alg(p, 0, 0, dtype) == 0


@pytest.mark.parametrize("q", list(range(1, 65)))
def test_two_branch_law_exhaustive(q):
    for s in (ceil_log2(q), 2 * ceil_log2(q) + 1):
        p = BarrettParams.create(q, s)
        masks = np.arange(q, dtype=np.int64)
        for x in range(q):
            got = barrett_algebraic_eval_vec(p, x, masks).tolist()
            assert got == [ref_wire(q, s, x, m) for m in range(q)]


def test_two_branch_law_exhaustive_to_256():
    # The reference pins the evaluator pair by pair elsewhere; a numpy
    # formula keeps covering every modulus up to 256 cheap.
    for q in range(1, 257):
        p = BarrettParams.create(q, ceil_log2(q))
        r = p.r
        m = np.arange(q, dtype=np.int64)
        for x in range(q):
            want = np.where(m <= x, (x - m) % q, (x - m + r) % q)
            assert np.array_equal(barrett_algebraic_eval_vec(p, x, m), want)


def test_two_branch_law_million_samples():
    rng = np.random.default_rng(0)
    n = 10**6
    for q, s in ((3329, 24), (8380417, 48)):
        p = BarrettParams.create(q, s)
        r = p.r
        xs = rng.integers(0, q, size=n)
        ms = rng.integers(0, q, size=n)
        want = np.where(ms <= xs, (xs - ms) % q, (xs - ms + r) % q)
        assert np.array_equal(barrett_algebraic_eval_vec(p, xs, ms), want)
        for i in range(0, n, n // 8):
            x, m = int(xs[i]), int(ms[i])
            assert alg(p, x, m) == int(want[i]) == ref_wire(q, s, x, m)


@pytest.mark.parametrize("q,s", [(7, 3), (16, 4), (61, 6), (64, 6), (64, 12)])
def test_hw_form_exhaustive(q, s):
    p = BarrettParams.create(q, s)
    for x in range(q):
        for m in range(q):
            assert hw(p, x, m) == ref_wire_hw(q, s, x, m)


@pytest.mark.parametrize("q,s", [(7, 3), (61, 6), (3329, 24), (1, 0)])
def test_forms_agree_spot(q, s):
    p = BarrettParams.create(q, s)
    for x in range(q) if q <= 64 else random.Random(1).sample(range(q), 64):
        for m in range(q) if q <= 64 else random.Random(2).sample(range(q), 64):
            assert alg(p, x, m) == hw(p, x, m)


def test_degenerate_offset_is_bijection():
    # q = 2^s makes r = 0; the wire collapses to plain m -> x - m.
    p = BarrettParams.create(16, 4)
    assert p.r == 0
    for x in range(16):
        assert {alg(p, x, m) for m in range(16)} == set(range(16))


def test_identity_gadget():
    for x in range(11):
        for m in range(11):
            assert int(identity_mask_eval_vec(11, x, np.int64(m))) == (x - m) % 11
    g = make_identity_gadget(11)
    assert g.q == 11
    assert g.name == "identity"
    assert g.claimed_max_mult == 1


@pytest.mark.parametrize("q,s", [(7, 3), (64, 6), (3329, 24), (8380417, 48)])
def test_vectorized_matches_scalar(q, s):
    p = BarrettParams.create(q, s)
    rng = random.Random(7)
    if q <= 4096:
        xs = list(range(q))
    else:
        xs = [rng.randrange(q) for _ in range(8)]
    masks = np.arange(q, dtype=np.int64)
    sample = [rng.randrange(q) for _ in range(32)]
    for x in xs:
        alg = barrett_algebraic_eval_vec(p, x, masks)
        hw = barrett_nat_eval_vec(p, x, masks)
        assert alg.dtype == np.int64
        for m in sample:
            assert int(alg[m]) == ref_wire(q, s, x, m)
            assert int(hw[m]) == ref_wire_hw(q, s, x, m)


def test_vectorized_array_secret_broadcast():
    p = BarrettParams.create(3329, 24)
    rng = random.Random(3)
    xs = np.array([rng.randrange(3329) for _ in range(1000)], dtype=np.int64)
    ms = np.array([rng.randrange(3329) for _ in range(1000)], dtype=np.int64)
    alg = barrett_algebraic_eval_vec(p, xs, ms)
    hw = barrett_nat_eval_vec(p, xs, ms)
    for i in range(0, 1000, 37):
        assert int(alg[i]) == ref_wire(3329, 24, int(xs[i]), int(ms[i]))
        assert int(hw[i]) == ref_wire_hw(3329, 24, int(xs[i]), int(ms[i]))


def test_wide_datapath_vector_path():
    # s beyond the int64-safe range falls back to exact Python ints.
    p = BarrettParams.create(3329, 80)
    masks = np.arange(3329, dtype=np.int64)
    row = barrett_nat_eval_vec(p, 100, masks)
    for m in (0, 1, 99, 100, 101, 3328):
        assert int(row[m]) == ref_wire_hw(3329, 80, 100, m)
        assert hw(p, 100, m) == ref_wire_hw(3329, 80, 100, m)


def test_barrett_gadget_wrapper():
    p = BarrettParams.create(3329, 24)
    g = make_barrett_gadget(p)
    assert g.name == "barrett"
    assert g.claimed_max_mult == 2
    assert int(g.eval_vec(100, np.int64(2485))) == ref_wire(3329, 24, 100, 2485)
    got = g.eval_vec(100, np.arange(3329, dtype=np.int64))
    assert int(got[2485]) == ref_wire(3329, 24, 100, 2485)


def test_gadget_validation():
    with pytest.raises(ValueError):
        WireGadget(name="bad", q=7, claimed_max_mult=0, eval_vec=lambda x, m: m)


@pytest.mark.parametrize(
    "q, message",
    [
        (2**31, "modulus 2147483648 exceeds supported bound 2147483647"),
        (True, "modulus must be an integer, got True"),
        (7.0, "modulus must be an integer, got 7.0"),
        (0, "modulus must be >= 1, got 0"),
    ],
)
@pytest.mark.parametrize(
    "build", [make_identity_gadget, lambda q: BarrettParams(q, 40)],
    ids=["identity-gadget", "barrett-params"],
)
def test_q_is_checked_at_construction(build, q, message):
    # q is a plain int past construction, so the ring's bound check runs here.
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(q)


@given(
    st.integers(min_value=1, max_value=2**20),
    st.integers(min_value=0, max_value=48),
    st.data(),
)
def test_two_branch_law_random(q, s, data):
    p = BarrettParams.create(q, s)
    x = data.draw(st.integers(min_value=0, max_value=q - 1))
    m = data.draw(st.integers(min_value=0, max_value=q - 1))
    assert alg(p, x, m, np.int32) == alg(p, x, m) == ref_wire(q, s, x, m)
