"""Ring primitive behavior: canonical representatives and the offset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskwire.modring import MAX_MODULUS, Modulus, ZqElem, branch_offset, reduce


def test_reduce_examples():
    q = Modulus(7)
    assert reduce(0, q).val == 0
    assert reduce(13, q).val == 6
    assert reduce(-1, q).val == 6
    assert reduce(-7, q).val == 0
    assert reduce(3329, Modulus(3329)).val == 0


def test_trivial_ring():
    q = Modulus(1)
    assert reduce(12345, q).val == 0
    assert reduce(-5, q).val == 0


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(0)
    with pytest.raises(ValueError):
        Modulus(-3)
    with pytest.raises(ValueError):
        Modulus(MAX_MODULUS + 1)
    with pytest.raises(ValueError):
        Modulus(True)
    with pytest.raises(ValueError):
        Modulus(2.0)


def test_elem_validation():
    q = Modulus(7)
    with pytest.raises(ValueError):
        ZqElem(7, q)
    with pytest.raises(ValueError):
        ZqElem(-1, q)
    with pytest.raises(ValueError):
        ZqElem(1.5, q)


def test_mixed_ring_rejected():
    a = reduce(3, Modulus(7))
    b = reduce(3, Modulus(11))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


def test_arithmetic_examples():
    q = Modulus(7)
    assert (reduce(5, q) + reduce(4, q)).val == 2
    assert (reduce(2, q) - reduce(5, q)).val == 4
    assert int(reduce(6, q)) == 6
    assert reduce(-2, q).val == 5


@given(st.integers(min_value=1, max_value=10**6), st.integers(), st.integers())
def test_arithmetic_matches_int_mod(q, a, b):
    ring = Modulus(q)
    ea, eb = reduce(a, ring), reduce(b, ring)
    assert (ea + eb).val == (a + b) % q
    assert (ea - eb).val == (a - b) % q


@given(st.integers(min_value=1, max_value=10**6), st.integers())
def test_reduce_canonical_and_idempotent(q, n):
    ring = Modulus(q)
    e = reduce(n, ring)
    assert 0 <= e.val < q
    assert reduce(e.val, ring) == e


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=200),
)
def test_branch_offset_matches_widening(q, s):
    # Oracle: compute 2^s as an unbounded int, reduce once.
    ring = Modulus(q)
    assert branch_offset(ring, s).val == (2**s) % q


def test_branch_offset_examples():
    assert branch_offset(Modulus(3329), 24).val == 2385
    assert branch_offset(Modulus(8380417), 48).val == 196580
    assert branch_offset(Modulus(7), 3).val == 1
    assert branch_offset(Modulus(16), 4).val == 0
    assert branch_offset(Modulus(7), 0).val == 1
    with pytest.raises(ValueError):
        branch_offset(Modulus(7), -1)
