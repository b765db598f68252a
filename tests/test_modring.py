"""Ring primitive behavior: validated moduli and residues, and the offset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskwire.modring import MAX_MODULUS, Modulus, ZqElem, branch_offset


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
    assert ZqElem(-1 % 7, q).val == 6
    assert ZqElem(12345 % 1, Modulus(1)).val == 0
    with pytest.raises(ValueError):
        ZqElem(1, Modulus(1))
    with pytest.raises(ValueError):
        ZqElem(7, q)
    with pytest.raises(ValueError):
        ZqElem(-1, q)
    with pytest.raises(ValueError):
        ZqElem(1.5, q)


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
